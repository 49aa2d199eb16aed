"""Independent reference implementations used only by tests.

The naive table oracle runs the machine on *every* bit string up to a
length cap — no decode-tree walk, no pruning — so it cross-checks the
enumeration kernel against the machine semantics alone. ``traverse``
lists the halting programs one by one through the opcode decode tree, as
the kernel did before it walked machine states; ``tree_walk`` tabulates
them, and is the reference for ``_pykernel.walk`` at lengths the naive
oracle cannot reach. ``enumerate_halting`` sorts them, and
``find_prefix_violation`` checks that they are prefix-free. The
counting recurrences predict halting-program totals per length straight
from the opcode length table, independently of both. The naive table-file parser
inflates the whole body and reads one record at a time, and ``seal`` writes
a file around any record text, telling its dense segments by their outputs
rather than their counts. ``plain_text`` and ``stored`` turn a table file
into its text, body inflated, and back, for tests that edit files.
The law-audit and X(r) references recompute each quantity term by term, one
lookup at a time, as the library computed them before it swept whole K
lists. ``filtered_models`` finds the models of x as the library did before
it made only tuples containing x: it builds every union and list tuple
within the code budget and keeps those that contain x.
"""

from __future__ import annotations

import hashlib
import re
import zlib
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise, product
from pathlib import Path
from typing import Callable, Iterable, Iterator

from algstat._pykernel import _COMPL, _COPY_CODES, COND_MODEL, COND_STR, walk_args
from algstat.bits import check_bits, text_to_bits
from algstat.condition import MACHINE_VERSION, Budgets, Condition
from algstat.enumeration import (
    DEFLATE_LEVEL,
    ComplexityTable,
    Entry,
    TableFormatError,
    TableVersionError,
)
from algstat.machine import Status, run


def naive_entries(L: int, cond: Condition | None = None, budgets: Budgets | None = None):
    """(entries, hist) by running all 2^{L+1}-2 candidate strings: entries
    maps output -> (K, witness, m_num over 2**L), and hist[l] counts the
    halting programs of length l. Only sane for L <= 13 or so."""
    entries: dict[str, list] = {}
    hist = [0] * (L + 1)
    for l in range(3, L + 1):
        for tup in product("01", repeat=l):
            p = "".join(tup)
            r = run(p, cond, budgets)
            if r.status is not Status.HALTED:
                continue
            hist[l] += 1
            out = r.output
            e = entries.get(out)
            if e is None:
                entries[out] = [l, p, 1 << (L - l)]
            else:
                # first hit at the smallest length is lexicographically
                # smallest because product() yields in lex order
                e[2] += 1 << (L - l)
    return {out: tuple(e) for out, e in entries.items()}, hist


def traverse(
    L: int,
    max_steps: int,
    max_output: int,
    cond_kind: int,
    cond_bits: str,
    book_codes: tuple[str, ...],
    book_elems: tuple[str, ...],
    halt: Callable[[str, str, int], None],
) -> None:
    """Call ``halt(program, output, steps)`` once for every halting
    program p with l(p) <= L, in decode-tree order, from the arguments of
    ``_pykernel.walk``. ``book_codes`` must be sorted by length, as
    ``_pykernel.compile_condition`` does."""
    cond_len = len(cond_bits)
    book = tuple(zip(book_codes, book_elems))

    def rec(cur: str, steps: int, buf: str, ptr: int) -> None:
        cur_len = len(cur)
        buf_len = len(buf)

        # HALT
        if cur_len + 3 <= L and steps + 1 <= max_steps:
            halt(cur + "100", buf, steps + 1)

        # EMIT0 / EMIT1 (non-HALT tokens need 3 more bits for the HALT)
        if cur_len + 5 <= L and steps + 1 <= max_steps and buf_len + 1 <= max_output:
            rec(cur + "00", steps + 1, buf + "0", ptr)
            rec(cur + "01", steps + 1, buf + "1", ptr)

        # COPYIN
        if cond_kind == COND_STR and cur_len + 8 <= L:
            for cc, m in _COPY_CODES:
                if ptr + m <= cond_len and steps + m <= max_steps and buf_len + m <= max_output:
                    rec(cur + "101" + cc, steps + m, buf + cond_bits[ptr : ptr + m], ptr + m)

        # DOUBLE / FLIP
        if cur_len + 7 <= L and 2 * buf_len <= max_output:
            cost = buf_len if buf_len > 1 else 1
            if steps + cost <= max_steps:
                rec(cur + "1100", steps + cost, buf + buf, ptr)
                rec(cur + "1101", steps + cost, buf + buf.translate(_COMPL), ptr)

        # SFDECODE
        if cond_kind == COND_MODEL:
            for cw, elem in book:
                cw_len = len(cw)
                if cur_len + 7 + cw_len > L or steps + cw_len > max_steps:
                    break
                if buf_len + len(elem) <= max_output:
                    rec(cur + "1110" + cw, steps + cw_len, buf + elem, ptr)

    rec("", 0, "", 0)


def tree_walk(
    L: int,
    max_steps: int,
    max_output: int,
    cond_kind: int,
    cond_bits: str,
    book_codes: tuple[str, ...],
    book_elems: tuple[str, ...],
) -> tuple[dict[str, list], list[int]]:
    """``_pykernel.walk`` by one callback per halting program of
    ``traverse``: (entries, hist) with entries mapping output ->
    [K, witness, m_num over 2**L]."""
    entries: dict[str, list] = {}
    hist = [0] * (L + 1)
    get = entries.get

    def halt(p: str, out: str, steps: int) -> None:
        total = len(p)
        hist[total] += 1
        e = get(out)
        if e is None:
            entries[out] = [total, p, 1 << (L - total)]
        else:
            if total < e[0] or (total == e[0] and p < e[1]):
                e[0] = total
                e[1] = p
            e[2] += 1 << (L - total)

    traverse(L, max_steps, max_output, cond_kind, cond_bits, book_codes, book_elems, halt)
    return entries, hist


def enumerate_halting(
    L: int,
    cond: Condition | None = None,
    budgets: Budgets | None = None,
) -> Iterator[tuple[str, str, int]]:
    """Yield (program, output, steps) for every halting program of
    length <= L, each exactly once, in (length, lexicographic) order."""
    if L < 3:
        raise ValueError("L must be at least 3 (HALT alone is 3 bits)")
    cond = cond if cond is not None else Condition.none()
    budgets = budgets if budgets is not None else Budgets()
    programs: list[tuple[str, str, int]] = []
    traverse(*walk_args(L, cond, budgets), lambda *found: programs.append(found))
    programs.sort(key=lambda t: (len(t[0]), t[0]))
    yield from programs


def find_prefix_violation(programs: Iterable[str]) -> tuple[str, str] | None:
    """Return a (shorter, longer) halting-program pair violating
    prefix-freeness, or None. Adjacent comparison after a lexicographic
    sort suffices: if a is a proper prefix of c then a is a prefix of its
    immediate successor too."""
    ordered = sorted(programs)
    for a, b in pairwise(ordered):
        if len(a) < len(b) and b.startswith(a):
            return a, b
    return None


def naive_halting_programs(L: int, cond: Condition | None = None, budgets: Budgets | None = None):
    """All halting programs as (program, output, steps), (length, lex) order."""
    progs = []
    for l in range(3, L + 1):
        for tup in product("01", repeat=l):
            p = "".join(tup)
            r = run(p, cond, budgets)
            if r.status is Status.HALTED:
                progs.append((p, r.output, r.steps))
    return progs


def _naive_header_int(line: str, key: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise TableFormatError(f"expected '{key} <value>' header line, got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise TableFormatError(f"non-integer {key} header: {line!r}") from None


def _naive_header_naturals(line: str, key: str) -> list[list[int]]:
    parts = line.split()
    if not parts or parts[0] != key:
        raise TableFormatError(f"expected '{key} ...' header line, got {line!r}")
    try:
        fields = [[int(t) for t in field.split(",")] for field in parts[1:]]
    except ValueError:
        raise TableFormatError(f"malformed {key} header: {line!r}") from None
    if any(v < 0 for field in fields for v in field):
        raise TableFormatError(f"negative number in {key} header: {line!r}")
    return fields


def _naive_digest(header: list[str], body: bytes) -> str:
    """The SHA-256 of a table file without its sha256 line: the eight header
    lines before it, each with its newline, then the stored body."""
    text = "".join(line + "\n" for line in header).encode("ascii")
    return hashlib.sha256(text + body).hexdigest()


def plain_text(data: bytes) -> str:
    """A format-4 table file as text: its nine header lines as they are, then
    its body inflated, the records as format 3 stored them."""
    *head, body = data.split(b"\n", 9)
    return (b"\n".join([*head, zlib.decompress(body)])).decode()


def stored(text: str) -> bytes:
    """The table file whose ``plain_text`` is ``text``: the nine header lines
    as they are and the rest deflated at export's level, with the sha256
    line copied, not recomputed. The text of an export, left as it is, gives
    back the exported bytes."""
    *head, body = text.encode().split(b"\n", 9)
    return b"\n".join([*head, zlib.compress(body, DEFLATE_LEVEL)])


def resealed(data: bytes) -> bytes:
    """A table file with its sha256 line rewritten to match the header lines
    before it and the stored body, as a writer would after editing them."""
    head, sep, rest = data.partition(b"\nsha256 ")
    body = rest.partition(b"\n")[2]
    return head + sep + hashlib.sha256(head + b"\n" + body).hexdigest().encode() + b"\n" + body


def naive_import_table(path) -> ComplexityTable:
    """Format-4 table file parser that inflates the whole body in one call and
    reads every record at once, splitting and converting one line at a time
    with ``str.split`` and ``int``: the reference for
    enumeration.import_table followed by a read of every segment, which may
    reject more files than this (such as records separated by tabs or runs
    of spaces) but never fewer."""
    data = Path(path).read_bytes()
    lines = data.split(b"\n", 9)
    if len(lines) < 10:
        raise TableFormatError("truncated table file: incomplete header")
    deflated = lines.pop()
    try:
        lines = [line.decode("ascii") for line in lines]
    except UnicodeDecodeError:
        raise TableFormatError(f"table file header is not ASCII text: {path}") from None

    mparts = lines[0].split()
    if len(mparts) != 2 or mparts[0] != "machine":
        raise TableFormatError(f"expected 'machine <version>' header line, got {lines[0]!r}")
    if mparts[1] != MACHINE_VERSION:
        raise TableVersionError(f"table written by {mparts[1]!r}, this build is {MACHINE_VERSION!r}")
    L = _naive_header_int(lines[1], "L")
    T = _naive_header_int(lines[2], "T")
    O = _naive_header_int(lines[3], "O")
    cparts = lines[4].split()
    if len(cparts) != 2 or cparts[0] != "condition":
        raise TableFormatError(f"expected 'condition <fingerprint>' header line, got {lines[4]!r}")
    fingerprint = cparts[1]
    if lines[5].split() != ["format", "4"]:
        raise TableFormatError(f"expected 'format 4' header line, got {lines[5]!r}")
    hist = [h for (h,) in _naive_header_naturals(lines[6], "hist")]
    if len(hist) != L + 1:
        raise TableFormatError(f"expected {L + 1} histogram counts, got {len(hist)}")
    index = _naive_header_naturals(lines[7], "index")
    if any(len(entry) != 4 for entry in index):
        raise TableFormatError(f"malformed index header: {lines[7]!r}")
    if any(n > O for n, *_ in index):
        raise TableFormatError(f"an index output length exceeds O: {lines[7]!r}")
    if lines[8].split() != ["sha256", _naive_digest(lines[:8], deflated)]:
        raise TableFormatError("table file does not match its sha256 digest")
    inflate = zlib.decompressobj()
    try:
        body = inflate.decompress(deflated) + inflate.flush()
    except zlib.error:
        raise TableFormatError("table body is not a zlib stream") from None
    if not inflate.eof or inflate.unused_data:
        raise TableFormatError("table body is not one whole zlib stream")
    try:
        body = body.decode("ascii")
    except UnicodeDecodeError:
        raise TableFormatError(f"table body is not ASCII text: {path}") from None
    if sum(size for _, _, size, _ in index) != len(body):
        raise TableFormatError("index byte counts do not add up to the body length")
    total = sum(mass for *_, mass in index)
    if total > 1 << L or total != sum(h * 2 ** (L - l) for l, h in enumerate(hist)):
        raise TableFormatError("index masses exceed 1 or disagree with the histogram")

    entries: dict[str, Entry] = {}
    previous = -1
    pos = 0
    for n, count, size, mass in index:
        if n <= previous:
            raise TableFormatError("index output lengths are not increasing")
        previous = n
        records = body[pos : pos + size].split("\n")
        pos += size
        if records[-1] == "":
            records.pop()
        elif pos < len(body):
            raise TableFormatError(f"segment of output length {n} ends inside a record")
        # A segment of 2^n records, n >= 1, holds every n-bit string: its
        # records give no output, and record i is that of format(i, n bits).
        dense = n >= 1 and count == 2**n
        seg_mass = 0
        for i, ln in enumerate(records):
            fields = ln.split()
            if len(fields) != (2 if dense else 3):
                raise TableFormatError(f"malformed record: {ln!r}")
            try:
                out = format(i, f"0{n}b") if dense else text_to_bits(fields[0])
                witness = check_bits(fields[-2])
                num_text, _, exp_text = fields[-1].partition("/2^")
                num, exp = int(num_text), int(exp_text)
            except ValueError:
                raise TableFormatError(f"malformed record: {ln!r}") from None
            if not witness:
                raise TableFormatError(f"empty witness in record: {ln!r}")
            if len(out) != n:
                raise TableFormatError(f"record {ln!r} in the segment of output length {n}")
            if not (0 <= exp <= L) or num < 1:
                raise TableFormatError(f"mass out of range in record: {ln!r}")
            if out in entries:
                raise TableFormatError(f"duplicate output in table file: {fields[0]}")
            entries[out] = Entry(len(witness), witness, num << (L - exp))
            seg_mass += num << (L - exp)
        if len(records) != count or seg_mass != mass:
            raise TableFormatError(f"segment of output length {n} disagrees with its index entry")

    table = ComplexityTable(L, Budgets(T, O), fingerprint, entries, hist)
    if table.kraft_sum() > 1:
        raise TableFormatError("corrupt table: Kraft sum exceeds 1")
    return table


def full_records(table: ComplexityTable) -> str:
    """The record text of ``table`` with every output written out, one
    ``output witness num/2^exp`` line per output in (length, lex) order:
    what ``seal`` takes."""
    lines = []
    entries = table.entries
    for x in sorted(entries, key=lambda x: (len(x), x)):
        e = entries[x]
        m = Fraction(e.m_num, 2**table.L)
        lines.append(f"{x or '-'} {e.witness} {m.numerator}/2^{m.denominator.bit_length() - 1}\n")
    return "".join(lines)


def seal(preamble: list[str], body: str) -> bytes:
    """A format-4 file of the five ``preamble`` lines (machine, L, T, O,
    condition) and this record text, given with every output written out,
    whose index, histogram and digest agree with what ``naive_import_table``
    reads in the records: each run of consecutive records whose outputs
    have one length is a segment, a mass that does not parse counts as 0,
    and the histogram puts the whole mass at length L. A run whose outputs
    are the 2^n strings of n >= 1 bits in lex order is written as a dense
    segment, each line without its output and the separator after it. The
    body is deflated at zlib's default level, not export's, which any
    reader accepts. Only the records can then make the file fail."""
    L = int(preamble[1].split()[1])
    parts = body.split("\n")
    lines = [p + "\n" for p in parts[:-1]] + ([parts[-1]] if parts[-1] else [])
    runs: list[list] = []  # [n, lines, mass, outputs]
    for ln in lines:
        fields = ln.split()
        token = fields[0] if fields else ""
        n = 0 if token == "-" else len(token)
        mass = 0
        if fields:
            num, _, exp = fields[-1].partition("/2^")
            if num.isdigit() and exp.isdigit() and len(num + exp) < 100 and int(exp) <= L:
                mass = int(num) << (L - int(exp))
        if not runs or runs[-1][0] != n:
            runs.append([n, [], 0, []])
        runs[-1][1].append(ln)
        runs[-1][2] += mass
        runs[-1][3].append(token)
    for run in runs:
        n, run_lines, _, outs = run
        if n >= 1 and len(outs) == 2**n and outs == [format(i, f"0{n}b") for i in range(2**n)]:
            run[1] = [re.sub(r"^(\s*)\S+[ \t]?", r"\1", ln, count=1) for ln in run_lines]
    hist = [0] * L + [sum(run[2] for run in runs)]
    header = [
        *preamble,
        "format 4",
        " ".join(["hist", *map(str, hist)]),
        " ".join(["index", *(f"{n},{len(ls)},{len(''.join(ls))},{m}" for n, ls, m, _ in runs)]),
    ]
    out_body = zlib.compress("".join(ln for run in runs for ln in run[1]).encode())
    digest = _naive_digest(header, out_body)
    return "".join(line + "\n" for line in [*header, f"sha256 {digest}"]).encode() + out_body


@lru_cache(maxsize=None)
def token_seq_count(n: int) -> int:
    """Number of unconditioned non-HALT token sequences of total length n
    (EMIT0/EMIT1 are 2 bits, DOUBLE/FLIP are 4), assuming budgets never
    bind. Halting programs of length b correspond to n = b - 3."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 2 * token_seq_count(n - 2) + 2 * token_seq_count(n - 4)


@lru_cache(maxsize=None)
def token_seq_count_str(n: int) -> int:
    """Same, when a Str condition adds the four 5-bit COPYIN forms and the
    condition is long enough that the pointer never runs out."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return (
        2 * token_seq_count_str(n - 2)
        + 2 * token_seq_count_str(n - 4)
        + 4 * token_seq_count_str(n - 5)
    )


def predicted_halting_by_length(L: int, conditioned_on_long_str: bool = False) -> list[int]:
    f = token_seq_count_str if conditioned_on_long_str else token_seq_count
    return [0 if b < 3 else f(b - 3) for b in range(L + 1)]


def _naive_level(table, k: int):
    """S^k rebuilt from the table alone: (members in canonical order,
    index width, N-word)."""
    canonical = table.sorted_outputs()
    members = tuple(y for y in canonical if table.k_of(y) <= k)
    width = len(members).bit_length()
    return members, width, format(len(members), f"0{width}b")


def _naive_split(members, width, n_word, x: str):
    """(index word, l(m_x)) by scanning for the first bit where the index
    of x and the N-word differ; the longest proper prefix when equal."""
    word = format(members.index(x) + 1, f"0{width}b")
    if word == n_word:
        return word, width - 1
    return word, next(i for i in range(width) if word[i] != n_word[i])


def naive_mx_lengths(table) -> dict[str, int]:
    """l(m_x) for every output at k = K(x), rebuilding S^k once per level
    and comparing the index and N-words bit by bit. Quadratic in the number
    of outputs; the reference for skstats._mx_lengths."""
    out = {}
    levels = {}
    for x in table.sorted_outputs():
        k = table.k_of(x)
        if k not in levels:
            levels[k] = _naive_level(table, k)
        members, width, n_word = levels[k]
        out[x] = _naive_split(members, width, n_word, x)[1]
    return out


def naive_sk_mx(table, k: int, x: str) -> tuple[str, ...]:
    """Members of S^k whose index words continue m_x with 0 (with m_x
    alone when x is the last member), by filtering every index word."""
    members, width, n_word = _naive_level(table, k)
    word, split = _naive_split(members, width, n_word, x)
    prefix = word[:split] if word == n_word else word[:split] + "0"
    return tuple(
        y for y in members if _naive_split(members, width, n_word, y)[0].startswith(prefix)
    )


def blind_models(x: str, alpha_max: int):
    """Models of x found by decoding *every* bit string shorter than
    alpha_max — the grammar-free ground truth for enumerate_models."""
    from algstat.setlang import SetLangError, decode

    found = []
    for l in range(3, alpha_max):
        for tup in product("01", repeat=l):
            bits = "".join(tup)
            try:
                desc = decode(bits)
            except SetLangError:
                continue
            if desc.member(x):
                found.append(desc)
    found.sort(key=lambda d: (d.code_len, d.code))
    return found


def filtered_models(x: str, alpha_max: int, opts=None) -> list:
    """enumerate_models as it was before it made only the models of x:
    every union and list tuple within the code budget is built, with the
    pool rebuilt for each count, and those without x are filtered out."""
    from algstat.bits import check_bits, nat_len, std_len
    from algstat.models_set import ModelOpts
    from algstat.setlang import All, Cyl, Hamming, ListSet, Singleton, UnionSet

    def base_pool(budget):
        """Every Singleton/All/Cyl/Hamming whose code fits in ``budget`` bits."""
        pool = []
        l = 0
        while 2 + std_len(l) <= budget:
            pool.extend(Singleton(format(v, f"0{l}b") if l else "") for v in range(1 << l))
            l += 1
        n = 0
        while 2 + 2 * nat_len(n) + 1 <= budget:
            pool.append(All(n))
            n += 1
        lp = 0
        while True:
            if 3 + std_len(lp) + 1 > budget:  # even n with 1-bit bar won't fit
                break
            for v in range(1 << lp):
                p = format(v, f"0{lp}b") if lp else ""
                n = lp
                while 3 + std_len(lp) + 2 * nat_len(n) + 1 <= budget:
                    pool.append(Cyl(p, n))
                    n += 1
            lp += 1
        n = 0
        while 3 + (2 * nat_len(n) + 1) + 1 <= budget:
            for s in range(n + 1):
                if 3 + (2 * nat_len(n) + 1) + (2 * nat_len(s) + 1) <= budget:
                    pool.append(Hamming(n, s))
            n += 1
        return pool

    def tuples_within(pool, count, budget):
        # ordered count-tuples with repetition whose costs sum <= budget
        if count == 0:
            yield ()
            return
        min_cost = pool[0][0]
        for cost, item in pool:
            if cost + (count - 1) * min_cost > budget:
                break
            for rest in tuples_within(pool, count - 1, budget - cost):
                yield (item,) + rest

    opts = opts or ModelOpts()
    check_bits(x)
    found = []

    def consider(desc):
        if desc.code_len < alpha_max:
            found.append(desc)

    consider(Singleton(x))
    consider(All(len(x)))
    for lp in range(len(x) + 1):
        consider(Cyl(x[:lp], len(x)))
    consider(Hamming(len(x), x.count("1")))

    # unions: at least one part must contain x
    min_part = 3  # smallest base code (Singleton(""), All(0))
    for count in range(2, opts.union_width + 1):
        header = 3 + 2 * nat_len(count) + 1
        budget = alpha_max - 1 - header
        if budget < count * min_part:
            continue
        pool = [(d.code_len, d) for d in base_pool(budget - (count - 1) * min_part)]
        pool.sort(key=lambda t: (t[0], t[1].code))
        for parts in tuples_within(pool, count, budget):
            if any(p.member(x) for p in parts):
                consider(UnionSet(parts))

    # lists: x must literally appear among the elements
    for count in range(1, opts.list_cap + 1):
        header = 3 + 2 * nat_len(count) + 1
        budget = alpha_max - 1 - header
        if std_len(len(x)) + (count - 1) > budget:  # x plus minimal others
            continue
        strings = []
        l = 0
        while std_len(l) + (count - 1) <= budget:
            strings.extend(
                (std_len(l), format(v, f"0{l}b") if l else "") for v in range(1 << l)
            )
            l += 1
        for elems in tuples_within(strings, count, budget):
            if x in elems:
                consider(ListSet(elems))

    found.sort(key=lambda d: (d.code_len, d.code))
    return found


def naive_union_size(union) -> int:
    """|union| for a union of simple shapes, nested or not, without
    inclusion-exclusion: the strings of a length that an All part fills
    count 2^n, and the members of every other shape are listed and counted
    once."""
    from algstat.setlang import All, UnionSet

    def shapes(desc):
        return [s for p in desc.parts for s in shapes(p)] if isinstance(desc, UnionSet) else [desc]

    leaves = shapes(union)
    full = {s.n for s in leaves if isinstance(s, All)}
    listed = {x for s in leaves if not isinstance(s, All) for x in s.denote() if len(x) not in full}
    return sum(1 << n for n in full) + len(listed)


class ToyModel:
    """Minimal stand-in for a decodable model condition."""

    def __init__(self, code: str, pairs: list[tuple[str, str]]):
        self.code = code
        self._pairs = pairs

    def codebook_pairs(self) -> list[tuple[str, str]]:
        return list(self._pairs)

    def max_codeword_len(self) -> int:
        return max((len(cw) for cw, _ in self._pairs), default=0)


def naive_codebook(dist):
    """distlang.codebook by its definition, for every kind of model: each
    domain element's codeword length is ceil(-log2 mass) from its own
    ``mass`` call, and shorter codewords are packed first (ties in domain
    order), each the last one plus 1, shifted to its length."""
    from algstat.bits import ceil_log2_ratio
    from algstat.distlang import Codebook

    lengths = []
    for i, x in enumerate(dist.domain()):
        m = dist.mass(x)
        lengths.append((ceil_log2_ratio(m.denominator, m.numerator), i, x))
    assigned = {}
    value, prev = 0, None
    for length, _, x in sorted(lengths):
        value = value if prev is None else value << (length - prev)
        assert value < 1 << length, "Kraft overflow"
        assigned[x] = format(value, f"0{length}b") if length else ""
        value, prev = value + 1, length
    return Codebook(assignments=tuple((x, assigned[x]) for x in dist.domain()))


# -- the law audits, one K lookup per (table, string, triple) ----------------


def naive_soi_audit(table, len_cap: int, source):
    """complexity.soi_audit as three nested loops that call require_k for
    every term: the reference for its sweeps over per-table K lists,
    argmax tie-breaks included. The conditional tables are built at the
    source's ``max_len``, which must be set."""
    from algstat.bits import pair
    from algstat.complexity import SoiReport, _all_strings, require_k, shortest_program

    xs = _all_strings(len_cap)
    k_un = {x: require_k(table, x) for x in xs}
    conds = [Condition.string(shortest_program(table, x)) for x in xs]
    cond_tables = dict(zip(xs, source.tables(conds, n=len_cap, L=source.max_len)))

    add_max, add_arg = -1, ("", "")
    swap_max = 0
    kxy: dict[tuple[str, str], int] = {}
    for x in xs:
        for y in xs:
            kxy[(x, y)] = require_k(table, pair(x, y))
    for x in xs:
        for y in xs:
            slack = abs(kxy[(x, y)] - k_un[x] - require_k(cond_tables[x], y))
            if slack > add_max:
                add_max, add_arg = slack, (x, y)
            swap_max = max(swap_max, abs(kxy[(x, y)] - kxy[(y, x)]))

    self_gap = 0
    for x in xs:
        i_xx = 2 * k_un[x] - kxy[(x, x)]
        self_gap = max(self_gap, abs(i_xx - (k_un[x] - require_k(cond_tables[x], x))))

    tri_max, tri_arg = 0, ("", "", "")
    for y in xs:
        t_y = cond_tables[y]
        for z in xs:
            t_z = cond_tables[z]
            kzy = require_k(t_y, z)
            for x in xs:
                deficit = require_k(t_y, x) - kzy - require_k(t_z, x)
                if deficit > tri_max:
                    tri_max, tri_arg = deficit, (x, y, z)

    return SoiReport(
        len_cap=len_cap,
        pairs_checked=len(xs) * len(xs),
        additivity_max_slack=add_max,
        additivity_argmax=add_arg,
        triangle_c=tri_max,
        triangle_argmax=tri_arg,
        mi_self_gap_max=self_gap,
        mi_swap_gap_max=swap_max,
    )


def naive_nonincrease_audit(table, len_cap: int, source, transforms=None):
    """infolaws.nonincrease_audit as a loop over (transform, x, y) that
    calls require_k twice per triple: the reference for its sweeps. The
    conditional tables are built at the source's ``max_len``, or at the
    emit-only cap 2 len_cap + 3 when it is not set."""
    from algstat.complexity import _all_strings, require_k, shortest_program
    from algstat.infolaws import NonincreaseReport, TransformMax, _applied, default_transforms

    if transforms is None:
        transforms = default_transforms()
    xs = _all_strings(len_cap)
    applied = _applied(transforms, xs, source.budgets)
    needed = sorted(set(xs) | {out for _, out in applied.values()})
    L = source.max_len if source.max_len is not None else 2 * len_cap + 3
    conds = [Condition.string(shortest_program(table, s)) for s in needed]
    cond_k = dict(zip(needed, source.tables(conds, n=len_cap, L=L)))

    per = []
    for q in transforms:
        best, arg = None, ("", "")
        for x in xs:
            program, out = applied[(q.name, x)]
            for y in xs:
                # K(y) cancels between the two information terms.
                deficit = require_k(cond_k[x], y) - require_k(cond_k[out], y) - len(program)
                if best is None or deficit > best:
                    best, arg = deficit, (x, y)
        assert best is not None
        per.append(TransformMax(q.name, best, arg))
    return NonincreaseReport(len_cap, len(xs) * len(xs), tuple(per))


def naive_xr_mass_sums(table, lengths: dict[str, int]) -> list[Fraction]:
    """The sum of 2^-K(x) over X(r), one Fraction term per member, for r
    from 0 up to the first empty X(r), given l(m_x) for every output."""
    sums = []
    r = 0
    while True:
        members = [x for x in table.sorted_outputs() if lengths[x] >= r]
        sums.append(sum((Fraction(1, 1 << table.k_of(x)) for x in members), Fraction(0)))
        if not members:
            return sums
        r += 1


def naive_slice_bound_check(table, lengths: dict[str, int]) -> bool:
    """skstats.slice_bound_check as a scan of every slice S^k \\ S^{k-1}
    for every r, given l(m_x) for every output."""
    ks = {x: table.k_of(x) for x in table.sorted_outputs()}
    n_at: dict[int, int] = {}
    for k in sorted(set(ks.values())):
        n_at[k] = sum(1 for v in ks.values() if v <= k)
    max_r = max(lengths.values(), default=0)
    for k in n_at:
        slice_members = [x for x in ks if ks[x] == k]
        for r in range(max_r + 2):
            count = sum(1 for x in slice_members if lengths[x] >= r)
            if count * (1 << r) > 2 * n_at[k]:
                return False
    return True
