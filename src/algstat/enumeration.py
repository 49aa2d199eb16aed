"""Exhaustive enumeration of halting programs and exact complexity tables.

A ComplexityTable records, for every output producible by a halting
program of length <= L under a fixed condition and budgets: the exact
complexity K (shortest program length), the canonical witness (first
shortest program in length-then-lexicographic order) and the exact dyadic
mass m = sum 2^{-l(p)} over programs producing that output, and one
histogram of its halting programs by length. It holds them in one form,
built or read from a file: a segment per output length, which holds its
witness and mass columns alone when its outputs are every string of that
length.

Each build is one serial walk of the machine's states (see
``_pykernel``), never of raw bit strings or of programs one by one.
"""

from __future__ import annotations

import gc
import itertools
import re
import sys
import zlib
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

# Runs on first use (see the package): only a build reads walk and walk_args
# off it, so a command that finds its tables cached never runs it.
from . import _pykernel
from .bits import bits_to_text
from .condition import MACHINE_VERSION, Budgets, Condition, sha256

if TYPE_CHECKING:
    from fractions import Fraction

# The fixed cap of `k`, `mi` and `enumerate`. `k` and `mi` read it under
# the output budget of the longest string they look up, x or pair(x, y);
# `enumerate` under the full budget.
DEFAULT_MAX_LEN = 24
# The same under a condition: `k --cond`, `enumerate --cond` and
# `complexity.k_cond`, which reads it as `k` does.
DEFAULT_COND_MAX_LEN = 22
# The fixed cap of the unconditional level table that `xr` and the `laws`
# level audits read whole, and the largest that `sk k` reads: it reads the
# table at cap k, whose outputs are exactly S^k.
LEVEL_MAX_LEN = 22
DEFAULT_ENTRY_CAP = 5_000_000


class TableError(Exception):
    """Base class for table build/parse failures."""


class TableFormatError(TableError):
    """Malformed or truncated table file."""


class TableVersionError(TableFormatError):
    """Table file written by a different machine version."""


class EntryCapExceeded(TableError):
    """The build produced more distinct outputs than the configured cap."""


class Entry(NamedTuple):
    k: int
    witness: str
    m_num: int  # numerator of m over 2**L


class _Sparse(dict):
    """A segment that does not hold every string of its length, or the
    segment of length 0: each output mapped to its Entry."""

    __slots__ = ()

    @property
    def masses(self) -> list[int]:
        return list(map(itemgetter(2), self.values()))

    def ks(self, xs: Sequence[str]) -> list[int | None]:
        return [None if e is None else e[0] for e in map(self.get, xs)]


# str.translate deletes every bit: what is left marks a string that is no
# bit string, such as "0b1", " 1" or "-1", which int(x, 2) would still read.
_NO_BITS = str.maketrans("", "", "01")


class _Dense:
    """A dense segment: every n-bit string for one n >= 1, so the outputs
    follow from n. The witness and mass numerator of x are item int(x, 2)
    of two columns, and K(x) is the witness's length."""

    __slots__ = ("wits", "masses")

    def __init__(self, wits: list[str], masses: list[int]):
        self.wits = wits
        self.masses = masses

    def __len__(self) -> int:
        return len(self.wits)

    def __iter__(self) -> Iterator[str]:
        return map("".join, itertools.product("01", repeat=len(self.wits).bit_length() - 1))

    def __eq__(self, other) -> bool:
        return type(other) is _Dense and (self.wits, self.masses) == (other.wits, other.masses)

    def __contains__(self, x: str) -> bool:
        return not x.translate(_NO_BITS)  # x has the segment's length

    def get(self, x: str) -> Entry | None:
        if x.translate(_NO_BITS):
            return None
        i = int(x, 2)
        w = self.wits[i]
        return Entry(len(w), w, self.masses[i])

    def items(self) -> Iterator[tuple[str, Entry]]:
        made = zip(map(len, self.wits), self.wits, self.masses)
        return zip(self, map(tuple.__new__, itertools.repeat(Entry), made))

    def ks(self, xs: Sequence[str]) -> list[int | None]:
        if "".join(xs).translate(_NO_BITS):
            return [None if e is None else e[0] for e in map(self.get, xs)]
        return list(map(len, map(self.wits.__getitem__, map(int, xs, itertools.repeat(2)))))


_NO_SEGMENT = _Sparse()


def _segments(found: dict[str, Sequence]) -> dict[int, _Sparse | _Dense]:
    """The segments of output -> (K, witness, m_num), in increasing output
    length, taking each output out of ``found`` as its segment is made."""
    segments: dict[int, _Sparse | _Dense] = {}
    for n, outs in itertools.groupby(sorted(sorted(found), key=len), len):
        outs = list(outs)
        rows = list(map(found.pop, outs))
        if _dense(n, len(rows)):
            segments[n] = _Dense(list(map(itemgetter(1), rows)), list(map(itemgetter(2), rows)))
        else:
            # tuple.__new__ makes each Entry in C, as Entry._make does
            # without a Python call per record.
            segments[n] = _Sparse(zip(outs, map(tuple.__new__, itertools.repeat(Entry), rows)))
    return segments


class ComplexityTable:
    """Immutable result of one exhaustive enumeration.

    Built or read from a file, a table holds its records in one form: a
    segment per output length. A dense segment (see the format below) is a
    witness column and a mass column indexed by int(x, 2); any other is a
    dict mapping each output to its Entry. A table read from a file
    (``import_table``) holds its segments unparsed; a lookup parses the
    segment of ``len(x)`` on first use, and a whole-table read (``entries``,
    ``sorted_outputs``, ``kraft_sum``, ``len``, ``==``, export) parses them
    all. ``entries`` makes a dict of every output's Entry on each call."""

    def __init__(
        self,
        L: int,
        budgets: Budgets,
        cond_fingerprint: str,
        entries: dict[str, Sequence],
        hist: list[int],
        cond_serial: str | None = None,
        machine_version: str = MACHINE_VERSION,
    ):
        self.machine_version = machine_version
        self.L = L
        self.budgets = budgets
        self.cond_fingerprint = cond_fingerprint
        self.cond_serial = cond_serial
        self._hist = hist
        # Output length -> segment, or (start, end, records, mass) of its
        # records in _text, the inflated body, until it is parsed, or the
        # error its parse raised; _text is dropped once the last unparsed
        # segment is read out of it.
        # _segments empties what it is given, so it takes a copy here.
        self._segs: dict[int, _Sparse | _Dense | tuple | TableFormatError] = _segments(
            dict(entries)
        )
        self._text = b""

    def _segment(self, n: int) -> _Sparse | _Dense:
        seg = self._segs.get(n, _NO_SEGMENT)
        if type(seg) is TableFormatError:
            raise seg
        if type(seg) is tuple:
            start, end, count, mass = seg
            text = _segment_text(self._text, start, end)
            if list(map(type, self._segs.values())).count(tuple) == 1:
                # the last segment to parse: the body is not read again, and
                # is let go before the records are made
                self._text = b""
            try:
                with _gc_paused():
                    seg = self._segs[n] = _parse_segment(text, n, self.L, count, mass)
            except TableFormatError as exc:
                self._segs[n] = exc  # read again, the segment fails again
                raise
        return seg

    def _all(self) -> dict[int, _Sparse | _Dense]:
        return {n: self._segment(n) for n in self._segs}

    @property
    def entries(self) -> dict[str, Entry]:
        return dict(itertools.chain.from_iterable(seg.items() for seg in self._all().values()))

    # -- lookups ---------------------------------------------------------

    def k_of(self, x: str) -> int | None:
        e = self._segment(len(x)).get(x)
        return e.k if e is not None else None

    def ks_of(self, xs: Sequence[str]) -> list[int | None]:
        """``[self.k_of(x) for x in xs]``, reading each run of strings of
        one length from its segment in bulk."""
        runs = itertools.groupby(xs, len)
        return list(itertools.chain.from_iterable(self._segment(n).ks(list(run)) for n, run in runs))

    def witness_of(self, x: str) -> str | None:
        e = self._segment(len(x)).get(x)
        return e.witness if e is not None else None

    def m_of(self, x: str) -> Fraction:
        # fractions (and the decimal module it imports) loads with the
        # first Fraction made, not with every command that reads a table.
        from fractions import Fraction

        e = self._segment(len(x)).get(x)
        return Fraction(e.m_num, 1 << self.L) if e is not None else Fraction(0)

    def __contains__(self, x: str) -> bool:
        return x in self._segment(len(x))

    def __len__(self) -> int:
        return sum(map(len, self._all().values()))

    def sorted_outputs(self) -> list[str]:
        """Every output, in (length, lex) order."""
        return list(itertools.chain.from_iterable(map(sorted, self._all().values())))

    # -- aggregates ------------------------------------------------------

    def kraft_sum(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(sum(seg.masses) for seg in self._all().values()), 1 << self.L)

    def count_by_length(self) -> list[int]:
        """Halting programs per length, indexed 0..L."""
        return list(self._hist)

    def halting_count(self) -> int:
        return sum(self._hist)

    # -- identity --------------------------------------------------------

    def _identity(self):
        return (
            self.machine_version,
            self.L,
            self.budgets,
            self.cond_fingerprint,
            self._hist,
            self._all(),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexityTable):
            return NotImplemented
        return self._identity() == other._identity()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ComplexityTable(L={self.L}, cond={self.cond_fingerprint[:12]})"


# -- building --------------------------------------------------------------


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Disable the cyclic garbage collector, then restore the state found.

    Tables are large acyclic containers; building one triggers collections
    that walk every object made so far and free none of them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def build_table(
    L: int,
    cond: Condition | None = None,
    budgets: Budgets | None = None,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> ComplexityTable:
    """Enumerate all halting programs of length <= L and tabulate them."""
    if L < 3:
        raise ValueError("L must be at least 3 (HALT alone is 3 bits)")
    cond = cond if cond is not None else Condition.none()
    budgets = budgets if budgets is not None else Budgets()
    with _gc_paused():
        found, hist = _pykernel.walk(*_pykernel.walk_args(L, cond, budgets))
        if len(found) > entry_cap:
            raise EntryCapExceeded(f"{len(found)} outputs exceeds entry cap {entry_cap}")
        table = ComplexityTable(L, budgets, cond.fingerprint(), {}, hist, cond_serial=cond.serial())
        table._segs = _segments(found)
    if table.kraft_sum() > 1:
        raise TableError("internal error: Kraft sum exceeds 1")
    return table


# -- persistence ------------------------------------------------------------
#
# A table file (format 4) is nine ASCII header lines, then the body: the
# records, stored as one zlib stream.
#
#     machine tpm1-v1
#     L 16
#     T 100000
#     O 4096
#     condition <fingerprint>
#     format 4
#     hist <halting programs of length 0> ... <of length L>
#     index <n>,<records>,<bytes>,<mass> ...    one entry per output length n
#     sha256 <hex digest of the file without this line>
#
# The digest seals the stored bytes: the header lines before it and the
# compressed body. Inflated, the body holds one ASCII record per output, in
# (length, lex) order; K is the witness's length. The records of one output
# length are one contiguous segment, whose record count, inflated byte count
# and mass numerator over 2^L the index gives, and no index length exceeds
# O. A record is ``output witness m_num/2^exp``, '-' standing for the empty
# output, except in a dense segment: one of output length n >= 1 that holds
# 2^n records. Its outputs are then every n-bit string, so record i is
# ``witness m_num/2^exp`` for the output format(i, f"0{n}b").
#
# The compression level is fixed, so an export is byte-identical across runs
# with one zlib build; another build may compress differently, and any
# reader accepts any sealed file.

TABLE_FORMAT = 4
# Stored bytes inflated per call. Each call's output, a few times as many
# bytes, is a small transient beside the body it is appended to; one call
# for the whole body would hold it twice, as zlib joins its output blocks.
_INFLATE_PIECE = 1 << 12
_HEADER_LINES = 9


def _dense(n: int, count: int) -> bool:
    """Whether the segment of output length n with ``count`` records holds
    every n-bit string, without computing 2^n from an unchecked n."""
    return n > 0 and count.bit_length() == n + 1 and not count & (count - 1)


def _dyadic_text(m_num: int, L: int) -> str:
    tz = (m_num & -m_num).bit_length() - 1
    return f"{m_num >> tz}/2^{L - tz}"


def export_table(table: ComplexityTable, path: str | Path) -> None:
    """Write the format-4 file: the header, then the records, fed a segment
    at a time through one zlib stream, so that only the stream is held
    whole. Byte-identical across runs with one zlib build."""
    L = table.L
    segs = table._all()
    # A table has a few hundred distinct masses; witnesses are never empty (K >= 3).
    masses = set(itertools.chain.from_iterable(seg.masses for seg in segs.values()))
    mass_text = {m: _dyadic_text(m, L) for m in masses}
    deflate = zlib.compressobj(zlib.Z_BEST_SPEED)
    body = []
    index = []
    for n, seg in segs.items():
        if type(seg) is _Dense:
            lines = [f"{w} {mass_text[m]}\n" for w, m in zip(seg.wits, seg.masses)]
        else:
            lines = [
                f"{bits_to_text(x)} {e.witness} {mass_text[e.m_num]}\n"
                for x, e in sorted(seg.items())
            ]
        segment = "".join(lines).encode("ascii")
        del lines
        body.append(deflate.compress(segment))
        index.append(f"{n},{len(seg)},{len(segment)},{sum(seg.masses)}")
    body.append(deflate.flush())
    header = "".join(
        line + "\n"
        for line in [
            f"machine {table.machine_version}",
            f"L {L}",
            f"T {table.budgets.max_steps}",
            f"O {table.budgets.max_output}",
            f"condition {table.cond_fingerprint}",
            f"format {TABLE_FORMAT}",
            " ".join(["hist", *map(str, table.count_by_length())]),
            " ".join(["index", *index]),
        ]
    ).encode("ascii")
    digest = sha256(header)
    for chunk in body:
        digest.update(chunk)
    with open(path, "wb") as f:
        f.write(header)
        f.write(f"sha256 {digest.hexdigest()}\n".encode("ascii"))
        f.writelines(body)


def _header_int(line: str, key: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise TableFormatError(f"expected '{key} <value>' header line, got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise TableFormatError(f"non-integer {key} header: {line!r}") from None


def _header_naturals(line: str, key: str, sep: str | None = None) -> list[list[int]]:
    """The fields after ``key`` on a header line, each split at ``sep`` into
    non-negative integers."""
    parts = line.split()
    if not parts or parts[0] != key:
        raise TableFormatError(f"expected '{key} ...' header line, got {line[:80]!r}")
    fields = [field.split(sep) for field in parts[1:]]
    if not all(t.isdigit() for field in fields for t in field):
        raise TableFormatError(f"malformed {key} header: {line[:80]!r}")
    try:
        return [[int(t) for t in field] for field in fields]
    except ValueError:  # more digits than int() converts
        raise TableFormatError(f"number too long in the {key} header") from None


# The first newline of a segment that is neither its last nor followed by a
# whole record and a newline: a record is its output, witness and m =
# num/2^exp, single-space separated, with '-' for the empty output; in a
# dense segment it is the witness and m alone. A miss proves every record of
# the segment well formed in one C-level pass; _parse_segment checks the
# output lengths apart.
_BAD_DENSE = re.compile(r"\n(?![01]+ [0-9]+/2\^[0-9]+\n|\Z)")
_BAD_SPARSE = re.compile(r"\n(?![01]+ [01]+ [0-9]+/2\^[0-9]+\n|\Z)")
_BAD_EMPTY = re.compile(r"\n(?!- [01]+ [0-9]+/2\^[0-9]+\n|\Z)")
# A record of any output length: tells a record in the wrong segment from a
# malformed one.
_RECORD = re.compile(r"(?:[01]+|-) [01]+ [0-9]+/2\^[0-9]+")


def _by_distinct(column: list[str], convert: Callable[[str], int]) -> list[int]:
    """``[convert(t) for t in column]``, calling ``convert`` once per distinct
    token: a table has a few hundred masses."""
    value = {t: convert(t) for t in set(column)}
    return list(map(value.__getitem__, column))


def _mass_num(text: str, L: int) -> int:
    """m over 2**L from a well-formed ``num/2^exp`` token."""
    num_text, _, exp_text = text.partition("/2^")
    num, exp = int(num_text), int(exp_text)
    if exp > L or num < 1:
        raise TableFormatError(f"mass out of range: {text!r}")
    return num << (L - exp)


def _segment_text(body: bytes, start: int, end: int) -> str:
    """``body[start:end]`` of an ASCII body as text, after the newline before
    it ('\\n' for the first segment), which the record patterns read."""
    with memoryview(body) as view:
        return str(view[start - 1 : end], "ascii") if start else "\n" + str(view[:end], "ascii")


def _parse_segment(text: str, n: int, L: int, count: int, mass: int) -> _Sparse | _Dense:
    """The segment of output length ``n``, given as ``_segment_text`` gives
    it, checked against its index entry: ``count`` records whose masses sum
    to ``mass`` over 2**L."""
    if not (text.startswith("\n") and text.endswith("\n")):
        raise TableFormatError(f"segment of output length {n} does not hold whole records")
    disagrees = f"segment of output length {n} disagrees with its index entry"
    if text.count("\n") != count + 1:
        raise TableFormatError(disagrees)
    dense = _dense(n, count)
    bad = (_BAD_DENSE if dense else _BAD_SPARSE if n else _BAD_EMPTY).search(text)
    if bad is not None:
        line = text[bad.end() : text.find("\n", bad.end())]
        if not dense and _RECORD.fullmatch(line):
            raise TableFormatError(f"record {line!r} in the segment of output length {n}")
        raise TableFormatError(f"malformed record: {line!r}")
    tokens = text.split()
    outs = [] if dense else tokens[0::3] if n else [""] * count
    if not set(map(len, outs)) <= {n}:
        i = next(i for i, x in enumerate(outs) if len(x) != n)
        line = " ".join(tokens[3 * i : 3 * i + 3])
        raise TableFormatError(f"record {line!r} in the segment of output length {n}")
    width = 2 if dense else 3  # fields per record, the last two its witness and mass
    wits = tokens[width - 2 :: width]
    try:
        m_nums = _by_distinct(tokens[width - 1 :: width], lambda t: _mass_num(t, L))
    except ValueError:  # more digits than int() converts
        raise TableFormatError("number too long in a record") from None
    del tokens
    if sum(m_nums) != mass:
        raise TableFormatError(disagrees)
    if dense:
        return _Dense(wits, m_nums)
    # tuple.__new__ makes each Entry in C, as Entry._make does without a
    # Python call per record.
    made = map(tuple.__new__, itertools.repeat(Entry), zip(map(len, wits), wits, m_nums))
    segment = _Sparse(zip(outs, made))
    if len(segment) != count:
        raise TableFormatError("duplicate output in table file")
    return segment


def import_table(path: str | Path) -> ComplexityTable:
    """Open a format-4 table file.

    Checked here, on the stored bytes: the header is ASCII text; the machine
    version, L, budgets, condition and format lines; the index lengths
    increase and none exceeds O; the SHA-256 of the header lines before it
    and the compressed body against the header's; and the index masses sum
    to at most 2^L and to the Kraft mass of the length histogram. Only then
    is the body inflated, to at most one byte more than the index's byte
    counts add up to: it must be one whole zlib stream, with nothing after
    it, of exactly that many ASCII bytes. The records are parsed a segment
    at a time, when first read (see ComplexityTable): a segment with a
    malformed record, a mass out of range, an output not of the segment's
    length, a repeated output, or a record count or mass sum other than its
    index entry's raises TableFormatError then."""
    data = Path(path).read_bytes()
    start = 0
    for _ in range(_HEADER_LINES):
        start = data.find(b"\n", start) + 1
        if not start:
            raise TableFormatError("truncated table file: incomplete header")
    try:
        lines = data[:start].decode("ascii").split("\n")
    except UnicodeDecodeError:
        raise TableFormatError(f"table file header is not ASCII text: {path}") from None
    # The digest covers every byte of the file but its own line.
    stored = memoryview(data)[start:]
    sealed = sha256(memoryview(data)[: start - len(lines[8]) - 1])
    sealed.update(stored)
    digest = sealed.hexdigest()

    mparts = lines[0].split()
    if len(mparts) != 2 or mparts[0] != "machine":
        raise TableFormatError(f"expected 'machine <version>' header line, got {lines[0]!r}")
    if mparts[1] != MACHINE_VERSION:
        raise TableVersionError(f"table written by {mparts[1]!r}, this build is {MACHINE_VERSION!r}")
    L = _header_int(lines[1], "L")
    T = _header_int(lines[2], "T")
    O = _header_int(lines[3], "O")
    try:
        budgets = Budgets(T, O)
    except ValueError as exc:
        raise TableFormatError(f"table header budgets: {exc}") from None
    cparts = lines[4].split()
    if len(cparts) != 2 or cparts[0] != "condition":
        raise TableFormatError(f"expected 'condition <fingerprint>' header line, got {lines[4]!r}")
    fingerprint = cparts[1]
    if lines[5] != f"format {TABLE_FORMAT}":
        raise TableFormatError(
            f"expected 'format {TABLE_FORMAT}' header line, got {lines[5][:80]!r}"
        )
    hist = [h for (h,) in _header_naturals(lines[6], "hist")]
    if L < 0 or len(hist) != L + 1:
        raise TableFormatError(f"expected {L + 1} histogram counts, got {len(hist)}")
    index = _header_naturals(lines[7], "index", ",")
    if any(len(entry) != 4 for entry in index):
        raise TableFormatError("malformed index header: an entry is not n,records,bytes,mass")
    if any(a[0] >= b[0] for a, b in itertools.pairwise(index)):
        raise TableFormatError("index output lengths are not strictly increasing")
    if index and index[-1][0] > O:
        raise TableFormatError(f"index output length {index[-1][0]} exceeds the output budget O={O}")
    if lines[8] != f"sha256 {digest}":
        raise TableFormatError("table file does not match the sha256 digest in its header")
    total = sum(entry[3] for entry in index)
    if total > 1 << L:
        raise TableFormatError("corrupt table: Kraft sum exceeds 1")
    if total != sum(h << (L - l) for l, h in enumerate(hist)):
        raise TableFormatError("index masses disagree with the length histogram")

    bounds = list(itertools.accumulate([entry[2] for entry in index], initial=0))
    size = bounds[-1]
    # Inflated a piece at a time into one buffer, never past one byte more
    # than the index counts; a segment becomes text only when it is parsed.
    body = bytearray()
    inflate = zlib.decompressobj()
    try:
        for i in range(0, len(stored), _INFLATE_PIECE):
            left = min(size + 1 - len(body), sys.maxsize)
            body += inflate.decompress(stored[i : i + _INFLATE_PIECE], left)
            if len(body) > size:
                break
    except zlib.error as exc:
        raise TableFormatError(f"table body is not a zlib stream: {exc}") from None
    del stored, data
    if len(body) <= size and not inflate.eof:
        raise TableFormatError("truncated table body: its zlib stream does not end")
    if len(body) != size:
        raise TableFormatError("index byte counts do not add up to the body length")
    if inflate.unused_data:
        raise TableFormatError("bytes after the end of the table body's zlib stream")
    if not body.isascii():
        raise TableFormatError(f"table body is not ASCII text: {path}")

    if body and not body.endswith(b"\n"):  # read a last record without its newline as if it had one
        body += b"\n"
        bounds[-1] += 1
    table = ComplexityTable(L, budgets, fingerprint, {}, hist)
    table._text = body
    table._segs = {
        n: (a, b, count, m) for (n, count, _, m), a, b in zip(index, bounds, bounds[1:])
    }
    return table
