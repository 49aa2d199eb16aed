"""Exhaustive enumeration of halting programs and exact complexity tables.

A ComplexityTable records, for every output producible by a halting
program of length <= L under a fixed condition and budgets: the exact
complexity K (shortest program length), the canonical witness (first
shortest program in length-then-lexicographic order) and the exact dyadic
mass m = sum 2^{-l(p)} over programs producing that output, and one
histogram of its halting programs by length.

Each build is one serial walk of the machine's states (see
``_pykernel``), never of raw bit strings; ``enumerate_halting`` lists the
programs through a traversal of the opcode decode tree.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import itertools
import re
from contextlib import contextmanager
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import _pykernel
from .bits import EMPTY_MARKER, bits_to_text
from .kernel import walk_args
from .machine import MACHINE_VERSION, Budgets, Condition

DEFAULT_MAX_LEN = 24
# The fixed cap of one-string readers under a condition: `k --cond`,
# `enumerate --cond` and `complexity.k_cond`.
DEFAULT_COND_MAX_LEN = 22
# The fixed cap of the unconditional level table that `sk`, `xr` and the
# `laws` level audits read whole.
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


class ComplexityTable:
    """Immutable result of one exhaustive enumeration.

    ``entries`` maps each output to its Entry. A table read from a file
    (``import_table``) holds its records unparsed, one segment per output
    length; a lookup parses the segment of ``len(x)`` on first use, and
    ``entries`` and everything built on it parse them all."""

    def __init__(
        self,
        L: int,
        budgets: Budgets,
        cond_fingerprint: str,
        entries: dict[str, Entry] | _Segments,
        hist: list[int],
        cond_serial: str | None = None,
        machine_version: str = MACHINE_VERSION,
    ):
        self.machine_version = machine_version
        self.L = L
        self.budgets = budgets
        self.cond_fingerprint = cond_fingerprint
        self.cond_serial = cond_serial
        self._entries = entries
        self._hist = hist
        self._sorted: list[str] | None = None

    @property
    def entries(self) -> dict[str, Entry]:
        if isinstance(self._entries, _Segments):
            self._entries = self._entries.parse_all()
        return self._entries

    # -- lookups ---------------------------------------------------------

    def k_of(self, x: str) -> int | None:
        e = self._entries.get(x)
        return e.k if e is not None else None

    def ks_of(self, xs: Sequence[str]) -> list[int | None]:
        """``[self.k_of(x) for x in xs]``, reading the segment of each
        output length once."""
        entries = self._entries
        if isinstance(entries, _Segments):
            segments = {n: entries.segment(n) for n in set(map(len, xs))}
            found = [segments[len(x)].get(x) for x in xs]
        else:
            found = list(map(entries.get, xs))
        return [None if e is None else e[0] for e in found]

    def witness_of(self, x: str) -> str | None:
        e = self._entries.get(x)
        return e.witness if e is not None else None

    def m_of(self, x: str) -> Fraction:
        e = self._entries.get(x)
        return Fraction(e.m_num, 1 << self.L) if e is not None else Fraction(0)

    def __contains__(self, x: str) -> bool:
        return x in self._entries

    def __len__(self) -> int:
        return len(self.entries)

    def sorted_outputs(self) -> list[str]:
        if self._sorted is None:
            # Stable by length over the lexicographic order: (length, lex) order,
            # in two C-level sorts.
            self._sorted = sorted(sorted(self.entries), key=len)
        return self._sorted

    # -- aggregates ------------------------------------------------------

    def kraft_sum(self) -> Fraction:
        return Fraction(sum(e.m_num for e in self.entries.values()), 1 << self.L)

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
            self.entries,
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
        found, hist = _pykernel.walk(*walk_args(L, cond, budgets))
        if len(found) > entry_cap:
            raise EntryCapExceeded(f"{len(found)} outputs exceeds entry cap {entry_cap}")
        # Each [K, witness, m_num] list becomes an Entry in C (see _parse_segment).
        entries = dict(zip(found, map(tuple.__new__, itertools.repeat(Entry), found.values())))
    table = ComplexityTable(
        L, budgets, cond.fingerprint(), entries, hist, cond_serial=cond.serial()
    )
    if table.kraft_sum() > 1:
        raise TableError("internal error: Kraft sum exceeds 1")
    return table


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
    _pykernel.traverse(*walk_args(L, cond, budgets), lambda *found: programs.append(found))
    programs.sort(key=lambda t: (len(t[0]), t[0]))
    yield from programs


def find_prefix_violation(programs: Iterable[str]) -> tuple[str, str] | None:
    """Return a (shorter, longer) halting-program pair violating
    prefix-freeness, or None. Adjacent comparison after a lexicographic
    sort suffices: if a is a proper prefix of c then a is a prefix of its
    immediate successor too."""
    ordered = sorted(programs)
    for a, b in itertools.pairwise(ordered):
        if len(a) < len(b) and b.startswith(a):
            return a, b
    return None


# -- persistence ------------------------------------------------------------
#
# A table file (format 3) is ASCII text: nine header lines, then the body.
#
#     machine tpm1-v1
#     L 16
#     T 100000
#     O 4096
#     condition <fingerprint>
#     format 3
#     hist <halting programs of length 0> ... <of length L>
#     index <n>,<records>,<bytes>,<mass> ...    one entry per output length n
#     sha256 <hex digest of the file without this line>
#
# The body holds one record per output, in (length, lex) order; K is the
# witness's length. The records of one output length are one contiguous
# segment, whose record count, byte count and mass numerator over 2^L the
# index gives, and no index length exceeds O. A record is
# ``output witness m_num/2^exp``, '-' standing for the empty output, except
# in a dense segment: one of output length n >= 1 that holds 2^n records.
# Its outputs are then every n-bit string, so record i is
# ``witness m_num/2^exp`` for the output format(i, f"0{n}b").

TABLE_FORMAT = 3
_HEADER_LINES = 9


def _dense(n: int, count: int) -> bool:
    """Whether the segment of output length n with ``count`` records holds
    every n-bit string, without computing 2^n from an unchecked n."""
    return n > 0 and count.bit_length() == n + 1 and not count & (count - 1)


@functools.cache
def _n_bit_strings(n: int) -> tuple[str, ...]:
    """Every n-bit string in lex order: the outputs of a dense segment,
    made once per process, so that every parsed dense segment of length n
    shares its keys."""
    return tuple(map("".join, itertools.product("01", repeat=n)))


def _dyadic_text(m_num: int, L: int) -> str:
    tz = (m_num & -m_num).bit_length() - 1
    return f"{m_num >> tz}/2^{L - tz}"


def export_table(table: ComplexityTable, path: str | Path) -> None:
    """Write the format-3 text form. Deterministic byte-for-byte."""
    L = table.L
    entries = table.entries
    outs = table.sorted_outputs()
    records = list(map(entries.__getitem__, outs))
    # A table has a few hundred distinct masses; witnesses are never empty (K >= 3).
    mass_text = {m: _dyadic_text(m, L) for m in set(map(itemgetter(2), records))}
    segments = []
    index = []
    start = 0
    # One segment per run of equal output lengths in the (length, lex) order.
    while start < len(outs):
        n = len(outs[start])
        end = bisect.bisect_right(outs, n, start, key=len)
        run = records[start:end]
        if _dense(n, end - start):
            lines = [f"{e.witness} {mass_text[e.m_num]}\n" for e in run]
        else:
            lines = [
                f"{bits_to_text(x)} {e.witness} {mass_text[e.m_num]}\n"
                for x, e in zip(outs[start:end], run)
            ]
        segments.append("".join(lines).encode("ascii"))
        index.append(f"{n},{end - start},{len(segments[-1])},{sum(map(itemgetter(2), run))}")
        start = end
    del records
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
    digest = hashlib.sha256(header)
    for segment in segments:
        digest.update(segment)
    with open(path, "wb") as f:
        f.write(header)
        f.write(f"sha256 {digest.hexdigest()}\n".encode("ascii"))
        f.writelines(segments)


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


def _bad_record(n: int, dense: bool) -> re.Pattern[str]:
    """A record of the segment of output length n is its output, witness and
    m = num/2^exp, single-space separated, with '-' for the empty output; in
    a dense segment it is the witness and m alone. The pattern finds the
    first newline that is neither the segment's last nor followed by a whole
    record and a newline, so a miss proves every record of the segment well
    formed, and of length n, in one C-level pass."""
    if dense:
        output = ""
    elif n == 0:
        output = EMPTY_MARKER + " "
    else:
        output = f"[01]{{{n}}} "
    return re.compile(rf"\n(?!{output}[01]+ [0-9]+/2\^[0-9]+\n|\Z)")


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


def _parse_segment(
    text: str, n: int, L: int, start: int, end: int, count: int, mass: int
) -> dict[str, Entry]:
    """The records of output length ``n``, ``text[start:end]``, checked
    against their index entry: ``count`` records whose masses sum to
    ``mass`` over 2**L. A dense segment (see the format above) takes its
    outputs from ``_n_bit_strings``, once its records are counted and
    weighed."""
    if text[start - 1] != "\n" or text[end - 1] != "\n":
        raise TableFormatError(f"segment of output length {n} does not hold whole records")
    disagrees = f"segment of output length {n} disagrees with its index entry"
    if text.count("\n", start, end) != count:
        raise TableFormatError(disagrees)
    dense = _dense(n, count)
    bad = _bad_record(n, dense).search(text, start - 1, end)
    if bad is not None:
        line = text[bad.end() : text.find("\n", bad.end(), end)]
        if not dense and _RECORD.fullmatch(line):
            raise TableFormatError(f"record {line!r} in the segment of output length {n}")
        raise TableFormatError(f"malformed record: {line!r}")
    tokens = text[start:end].split()
    width = 2 if dense else 3  # fields per record, the last two its witness and mass
    wits = tokens[width - 2 :: width]
    try:
        m_nums = _by_distinct(tokens[width - 1 :: width], lambda t: _mass_num(t, L))
    except ValueError:  # more digits than int() converts
        raise TableFormatError("number too long in a record") from None
    if sum(m_nums) != mass:
        raise TableFormatError(disagrees)
    if dense:
        outs = _n_bit_strings(n)
    elif n == 0:
        outs = [""] * count
    else:
        outs = tokens[0::3]
    del tokens
    # tuple.__new__ makes each Entry in C, as Entry._make does without a
    # Python call per record.
    made = map(tuple.__new__, itertools.repeat(Entry), zip(map(len, wits), wits, m_nums))
    segment = dict(zip(outs, made))
    if len(segment) != count:
        raise TableFormatError("duplicate output in table file")
    return segment


class _Segments:
    """The unparsed records of a table file, parsed one output length at a
    time: a lookup reads the segment of its own length only."""

    def __init__(self, text: str, L: int, index: dict[int, tuple[int, int, int, int]]):
        self._text = text
        self._L = L
        self._index = index  # n -> (start, end, records, mass)
        self._parsed: dict[int, dict[str, Entry]] = {}

    def segment(self, n: int) -> dict[str, Entry]:
        seg = self._parsed.get(n)
        if seg is None:
            if n not in self._index:
                return {}
            with _gc_paused():
                seg = _parse_segment(self._text, n, self._L, *self._index[n])
            self._parsed[n] = seg
        return seg

    def get(self, x: str) -> Entry | None:
        return self.segment(len(x)).get(x)

    def __contains__(self, x: str) -> bool:
        return x in self.segment(len(x))

    def parse_all(self) -> dict[str, Entry]:
        entries: dict[str, Entry] = {}
        for n in self._index:
            entries.update(self.segment(n))
            del self._parsed[n]
        return entries


def import_table(path: str | Path) -> ComplexityTable:
    """Open a format-3 table file.

    Checked here: the file is ASCII text; the machine version, L, budgets,
    condition and format lines; the index lengths increase and none exceeds
    O; the SHA-256 of the header lines before it and the body against the
    header's; the index's byte counts add up to the body's length; and its
    masses sum to at most 2^L and to the Kraft mass of the length histogram.
    The records are parsed a segment at a time, when first read (see
    ComplexityTable): a segment with a malformed record, a mass out of
    range, an output not of the segment's length, a repeated output, or a
    record count or mass sum other than its index entry's raises
    TableFormatError then."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise TableFormatError(f"table file is not ASCII text: {path}") from None
    start = 0
    for _ in range(_HEADER_LINES):
        start = text.find("\n", start) + 1
        if not start:
            raise TableFormatError("truncated table file: incomplete header")
    # The digest covers every byte of the file but its own line.
    sealed = hashlib.sha256(memoryview(data)[: text.rfind("\n", 0, start - 1) + 1])
    sealed.update(memoryview(data)[start:])
    digest = sealed.hexdigest()
    del data
    lines = text[:start].split("\n")

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
    bounds = list(itertools.accumulate([entry[2] for entry in index], initial=start))
    if bounds[-1] != len(text):
        raise TableFormatError("index byte counts do not add up to the body length")
    total = sum(entry[3] for entry in index)
    if total > 1 << L:
        raise TableFormatError("corrupt table: Kraft sum exceeds 1")
    if total != sum(h << (L - l) for l, h in enumerate(hist)):
        raise TableFormatError("index masses disagree with the length histogram")

    if not text.endswith("\n"):  # read a last record without its newline as if it had one
        text += "\n"
        bounds[-1] += 1
    segments = {
        n: (a, b, count, m) for (n, count, _, m), a, b in zip(index, bounds, bounds[1:])
    }
    return ComplexityTable(L, budgets, fingerprint, _Segments(text, L, segments), hist)
