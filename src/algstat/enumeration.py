"""Exhaustive enumeration of halting programs and exact complexity tables.

A ComplexityTable records, for every output producible by a halting
program of length <= L under a fixed condition and budgets: the exact
complexity K (shortest program length), the canonical witness (first
shortest program in length-then-lexicographic order) and the exact dyadic
mass m = sum 2^{-l(p)} over programs producing that output. A built table
also keeps one histogram of its halting programs by length.

Each build is one serial walk of the opcode decode tree from its root,
never of raw bit strings; ``enumerate_halting`` lists the programs through
the same traversal. Independent tables can be built side by side (see
``cache.TableSource.tables``); a single table is never split.
"""

from __future__ import annotations

import gc
import itertools
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import _pykernel
from .bits import EMPTY_MARKER, bits_to_text
from .kernel import walk_args
from .machine import MACHINE_VERSION, Budgets, Condition

DEFAULT_MAX_LEN = 24
DEFAULT_COND_MAX_LEN = 22
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
    """Immutable result of one exhaustive enumeration."""

    def __init__(
        self,
        L: int,
        budgets: Budgets,
        cond_fingerprint: str,
        entries: dict[str, Entry],
        cond_serial: str | None = None,
        machine_version: str = MACHINE_VERSION,
        hist: list[int] | None = None,
    ):
        self.machine_version = machine_version
        self.L = L
        self.budgets = budgets
        self.cond_fingerprint = cond_fingerprint
        self.cond_serial = cond_serial
        self.entries = entries
        self._hist = hist
        self._sorted: list[str] | None = None

    # -- lookups ---------------------------------------------------------

    def k_of(self, x: str) -> int | None:
        e = self.entries.get(x)
        return e.k if e is not None else None

    def witness_of(self, x: str) -> str | None:
        e = self.entries.get(x)
        return e.witness if e is not None else None

    def m_of(self, x: str) -> Fraction:
        e = self.entries.get(x)
        return Fraction(e.m_num, 1 << self.L) if e is not None else Fraction(0)

    def __contains__(self, x: str) -> bool:
        return x in self.entries

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

    def count_by_length(self) -> list[int] | None:
        """Halting programs per length, indexed 0..L, or None for an imported
        table: the file does not store the histogram, so equality ignores it."""
        return list(self._hist) if self._hist is not None else None

    def halting_count(self) -> int | None:
        return sum(self._hist) if self._hist is not None else None

    # -- identity --------------------------------------------------------

    def _identity(self):
        return (self.machine_version, self.L, self.budgets, self.cond_fingerprint, self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexityTable):
            return NotImplemented
        return self._identity() == other._identity()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ComplexityTable(L={self.L}, outputs={len(self.entries)}, "
            f"cond={self.cond_fingerprint[:12]})"
        )


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
    walked: Callable[[], tuple[dict[str, list], list[int]]] | None = None,
) -> ComplexityTable:
    """Enumerate all halting programs of length <= L and tabulate them.

    ``walked``, when given, returns the result of the kernel walk for
    these arguments, ``_pykernel.walk(*walk_args(L, cond, budgets))``,
    run elsewhere (``cache.TableSource.tables`` runs the walks of many
    tables in a process pool).
    """
    if L < 3:
        raise ValueError("L must be at least 3 (HALT alone is 3 bits)")
    cond = cond if cond is not None else Condition.none()
    budgets = budgets if budgets is not None else Budgets()
    with _gc_paused():
        if walked is None:
            found, hist = _pykernel.walk(*walk_args(L, cond, budgets))
        else:
            found, hist = walked()
        if len(found) > entry_cap:
            raise EntryCapExceeded(f"{len(found)} outputs exceeds entry cap {entry_cap}")
        entries = {out: Entry(e[0], e[1], e[2]) for out, e in found.items()}
    table = ComplexityTable(
        L, budgets, cond.fingerprint(), entries, cond_serial=cond.serial(), hist=hist
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


def _dyadic_text(m_num: int, L: int) -> str:
    tz = (m_num & -m_num).bit_length() - 1
    return f"{m_num >> tz}/2^{L - tz}"


def export_table(table: ComplexityTable, path: str | Path) -> None:
    """Write the line-oriented text form. Deterministic byte-for-byte."""
    lines = [
        f"machine {table.machine_version}",
        f"L {table.L}",
        f"T {table.budgets.max_steps}",
        f"O {table.budgets.max_output}",
        f"condition {table.cond_fingerprint}",
    ]
    entries = table.entries
    # A table has a few hundred distinct masses; witnesses are never empty (K >= 3).
    mass_text = {m: _dyadic_text(m, table.L) for m in {e.m_num for e in entries.values()}}
    for out in table.sorted_outputs():
        k, witness, m_num = entries[out]
        lines.append(f"{bits_to_text(out)} {k} {witness} {mass_text[m_num]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _header_int(line: str, key: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise TableFormatError(f"expected '{key} <value>' header line, got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise TableFormatError(f"non-integer {key} header: {line!r}") from None


# One record: output, K, witness and m = num/2^exp, single-space separated,
# with '-' for an empty string. The search finds the first newline that is
# neither the body's last nor followed by a whole record and a newline, so a
# miss proves every record of a block well formed in one C-level pass.
_BAD_RECORD = re.compile(r"\n(?!(?:[01]+|-) [0-9]+ (?:[01]+|-) [0-9]+/2\^[0-9]+\n|\Z)")

# Records are parsed in blocks of about this many characters, so the
# temporary token strings of one block are all the import holds besides the
# table it builds.
_IMPORT_BLOCK_CHARS = 1 << 20


def _empty_dashes(column: list[str]) -> None:
    """Replace each '-' token in place by the empty string it stands for."""
    i = -1
    try:
        while True:
            i = column.index(EMPTY_MARKER, i + 1)
            column[i] = ""
    except ValueError:
        pass


def _by_distinct(column: list[str], convert: Callable[[str], int]) -> list[int]:
    """``[convert(t) for t in column]``, calling ``convert`` once per distinct
    token: a table has a few dozen K values and a few hundred masses."""
    value = {t: convert(t) for t in set(column)}
    return list(map(value.__getitem__, column))


def _mass_num(text: str, L: int) -> int:
    """m over 2**L from a well-formed ``num/2^exp`` token."""
    num_text, _, exp_text = text.partition("/2^")
    num, exp = int(num_text), int(exp_text)
    if exp > L or num < 1:
        raise TableFormatError(f"mass out of range: {text!r}")
    return num << (L - exp)


def _parse_block(text: str, start: int, end: int, L: int, entries: dict[str, Entry]) -> int:
    """Add the records of text[start:end] to ``entries``; return their count.

    ``text[start - 1]`` is the newline ending the line before the block, and
    ``text[end - 1]`` the newline ending its last record."""
    bad = _BAD_RECORD.search(text, start - 1, end)
    if bad is not None:
        line_end = text.find("\n", bad.end(), end)
        raise TableFormatError(f"malformed record: {text[bad.end() : line_end]!r}")
    tokens = text[start:end].split()
    outs, wits = tokens[0::4], tokens[2::4]
    try:
        ks = _by_distinct(tokens[1::4], int)
        m_nums = _by_distinct(tokens[3::4], lambda t: _mass_num(t, L))
    except ValueError:  # more digits than int() converts
        raise TableFormatError("number too long in a record") from None
    del tokens
    _empty_dashes(outs)
    _empty_dashes(wits)
    if list(map(len, wits)) != ks:
        x = next(x for x, w, k in zip(outs, wits, ks) if len(w) != k)
        raise TableFormatError(f"witness length disagrees with K for output {bits_to_text(x)!r}")
    # tuple.__new__ makes each Entry in C, as Entry._make does without a
    # Python call per record.
    made = map(tuple.__new__, itertools.repeat(Entry), zip(ks, wits, m_nums))
    entries.update(zip(outs, made))
    return len(outs)


def import_table(path: str | Path) -> ComplexityTable:
    """Parse a table file; validates version, caps, every record and the
    Kraft bound.

    The records are checked and converted in blocks, a column at a time; a
    file with any malformed record, non-positive or out-of-range mass,
    witness whose length is not K, or repeated output is rejected, as is
    one that is not ASCII text. An imported table has no length histogram
    (the file format stores only output, K, witness and m)."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise TableFormatError(f"table file is not ASCII text: {path}") from None
    if text and not text.endswith("\n"):
        text += "\n"
    start = 0
    for _ in range(5):
        start = text.find("\n", start) + 1
        if not start:
            raise TableFormatError("truncated table file: incomplete header")
    lines = text[:start].split("\n")

    mparts = lines[0].split()
    if len(mparts) != 2 or mparts[0] != "machine":
        raise TableFormatError(f"expected 'machine <version>' header line, got {lines[0]!r}")
    if mparts[1] != MACHINE_VERSION:
        raise TableVersionError(f"table written by {mparts[1]!r}, this build is {MACHINE_VERSION!r}")
    L = _header_int(lines[1], "L")
    T = _header_int(lines[2], "T")
    O = _header_int(lines[3], "O")
    cparts = lines[4].split()
    if len(cparts) != 2 or cparts[0] != "condition":
        raise TableFormatError(f"expected 'condition <fingerprint>' header line, got {lines[4]!r}")
    fingerprint = cparts[1]

    entries: dict[str, Entry] = {}
    records = 0
    with _gc_paused():
        while start < len(text):
            end = text.find("\n", min(start + _IMPORT_BLOCK_CHARS, len(text)) - 1) + 1
            records += _parse_block(text, start, end, L, entries)
            start = end
    if len(entries) != records:
        raise TableFormatError("duplicate output in table file")

    table = ComplexityTable(L, Budgets(T, O), fingerprint, entries)
    if table.kraft_sum() > 1:
        raise TableFormatError("corrupt table: Kraft sum exceeds 1")
    return table
