"""Derived complexity quantities: conditional K, joint K via pairing,
algorithmic mutual information, and the exact machine-law audits
(additivity of complexity, directed triangle inequality).

All quantities are read off enumeration tables, so they are exact for the
machine under the stated caps; "Absent" means the cap was too small, never
an approximation.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple, Sequence

from .bits import bits_to_text, pair, std
from .cache import TableSource
from .enumeration import DEFAULT_COND_MAX_LEN, ComplexityTable
from .condition import Condition

DEFAULT_SOI_LEN_CAP = 4


class Absent(Exception):
    """A queried string lies outside the table's horizon: beyond its length
    cap, or longer than its output budget."""

    def __init__(self, x: str, table: ComplexityTable):
        unconditioned = table.cond_fingerprint == Condition.none().fingerprint()
        where = "table" if unconditioned else "conditional table"
        max_output = table.budgets.max_output
        if len(x) > max_output:
            message = (
                f"{bits_to_text(x)} is longer than the {where}'s output budget "
                f"O={max_output}; no program within it prints the string "
                f"(see `--max-out`)"
            )
        else:
            message = (
                f"{bits_to_text(x)} has no program within the {where}'s cap L={table.L}; "
                f"enlarge it (see `algstat enumerate --max-len`)"
            )
        super().__init__(message)
        self.x = x
        self.L = table.L


def require_k(table: ComplexityTable, x: str) -> int:
    """K(x) read off ``table``; raises Absent, naming the table as
    conditional when it is and naming its output budget when x is longer
    than that, if x lies beyond its horizon."""
    k = table.k_of(x)
    if k is None:
        raise Absent(x, table)
    return k


def require_ks(table: ComplexityTable, xs: Sequence[str]) -> list[int]:
    """``[require_k(table, x) for x in xs]`` in one read of the table
    (``ComplexityTable.ks_of``); raises Absent for the first x in xs that
    lies beyond its horizon."""
    ks = table.ks_of(xs)
    if None in ks:
        raise Absent(xs[ks.index(None)], table)
    return ks


def _require_rows(tables: list[ComplexityTable], xs: Sequence[str]) -> list[list[int]]:
    """``[require_ks(t, xs) for t in tables]``, reading the row of each
    distinct table object once: conditions that share the bits a walk reads
    share one table (``TableSource.tables``). Each entry of the list is
    set to None once its table's row is read, so that the table can be let
    go then and at most one of them is held parsed."""
    sharing: dict[int, list[int]] = {}
    for i, table in enumerate(tables):
        sharing.setdefault(id(table), []).append(i)
    rows: list[list[int]] = [[]] * len(tables)
    for indices in sharing.values():
        row = require_ks(tables[indices[0]], xs)
        for i in indices:
            tables[i] = None
            rows[i] = row
    return rows


def shortest_program(table: ComplexityTable, x: str) -> str:
    """x*: the canonical witness. Its length is K(x) and, to the machine,
    it carries both x and K(x) — which is why conditions use it. Raises
    Absent as ``require_k`` does."""
    w = table.witness_of(x)
    if w is None:
        raise Absent(x, table)
    return w


def witness_tables(
    table: ComplexityTable, labels: Sequence[str], n: int, source: TableSource
) -> list[ComplexityTable]:
    """The table conditioned on each label's x*, its witness in ``table``,
    for lookups of strings of at most n bits, in the order of ``labels``:
    the x* are read, and their tables fetched, in that order. Raises Absent
    for the first label ``table`` does not hold, before any table is built."""
    conds = [Condition.string(shortest_program(table, a)) for a in labels]
    return source.tables(conds, n=n)


def k_cond(x: str, cond: Condition, source: TableSource = TableSource()) -> int | None:
    """Exact K(x | cond) under the conditional cap (``source.max_len`` when
    it is set), or None if absent. Builds (and caches) the conditional table
    on first use, under an output budget of |x| (``TableSource.tables``),
    which also cuts a string condition to its first |x| bits."""
    [table] = source.tables([cond], n=len(x), L=DEFAULT_COND_MAX_LEN)
    return table.k_of(x)


class MIRecord(NamedTuple):
    x: str
    y: str
    kx: int
    ky: int
    kxy: int  # K(pair(x, y))

    @property
    def i(self) -> int:
        """Information in y about x: K(x) + K(y) - K(x,y)."""
        return self.kx + self.ky - self.kxy


def mutual_info(table: ComplexityTable, x: str, y: str) -> MIRecord:
    """Joint complexity is K of the pairing; raises Absent when x, y or
    the pair lies beyond the table cap. The pairing is asymmetric, so
    mutual_info(x, y) and mutual_info(y, x) differ by a machine constant;
    callers that care report both orders."""
    kx = require_k(table, x)
    ky = require_k(table, y)
    kxy = require_k(table, pair(x, y))
    return MIRecord(x, y, kx, ky, kxy)


def _all_strings(len_cap: int) -> list[str]:
    out = [""]
    for l in range(1, len_cap + 1):
        out.extend(format(v, f"0{l}b") for v in range(1 << l))
    return out


class SoiReport(NamedTuple):
    """Measured machine constants for the complexity laws on one sweep."""

    len_cap: int
    pairs_checked: int
    additivity_max_slack: int  # max |K(<x,y>) - K(x) - K(y|x*)|
    additivity_argmax: tuple[str, str]
    triangle_c: int  # minimal c >= 0 with K(x|y*) <= K(z|y*) + K(x|z*) + c
    triangle_argmax: tuple[str, str, str]
    mi_self_gap_max: int  # max |I(x:x) - (K(x) - K(x|x*))|
    mi_swap_gap_max: int  # max |I(x:y) - I(y:x)|

    def measured(self) -> dict[str, int]:
        return {
            "soi_additivity": self.additivity_max_slack,
            "soi_triangle": self.triangle_c,
            "mi_self_gap": self.mi_self_gap_max,
            "mi_swap_gap": self.mi_swap_gap_max,
        }


def soi_audit(
    table: ComplexityTable,
    len_cap: int = DEFAULT_SOI_LEN_CAP,
    source: TableSource = TableSource(),
) -> SoiReport:
    """Sweep all strings of length <= len_cap.

    Additivity: the machine analogue of K(x,y) =+ K(x) + K(y|x*), reported
    as the max absolute slack. Triangle: the minimal nonnegative c making
    K(x|y*) <= K(z|y*) + K(x|z*) + c hold across the sweep. Also measures
    the self-information gap and the pairing-order gap feeding the frozen
    constants file. ``table`` is read at the swept strings and their pairs;
    the conditional tables (``witness_tables``) only at the swept strings.
    """
    xs = _all_strings(len_cap)
    n = len(xs)
    # <x, y> = std(x) + y, with one std(x) per swept x.
    pairs = [head + y for head in map(std, xs) for y in xs]
    # One read of ``table`` for the swept strings and their pairs, some of
    # which are swept strings too (for instance <e, y> = 0y).
    strings = list(dict.fromkeys(xs + pairs))
    k_deep = dict(zip(strings, require_ks(table, strings)))
    k_un = [k_deep[x] for x in xs]
    # kxy[i][j] = K(<x_i, x_j>); given[i][j] = K(x_j | x_i*).
    kxy = [[k_deep[p] for p in pairs[i : i + n]] for i in range(0, n * n, n)]
    given = _require_rows(witness_tables(table, xs, len_cap, source), xs)

    add_max, add_arg = -1, ("", "")
    for x, kx, row, row_given in zip(xs, k_un, kxy, given):
        slacks = [abs(a - kx - b) for a, b in zip(row, row_given)]
        slack = max(slacks)
        if slack > add_max:
            add_max, add_arg = slack, (x, xs[slacks.index(slack)])
    swap_max = max(max(map(abs, map(sub, row, col))) for row, col in zip(kxy, zip(*kxy)))
    self_gap = max(
        abs(2 * k_un[i] - kxy[i][i] - (k_un[i] - given[i][i])) for i in range(n)
    )

    # K(x|y*) - K(z|y*) - K(x|z*) over every x, for each (y, z).
    tri_max, tri_arg = 0, ("", "", "")
    for y, row_y in zip(xs, given):
        for z, kzy, row_z in zip(xs, row_y, given):
            deficit = max(map(sub, row_y, row_z)) - kzy
            if deficit > tri_max:
                tri_max = deficit
                x = xs[list(map(sub, row_y, row_z)).index(deficit + kzy)]
                tri_arg = (x, y, z)

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
