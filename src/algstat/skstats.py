"""Complexity-level sets S^k and their index combinatorics.

S^k collects every table output of complexity at most k in canonical
order. Each member gets a fixed-width index; comparing an index against
the binary cardinality word N_k yields the joint prefix m_x whose length
measures how close to the end of the enumeration x sits. The X(r)
family and its counting bounds are exactly checkable: the proofs use
only prefix-freeness and index counting, so a failure here is an
implementation bug, never machine noise.

Indices are 1-based ranks written in standard binary, padded to
width = bit_length(N_k); the N-word is bin(N_k) itself. Because
rank <= N_k at equal width, the first differing bit always has
rank-bit 0 and N-bit 1, giving the exact I = m 0 i / N = m 1 n split.
When x is the last member the two words coincide; the record is then
flagged degenerate with m_x the longest proper prefix.

sk() walks the canonical outputs once and builds, next to the member
tuple, a {member: rank} map, so a rank or index lookup costs O(1).
Because both words have the same width, l(m_x) has a closed form in
the rank alone: width - 1 when rank == N_k, otherwise
width - bit_length(rank XOR N_k). The X(r) checks build no level: one
pass over K in canonical order, read off the table's segments, keeps a
running count per level, which gives each x its rank in S^{K(x)}, and
the final counts give every N_k, so they cost O(N * levels) integer
additions for N table outputs. The pass is made once per table and kept
on it; X(r)'s mass sums and the slice bound read a tally of it by K and
l(m_x).
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from ._record import Record
from .bits import bits_to_text
from .enumeration import ComplexityTable

if TYPE_CHECKING:
    from fractions import Fraction


class SkIndex(Record):
    # k; members in canonical (length, lex) order; n_k = len(members); the
    # index width in bits, bit_length(n_k); t_k = |S^k \ S^{k-1}|; and
    # ranks, member -> 1-based rank, derived from members and so not part
    # of the record's identity or repr
    __slots__ = ("k", "members", "n_k", "width", "t_k", "ranks")

    def __init__(self, k: int, members: tuple[str, ...], n_k: int, width: int, t_k: int):
        ranks = {x: rank for rank, x in enumerate(members, 1)}
        for name, value in zip(self.__slots__, (k, members, n_k, width, t_k, ranks)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return self.k, self.members, self.n_k, self.width, self.t_k

    def __contains__(self, x: str) -> bool:
        return x in self.ranks

    def __len__(self) -> int:
        return self.n_k

    def rank_of(self, x: str) -> int:
        """1-based position in the canonical enumeration."""
        try:
            return self.ranks[x]
        except KeyError:
            raise KeyError(f"{bits_to_text(x)} is not in S^{self.k}") from None

    def index_of(self, x: str) -> str:
        return format(self.rank_of(x), f"0{self.width}b")

    def n_word(self) -> str:
        return format(self.n_k, f"0{self.width}b")


def _level(table: ComplexityTable, k: int) -> tuple[list[str], list[int]]:
    """The members of S^k in canonical (length, lex) order, and the K of
    each, in one pass over the table's outputs."""
    if k > table.L:
        raise ValueError(f"k={k} exceeds the table cap L={table.L}")
    ks = table.sorted_ks()
    keep = [kx <= k for kx in ks]
    members = list(itertools.compress(table.sorted_outputs(), keep))
    return members, list(itertools.compress(ks, keep))


def sk(table: ComplexityTable, k: int) -> SkIndex:
    """S^k with its padded index assignment."""
    members, ks = _level(table, k)
    n_k = len(members)
    return SkIndex(
        k=k,
        members=tuple(members),
        n_k=n_k,
        width=n_k.bit_length(),
        t_k=ks.count(k),
    )


def _mx_len(rank: int, n_k: int) -> int:
    """l(m_x) for the member at ``rank`` of a level of N_k members: the
    index and N-words share every bit above the highest bit of rank XOR
    N_k; when they are equal (x enumerated last) m_x is the longest
    proper prefix."""
    width = n_k.bit_length()
    if rank == n_k:
        return width - 1
    return width - (rank ^ n_k).bit_length()


class MxRecord(NamedTuple):
    x: str
    k: int
    index: str  # padded I_x
    m_x: str  # longest joint prefix of I_x and the N-word
    i_x: str  # continuation of I_x after m_x 0 (or after m_x when degenerate)
    n_x: str  # continuation of the N-word after m_x 1 (ditto)
    degenerate: bool  # I_x equals the N-word (x enumerated last)


def mx(table: ComplexityTable, k: int, x: str) -> MxRecord:
    return _mx_record(sk(table, k), x)


def _mx_record(idx: SkIndex, x: str) -> MxRecord:
    rank = idx.rank_of(x)  # KeyError if x is not in S^k
    word = idx.index_of(x)
    n_word = idx.n_word()
    split = _mx_len(rank, idx.n_k)
    if rank == idx.n_k:
        return MxRecord(x=x, k=idx.k, index=word, m_x=word[:split], i_x=word[split:],
                        n_x=word[split:], degenerate=True)
    # rank < N_k at equal width forces the 0/1 orientation
    assert word[split] == "0" and n_word[split] == "1"
    return MxRecord(
        x=x,
        k=idx.k,
        index=word,
        m_x=word[:split],
        i_x=word[split + 1:],
        n_x=n_word[split + 1:],
        degenerate=False,
    )


def sk_mx(table: ComplexityTable, k: int, x: str) -> tuple[str, ...]:
    """The members of S^k whose indices continue m_x with 0 — the
    near-optimal explicit set for x. Degenerate records drop the forced
    0 (the subset is then the <= 2 members sharing m_x itself)."""
    idx = sk(table, k)
    rec = _mx_record(idx, x)
    prefix = rec.m_x if rec.degenerate else rec.m_x + "0"
    return tuple(y for y in idx.members if idx.index_of(y).startswith(prefix))


# -- X(r): strings enumerated close to the end --------------------------------


class XrRow(NamedTuple):
    r: int
    members: tuple[str, ...]
    mass_sum: Fraction  # sum of 2^-K(x) over the members
    bound: Fraction  # 2^(-r+2)

    @property
    def passed(self) -> bool:
        return self.mass_sum <= self.bound


def _mx_pass(table: ComplexityTable) -> tuple[list[int], list[int]]:
    """(K of each output, l(m_x) of each at k = K(x)), in canonical order.
    K is read off the segments (``sorted_ks``), and one pass over it keeps a
    running count per level, so the rank of x in S^{K(x)} is the number of
    outputs up to x with K at most K(x); N_k follows from the final counts,
    and l(m_x) from the two. The lists are kept on the table, which never
    changes, so the X(r), slice-bound and log N_k checks of one table make
    the pass once; callers only read them."""
    if table._mx_pass is None:
        ks = table.sorted_ks()
        seen = [0] * (table.L + 1)
        ranks = []
        for k in ks:
            seen[k] += 1
            ranks.append(sum(seen[: k + 1]))
        n_at = list(itertools.accumulate(seen))
        table._mx_pass = ks, list(map(_mx_len, ranks, map(n_at.__getitem__, ks)))
    return table._mx_pass


def _mx_lengths(table: ComplexityTable) -> dict[str, int]:
    """l(m_x) for every table string, each at its own level k = K(x)."""
    return dict(zip(table.sorted_outputs(), _mx_pass(table)[1]))


def xr(table: ComplexityTable, r: int) -> tuple[str, ...]:
    """X(r) = {x : l(m_x) >= r} with m_x taken at k = K(x), canonical
    order, restricted to the table support."""
    lengths = _mx_pass(table)[1]
    return tuple(itertools.compress(table.sorted_outputs(), map(r.__le__, lengths)))


def xr_report(table: ComplexityTable) -> list[XrRow]:
    """One row per r from 0 up to the first empty X(r). Each mass sum is
    summed as an integer numerator over 2^L, from a tally of the outputs
    by K and l(m_x)."""
    # fractions (and decimal with it) loads here, not with ``sk``, which
    # makes no Fraction (as in ``ComplexityTable.m_of``).
    from fractions import Fraction

    ks, lengths = _mx_pass(table)
    L = table.L
    top = max(lengths, default=-1)
    # size[l], mass[l]: the count and mass numerator over 2^L of the
    # outputs with l(m_x) = l
    size = [0] * (top + 1)
    mass = [0] * (top + 1)
    for (k, l), count in Counter(zip(ks, lengths)).items():
        size[l] += count
        mass[l] += count << (L - k)
    outs = table.sorted_outputs()
    # the positions of the outputs by l(m_x), canonical within each l: the
    # members of X(r) are the positions from the first of l = r on
    by_l = sorted(range(len(lengths)), key=lengths.__getitem__)
    rows = []
    for r, start in zip(range(top + 2), itertools.accumulate(size, initial=0)):
        members = tuple(map(outs.__getitem__, sorted(by_l[start:])))
        mass_sum = Fraction(sum(mass[r:]), 1 << L)
        rows.append(XrRow(r=r, members=members, mass_sum=mass_sum, bound=Fraction(4, 1 << r)))
    return rows


def xr_bound_check(table: ComplexityTable) -> tuple[bool, Fraction, list[XrRow]]:
    """(all_pass, max ratio sum/bound, rows). The theorem says the ratio
    never exceeds 1; this is exact dyadic arithmetic end to end."""
    from fractions import Fraction

    rows = xr_report(table)
    ratio = max((row.mass_sum / row.bound for row in rows), default=Fraction(0))
    return all(row.passed for row in rows), ratio, rows


def slice_bound_check(table: ComplexityTable) -> bool:
    """|X(r) ∩ (S^k \\ S^{k-1})| <= 2^(-r+1) N_k for every (k, r), checked
    as the integer inequality count * 2^r <= 2 * N_k. The counts come from
    one tally of the outputs by K and l(m_x)."""
    ks, lengths = _mx_pass(table)
    max_r = max(lengths, default=0)
    # by_level[k][l]: the outputs of complexity k with l(m_x) = l
    by_level: dict[int, list[int]] = {}
    for (k, l), count in Counter(zip(ks, lengths)).items():
        by_level.setdefault(k, [0] * (max_r + 2))[l] += count
    n_k = 0
    for k in sorted(by_level):
        hist = by_level[k]
        n_k += sum(hist)
        # |X(r) ∩ (S^k \\ S^{k-1})| for r = max_r + 1 down to 0
        counts = itertools.accumulate(reversed(hist))
        if any(count << r > 2 * n_k for r, count in zip(range(max_r + 1, -1, -1), counts)):
            return False
    return True


def t_kraft_sum(table: ComplexityTable) -> Fraction:
    """Sum over k of t_k 2^-k; at most 1 because S^k growth mirrors the
    prefix-free program tree."""
    from fractions import Fraction

    counts = Counter(table.sorted_ks())
    return sum((Fraction(t, 1 << k) for k, t in counts.items()), Fraction(0))


def logn_gap(table: ComplexityTable) -> int:
    """Max over k of |floor(log2 N_k) - (k - K(b(k)))| — the constant the
    cardinality lemma's within-O(1) equality actually hides, measured."""
    from .bits import nat_to_bits

    worst = 0
    counts = Counter(_mx_pass(table)[0])
    for k in range(min(counts), table.L + 1):
        n_seen = sum(t for kk, t in counts.items() if kk <= k)
        k_of_k = table.k_of(nat_to_bits(k))
        if k_of_k is None:
            continue
        gap = abs((n_seen.bit_length() - 1) - (k - k_of_k))
        worst = max(worst, gap)
    return worst


# -- CSV exports ---------------------------------------------------------------


def sk_csv(table: ComplexityTable, k: int) -> str:
    """S^k as CSV: each member, its K and its index, which is its rank."""
    members, ks = _level(table, k)
    spec = f"0{len(members).bit_length()}b"  # SkIndex's index width
    lines = ["member,K,index"]
    for rank, (x, kx) in enumerate(zip(members, ks), 1):
        lines.append(f"{bits_to_text(x)},{kx},{format(rank, spec)}")
    return "\n".join(lines) + "\n"


def _dyadic_csv(q: Fraction) -> str:
    if q == 0:
        return "0"
    num, den = q.numerator, q.denominator
    exp = den.bit_length() - 1
    return f"{num}/2^{exp}" if exp else str(num)


def xr_csv(table: ComplexityTable) -> str:
    lines = ["r,|X(r)|,sum,bound,pass"]
    for row in xr_report(table):
        lines.append(
            f"{row.r},{len(row.members)},{_dyadic_csv(row.mass_sum)},"
            f"{_dyadic_csv(row.bound)},{int(row.passed)}"
        )
    return "\n".join(lines) + "\n"
