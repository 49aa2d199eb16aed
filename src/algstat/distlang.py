"""DistLang: the prefix-free language that describes distribution models,
and the canonical Shannon–Fano codebook that makes a distribution a
machine condition.

Distributions carry exact rational masses over a finite domain. Their
canonical codebook is what the machine's SFDECODE opcode consumes, so
"conditioning on P" is a runnable condition. ``models_prob`` computes
over the descriptions.

Grammar:

    00  UniformOn(set-code)
    01  Bernoulli(n, p)     bar(b(n)) rat(p), p in (0,1)
    10  Table(entries)      bar(b(count)) then std(x) rat(mass) per entry

Rationals are encoded reduced as bar(b(numerator)) bar(b(denominator)).
Table entries are kept in canonical (length, lex) domain order — the
constructor sorts and the decoder rejects any other order, keeping the
code round-trip exact. Masses may sum below 1 (defective distributions
are meaningful here; the missing mass simply has no codeword).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ._record import Record
from .bits import (
    BitReader,
    CodeError,
    bar_nat,
    bits_to_text,
    ceil_log2,
    ceil_log2_ratio,
    check_bits,
    std,
    text_to_bits,
)
from .condition import Condition
from .setlang import (
    DENOTE_CAP,
    CapExceeded,
    SetDesc,
    _read_desc,
    encode as encode_set,
    format_setlang,
    parse_setlang,
)

INF_NEGLOG = math.inf  # zero-mass marker


class DistLangError(CodeError):
    """Malformed DistLang code or textual syntax."""


def _rat_bits(q: Fraction) -> str:
    return bar_nat(q.numerator) + bar_nat(q.denominator)


def _read_rat(r: BitReader) -> Fraction:
    num = r.read_bar_nat()
    den = r.read_bar_nat()
    if num < 1 or den < 1:
        raise DistLangError("rational parts must be positive")
    q = Fraction(num, den)
    if q.numerator != num or q.denominator != den:
        raise DistLangError(f"rational {num}/{den} is not in lowest terms")
    return q


def _parse_rat_text(text: str) -> Fraction:
    num_text, slash, den_text = text.partition("/")
    if not slash:
        raise DistLangError(f"expected a/b rational, got {text!r}")
    den = int(den_text)
    if den == 0:
        raise DistLangError(f"rational {text!r} has a zero denominator")
    return Fraction(int(num_text), den)


def _neglog(m: Fraction) -> float:
    """``DistDesc.neglog`` of a mass m."""
    if m == 0:
        return INF_NEGLOG
    return math.log2(m.denominator) - math.log2(m.numerator)


# -- distribution AST ---------------------------------------------------------


class DistDesc(Record):
    """Base class. Also a valid machine Model condition: the machine sees
    ``code`` plus the canonical codebook. Instances are immutable, and two
    of different kinds never compare equal."""

    __slots__ = ()

    @property
    def code(self) -> str:
        return encode_dist(self)

    @property
    def code_len(self) -> int:
        return len(self.code)

    def domain(self) -> list[str]:
        """Positive-mass support in canonical (length, lex) order."""
        raise NotImplementedError

    def mass(self, x: str) -> Fraction:
        raise NotImplementedError

    def max_codeword_len(self) -> int:
        """The length of the longest codeword of ``codebook(self)``, that is
        ceil(-log2) of the least mass in the domain, without the book."""
        raise NotImplementedError

    def neglog(self, x: str) -> float:
        """-log2 mass as a real (documented 1e-9 precision); +inf marks
        zero mass. Comparisons elsewhere go through exact rationals."""
        return _neglog(self.mass(x))

    def codebook_pairs(self) -> list[tuple[str, str]]:
        return codebook(self).pairs_codeword_first()


class UniformOn(DistDesc):
    __slots__ = ("desc",)

    def __init__(self, desc: SetDesc):
        object.__setattr__(self, "desc", desc)

    def domain(self) -> list[str]:
        return self.desc.denote()

    def mass(self, x: str) -> Fraction:
        if not self.desc.member(x):
            return Fraction(0)
        return Fraction(1, self.desc.size())

    def max_codeword_len(self) -> int:
        return ceil_log2(self.desc.size())


def uniform_condition(desc: SetDesc) -> Condition:
    """Model condition: the uniform distribution on the described set
    (SFDECODE sees its canonical codebook)."""
    return Condition.of_model(UniformOn(desc))


class Bernoulli(DistDesc):
    __slots__ = ("n", "p")

    def __init__(self, n: int, p: Fraction):
        if n < 0:
            raise DistLangError("Bernoulli needs n >= 0")
        p = Fraction(p)
        if not 0 < p < 1:
            raise DistLangError("Bernoulli needs p strictly between 0 and 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)

    def domain(self) -> list[str]:
        if (1 << self.n) > DENOTE_CAP:
            raise CapExceeded(f"Bernoulli domain 2^{self.n} exceeds cap {DENOTE_CAP}")
        return [format(v, f"0{self.n}b") if self.n else "" for v in range(1 << self.n)]

    def mass(self, x: str) -> Fraction:
        if len(x) != self.n:
            return Fraction(0)
        ones = x.count("1")
        return self.p**ones * (1 - self.p) ** (self.n - ones)

    def max_codeword_len(self) -> int:
        # the least mass is that of n copies of the less likely bit
        q = min(self.p, 1 - self.p)
        return ceil_log2_ratio(q.denominator**self.n, q.numerator**self.n)


class TableDist(DistDesc):
    # masses, x -> mass of the entries, derived from entries and so not
    # part of the record's identity or repr
    __slots__ = ("entries", "masses")

    def __init__(self, entries: tuple[tuple[str, Fraction], ...]):
        if not entries:
            raise DistLangError("Table needs at least one entry")
        fixed = []
        total = Fraction(0)
        for x, q in entries:
            check_bits(x)
            q = Fraction(q)
            if not 0 < q <= 1:
                raise DistLangError("Table masses must be in (0, 1]")
            total += q
            fixed.append((x, q))
        if total > 1:
            raise DistLangError(f"Table masses sum to {total} > 1")
        fixed.sort(key=lambda e: (len(e[0]), e[0]))
        for (a, _), (b, _) in zip(fixed, fixed[1:]):
            if a == b:
                raise DistLangError(f"duplicate Table entry {bits_to_text(a)}")
        object.__setattr__(self, "entries", tuple(fixed))
        object.__setattr__(self, "masses", dict(fixed))

    def _values(self) -> tuple:
        return (self.entries,)

    def domain(self) -> list[str]:
        return [x for x, _ in self.entries]

    def mass(self, x: str) -> Fraction:
        return self.masses.get(x, Fraction(0))

    def max_codeword_len(self) -> int:
        return max(ceil_log2_ratio(q.denominator, q.numerator) for _, q in self.entries)


# -- encoding ----------------------------------------------------------------


def encode_dist(dist: DistDesc) -> str:
    if isinstance(dist, UniformOn):
        return "00" + encode_set(dist.desc)
    if isinstance(dist, Bernoulli):
        return "01" + bar_nat(dist.n) + _rat_bits(dist.p)
    if isinstance(dist, TableDist):
        body = "".join(std(x) + _rat_bits(q) for x, q in dist.entries)
        return "10" + bar_nat(len(dist.entries)) + body
    raise TypeError(f"not a distribution description: {dist!r}")


def decode_dist(bits: str) -> DistDesc:
    r = BitReader(bits)
    try:
        dist = _read_dist(r)
    except CodeError as exc:
        raise DistLangError(f"malformed distribution code: {exc}") from exc
    if not r.at_end():
        raise DistLangError("trailing bits after distribution code")
    return dist


def _read_dist(r: BitReader) -> DistDesc:
    tag = r.take(2)
    if tag == "00":
        return UniformOn(_read_desc(r))
    if tag == "01":
        n = r.read_bar_nat()
        return Bernoulli(n, _read_rat(r))
    if tag == "10":
        count = r.read_bar_nat()
        if count < 1:
            raise DistLangError("Table count must be >= 1")
        entries = tuple((r.read_std(), _read_rat(r)) for _ in range(count))
        dist = TableDist(entries)
        if dist.entries != entries:
            raise DistLangError("Table entries must be in canonical (length, lex) order")
        return dist
    raise DistLangError(f"unknown distribution tag {tag!r}")


# -- textual syntax ----------------------------------------------------------


def format_distlang(dist: DistDesc) -> str:
    if isinstance(dist, UniformOn):
        return f"unif({format_setlang(dist.desc)})"
    if isinstance(dist, Bernoulli):
        return f"bern:{dist.n},{dist.p.numerator}/{dist.p.denominator}"
    if isinstance(dist, TableDist):
        body = ",".join(
            f"{bits_to_text(x)}:{q.numerator}/{q.denominator}" for x, q in dist.entries
        )
        return "table{" + body + "}"
    raise TypeError(f"not a distribution description: {dist!r}")


def parse_distlang(text: str) -> DistDesc:
    text = text.strip()
    try:
        if text.startswith("unif(") and text.endswith(")"):
            return UniformOn(parse_setlang(text[5:-1]))
        if text.startswith("bern:"):
            n_text, _, p_text = text[5:].partition(",")
            return Bernoulli(int(n_text), _parse_rat_text(p_text))
        if text.startswith("table{") and text.endswith("}"):
            entries = []
            for item in text[6:-1].split(","):
                x_text, _, q_text = item.strip().partition(":")
                entries.append((text_to_bits(x_text), _parse_rat_text(q_text)))
            return TableDist(tuple(entries))
    except (ValueError, CodeError) as exc:
        raise DistLangError(f"bad distribution syntax {text!r}: {exc}") from exc
    raise DistLangError(f"bad distribution syntax {text!r}")


# -- canonical Shannon–Fano codebook ------------------------------------------


class Codebook(NamedTuple):
    """(element, codeword) per domain element, canonical domain order.

    Codeword lengths are ceil(-log2 mass); assignment is shorter-first
    (ties by domain order) with Kraft packing, so the book is prefix-free
    by construction."""

    assignments: tuple[tuple[str, str], ...]

    def decode(self, codeword: str) -> str:
        for elem, cw in self.assignments:
            if cw == codeword:
                return elem
        raise KeyError(f"no element for codeword {bits_to_text(codeword)}")

    def pairs_codeword_first(self) -> list[tuple[str, str]]:
        return [(cw, elem) for elem, cw in self.assignments]

    def kraft_sum(self) -> Fraction:
        return sum((Fraction(1, 1 << len(cw)) for _, cw in self.assignments), Fraction(0))


def codeword_length(dist: DistDesc, x: str) -> int:
    """ceil(-log2 mass(x)), computed exactly."""
    m = dist.mass(x)
    if m == 0:
        raise DistLangError(f"{bits_to_text(x)} has zero mass")
    return ceil_log2_ratio(m.denominator, m.numerator)


def codebook(dist: DistDesc) -> Codebook:
    domain = dist.domain()
    if isinstance(dist, UniformOn):
        # Every codeword has the same length, so packing gives the i-th
        # element i in that many bits: one size() for the whole book.
        width = dist.max_codeword_len()
        return Codebook(
            assignments=tuple(
                (x, format(i, f"0{width}b") if width else "") for i, x in enumerate(domain)
            )
        )
    with_lengths = [(codeword_length(dist, x), i, x) for i, x in enumerate(domain)]
    with_lengths.sort(key=lambda t: (t[0], t[1]))
    assigned: dict[str, str] = {}
    value = 0
    prev_len = None
    for length, _, x in with_lengths:
        if prev_len is not None:
            value <<= length - prev_len
        if value >= (1 << length):
            raise DistLangError("Kraft overflow while packing codewords")
        assigned[x] = format(value, f"0{length}b") if length else ""
        value += 1
        prev_len = length
    return Codebook(assignments=tuple((x, assigned[x]) for x in domain))
