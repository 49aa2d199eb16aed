"""Explicit models: randomness deficiency, two-part codes, the structure
functions h/beta/lambda, the sufficient-statistic search and the
(alpha, beta) non-stochasticity scan. A model is a finite set (``setlang``)
or a distribution (``distlang``); a set S is the uniform distribution on
S, so both read through one interface (``code_len``, ``member`` and
``codeword_len``) and share one record, one two-part total and one search.
A description's code length stands for the model complexity. The model
searches range over the base set models of x; ``models_prob`` holds the
distribution entry points.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import Any, Callable, Iterable, NamedTuple

# Bound, not run, here: distlang (and fractions with it) runs only when a
# set becomes a uniform-distribution condition.
from . import distlang
from .bits import _fmt_real, bits_to_text, check_bits, nat_to_bits, pair
from .cache import TableSource
from .complexity import require_k, require_ks
from .condition import Condition
from .enumeration import ComplexityTable
from .setlang import All, Cyl, Hamming, SetDesc, Singleton

ALPHA_BOUND = 36


# -- model enumeration -------------------------------------------------------


def enumerate_models(x: str, alpha_max: int) -> list[SetDesc]:
    """The models of x with code length strictly below alpha_max, in
    deterministic (length, code) order: of the n+4 base sets that contain
    an n-bit x, Singleton(x), All(n), Cyl(x[:lp], n) for every prefix and
    Hamming(n, |x|_1), those whose code fits.

    No union or list can set a structure function or a sufficient
    statistic, so none is made. A list that contains x holds std(x) beside
    a header of at least 6 bits, where Singleton(x) holds it beside 2, and
    has at least one member. A union U that contains x has a part that
    contains x, and so on down through nested unions to a base set or a
    list P that contains x; U's code holds P's, so code_len(P) <
    code_len(U), and |P| <= |U|. Either way a base model of x below the
    same cap beats the union or list on both axes, with a shorter code
    and no more members. So h, lambda, the least two-part total and the
    minimal sufficient statistic are the same without them (Vereshchagin
    and Vitanyi: a model dominated in both K(S) and log|S| never sets the
    curve). The deficiency columns of ``structfn`` are minima that a
    superset could in principle lower; the golden digests in the tests
    pin them.
    """
    if alpha_max > ALPHA_BOUND:
        raise ValueError(f"alpha_max {alpha_max} exceeds configured bound {ALPHA_BOUND}")
    check_bits(x)
    n = len(x)
    base = [Singleton(x), All(n), *(Cyl(x[:lp], n) for lp in range(n + 1))]
    base.append(Hamming(n, x.count("1")))
    return sorted((d for d in base if d.code_len < alpha_max), key=lambda d: (d.code_len, d.code))


# -- deficiency and two-part codes -------------------------------------------


def star_condition(desc: SetDesc) -> Condition:
    """String condition carrying the description and its length — the
    analogue of conditioning on (S, K(S)): the code bits are literally
    available to COPYIN."""
    code = desc.code
    return Condition.string(pair(code, nat_to_bits(len(code))))


class DeficiencyRecord(NamedTuple):
    """The randomness deficiency of x in a model, a set or a distribution,
    in exact fields. It is *normalized* against the least-deficient member
    y, the one with the largest m(y) * 2^K(y|model) (for a set, the most
    complex member): delta_norm = log2(m(y)/m(x)) + K(y|model) -
    K(x|model), zero exactly when x is such a member. On this machine the
    raw codeword_len - K(x|model) carries a uniform negative offset that
    would make every element look atypical."""

    x: str
    model: Any  # a SetDesc or a DistDesc
    codeword_len: int  # ceil(-log2 m(x)); ceil(log2 |S|) for a set
    k_cond: int  # K(x | model)
    best_y: str  # the least-deficient member
    best_k: int  # K(best_y | model)
    mass_ratio: Any  # m(best_y) / m(x), a Fraction; the int 1 when equal, as for a set
    delta_star: int | None  # a set's max_y K(y|S*) - K(x|S*), S* its (code, len(code))

    @property
    def delta_norm(self) -> int | float:
        """An integer when the masses are equal, as in a set. Otherwise a real
        for display only, as the difference of the two -log2 m(.) - K(.|model)
        terms; ``typical`` decides exactly."""
        if self.mass_ratio == 1:
            return self.best_k - self.k_cond
        neglog = self.model.neglog
        return (neglog(self.x) - self.k_cond) - (neglog(self.best_y) - self.best_k)

    def typical(self, beta: int) -> bool:
        """delta_norm <= beta, decided exactly: m(best_y)/m(x) <= 2^(beta +
        K(x|model) - K(best_y|model)), compared in integers."""
        e = operator.index(beta) + self.k_cond - self.best_k
        num, den = self.mass_ratio.numerator, self.mass_ratio.denominator
        return num << max(-e, 0) <= den << max(e, 0)


def _unit_mass(y: str) -> int:
    """The mass of every member of a set, up to the factor |S| that no
    ratio of two of them sees."""
    return 1


def _least_deficient(
    x: str, members: list[str], table: ComplexityTable, mass: Callable[[str], Any] = _unit_mass
) -> tuple[int, str, int, Any]:
    """(K(x|.), y, K(y|.), m(y)/m(x)) for the least-deficient member y, the
    first of the largest score m(y) * 2^K(y|.), with the members' Ks read off
    ``table`` in one ``require_ks`` call (raises Absent for the first member
    beyond its horizon). Exact: no float decides the winner. The ratio is
    the int 1 when the two masses are equal."""
    ks = require_ks(table, members)
    kx = ks[members.index(x)] if x in members else require_k(table, x)
    best_y, best_k, best_mass = max(
        zip(members, ks, map(mass, members)), key=lambda e: e[2] * (1 << e[1])
    )
    mx = mass(x)
    return kx, best_y, best_k, 1 if best_mass == mx else best_mass / mx


def _model_conditions(desc: SetDesc) -> list[Condition]:
    """The two conditions a deficiency reads: S as a model, then (S, K(S))."""
    return [distlang.uniform_condition(desc), star_condition(desc)]


def deficiency(x: str, desc: SetDesc, source: TableSource = TableSource()) -> DeficiencyRecord:
    log_size = desc.codeword_len(x)  # raises unless x is in S
    members = desc.denote()
    # read only at the members: built up to the longest of them
    uniform, star = source.tables(_model_conditions(desc), n=max(map(len, members)))
    return _deficiency(x, desc, log_size, members, uniform, star)


def _deficiency(
    x: str, desc: SetDesc, log_size: int, members: list[str],
    uniform: ComplexityTable, star: ComplexityTable,
) -> DeficiencyRecord:
    """The deficiencies of x in S from S's members and its two conditional
    tables, as ``_model_conditions`` orders them."""
    kx, best_y, best_k, ratio = _least_deficient(x, members, uniform)
    kx_star, _, best_k_star, _ = _least_deficient(x, members, star)
    return DeficiencyRecord(
        x, desc, log_size, kx, best_y, best_k, ratio, delta_star=best_k_star - kx_star
    )


def two_part(x: str, model: Any) -> int:
    """Model bits plus data-to-model bits, for a set or a distribution:
    code_len + codeword_len(x), that is len(code) + ceil(log2 |S|) or
    len(code) + ceil(-log2 P(x)). Raises ValueError unless x is in the
    model."""
    return model.code_len + model.codeword_len(x)


def alpha_cap(x: str, beta: int = 0) -> int:
    """The exclusive code-length cap of a model search for x: the least
    alpha at which Singleton(x) is a model below alpha (its two-part total
    plus one), plus the slack beta, clamped at ALPHA_BOUND. Every model
    within beta of the best two-part total has a shorter code, since
    Singleton(x)'s total bounds the best. Long strings and runaway betas
    meet the clamp: there the search ranges over the base models whose
    codes fit below the bound, and Singleton(x) may not be one of them."""
    return min(two_part(x, Singleton(x)) + 1 + beta, ALPHA_BOUND)


# -- structure function ------------------------------------------------------


class CurveRow(NamedTuple):
    alpha: int
    h: float  # min log2 |S| over models with code_len < alpha
    beta: int | None  # min delta_norm, when deficiencies were computed
    beta_star: int | None
    lam: float  # h + alpha


class StructureCurve(NamedTuple):
    x: str
    alpha_max: int
    rows: tuple[CurveRow, ...]

    def h(self, alpha: int) -> float:
        for row in self.rows:
            if row.alpha == alpha:
                return row.h
        raise KeyError(f"no models below alpha={alpha}")

    def to_csv(self) -> str:
        lines = ["alpha,h,beta,beta_star,lambda"]
        for r in self.rows:
            beta = "" if r.beta is None else str(r.beta)
            beta_star = "" if r.beta_star is None else str(r.beta_star)
            lines.append(f"{r.alpha},{_fmt_real(r.h)},{beta},{beta_star},{_fmt_real(r.lam)}")
        return "\n".join(lines) + "\n"


def structfn(
    x: str,
    alpha_max: int,
    include_deficiency: bool = True,
    source: TableSource = TableSource(),
) -> StructureCurve:
    """The h / beta / beta_star / lambda curves of x over the model family.

    h(alpha) minimizes real-valued log2|S| over models of code length
    strictly below alpha; beta curves minimize the normalized
    deficiencies; rows run from the first alpha admitting a model."""
    models = enumerate_models(x, alpha_max)
    # (code_len, log2|S|, delta_norm, delta_star) per model
    per_model: list[tuple[int, float, Any, Any]] = [
        (desc.code_len, math.log2(desc.size()), None, None) for desc in models
    ]
    if include_deficiency:
        members = [desc.denote() for desc in models]
        conds = [c for desc in models for c in _model_conditions(desc)]
        # read only at the members, which all have the length of x
        tables = source.tables(conds, n=len(x))
        for i, desc in enumerate(models):
            uniform, star = tables[2 * i], tables[2 * i + 1]
            rec = _deficiency(x, desc, desc.codeword_len(x), members[i], uniform, star)
            per_model[i] = (*per_model[i][:2], rec.delta_norm, rec.delta_star)

    rows: list[CurveRow] = []
    for alpha in range(models[0].code_len + 1, alpha_max + 1) if models else ():
        eligible = [m for m in per_model if m[0] < alpha]
        h = min(m[1] for m in eligible)
        beta = beta_star = None
        if include_deficiency:
            beta, beta_star = (min(m[i] for m in eligible) for i in (2, 3))
        rows.append(CurveRow(alpha, h, beta, beta_star, h + alpha))
    return StructureCurve(x=x, alpha_max=alpha_max, rows=tuple(rows))


# -- sufficient statistics and the (alpha, beta) scan ------------------------


class SuffStatReport(NamedTuple):
    """The optimal models of x, of the class searched: set models
    (``SetDesc``) for the default family of ``suffstat``, their uniform
    wraps (``DistDesc``) for that of ``models_prob.suffstat_p``, or those
    of the family given. Whether a restricted class stays within beta of
    the unrestricted total is read by comparing two reports' lambda_min."""

    x: str
    beta: int
    lambda_min: int
    optimal: tuple[Any, ...]  # two-part total <= lambda_min + beta
    minimal: Any  # least (code_len, code) among optimal


def suffstat(x: str, beta: int = 0, family: Iterable[Any] | None = None) -> SuffStatReport:
    """Optimal models of x: those whose two-part total is within beta of
    the best achievable, by default among the base models of
    ``enumerate_models``. An explicit ``family`` of sets or distributions
    makes the search class-restricted. The optimal models come in
    (code_len, code) order, and the minimal one is the first."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if family is None:
        family = enumerate_models(x, alpha_cap(x, beta))
    candidates = [(two_part(x, d), d) for d in family if d.member(x)]
    if not candidates:
        raise ValueError("family contains no model of x")
    lambda_min = min(t for t, _ in candidates)
    optimal = sorted(
        (d for t, d in candidates if t <= lambda_min + beta), key=lambda d: (d.code_len, d.code)
    )
    return SuffStatReport(x, beta, lambda_min, tuple(optimal), optimal[0])


class NonStochReport(NamedTuple):
    n: int
    beta: int
    min_len: dict[str, int]  # x -> minimal model length with delta_star <= beta
    histogram: dict[int, int]
    argmax: tuple[str, ...]

    @property
    def max_len(self) -> int:
        return max(self.min_len.values())


def nonstoch_scan(n: int, beta: int, source: TableSource = TableSource()) -> NonStochReport:
    """For every x of length n, the least model length whose delta_star
    is within beta — the most structure-resistant strings stand out as
    the argmax. Exhaustive and deterministic; n is capped at 12."""
    if n > 12:
        raise ValueError("scan is exhaustive over 2^n strings; n > 12 is not supported")
    tables: dict[str, ComplexityTable] = {}  # by condition fingerprint
    min_len: dict[str, int] = {}
    for v in range(1 << n):
        x = format(v, f"0{n}b") if n else ""
        # Singleton always qualifies (delta_star = 0), so the search needs
        # no slack past it.
        best: int | None = None
        for desc in enumerate_models(x, alpha_cap(x)):
            if best is not None and desc.code_len >= best:
                break  # models come sorted by length
            members = desc.denote()
            cond = star_condition(desc)
            table = tables.get(cond.fingerprint())
            if table is None:
                # read only at the members, which all have n bits
                [table] = source.tables([cond], n=n)
                tables[cond.fingerprint()] = table
            kx, _, best_k, _ = _least_deficient(x, members, table)
            if best_k - kx <= beta:
                best = desc.code_len
        if best is None:
            raise ValueError(
                f"no model of {bits_to_text(x)} below the alpha bound has delta_star <= {beta}"
            )
        min_len[x] = best
    histogram = dict(Counter(min_len.values()))
    top = max(min_len.values())
    argmax = tuple(sorted((x for x, l in min_len.items() if l == top)))
    return NonStochReport(n=n, beta=beta, min_len=min_len, histogram=histogram, argmax=argmax)
