"""Finite-set models: randomness deficiency, two-part codes, the structure
functions h/beta/lambda, sufficient-statistic search and the
(alpha, beta)-stochasticity predicate, over the SetLang descriptions of
``setlang``. A description's code length stands for the model complexity.

Conventions: deficiencies are *normalized* — delta_norm(x) is measured
from the most compressible member (max_y K(y|S) - K(x|S)), which is zero
exactly when x attains the in-set maximum; on this machine the raw
log|S| - K(x|S) carries a uniform negative offset that would make every
element look atypical.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, NamedTuple

# Bound, not run, here: distlang (and fractions with it) runs only when a
# set becomes a uniform-distribution condition.
from . import distlang
from .bits import (
    _fmt_real,
    bits_to_text,
    ceil_log2,
    check_bits,
    nat_to_bits,
    pair,
)
from .cache import TableSource
from .complexity import require_k, require_ks
from .condition import Condition
from .enumeration import ComplexityTable
from .setlang import All, Cyl, Hamming, SetDesc, Singleton, format_setlang

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
    x: str
    desc: SetDesc
    log_size: int  # ceil(log2 |S|)
    k_cond_set: int  # K(x | uniform-on-S model)
    delta_raw: int  # log_size - k_cond_set
    delta_norm: int  # max_y K(y|S) - K(x|S), always >= 0
    delta_star: int  # same, conditioned on (code, len(code)) as a string

    def typical(self, beta: int) -> bool:
        return self.delta_norm <= beta


def _normalized_deficiencies(
    x: str, members: list[str], table: ComplexityTable
) -> tuple[int, int]:
    """(K(x|.), max_y K(y|.) - K(x|.)) over the member list, read in one
    ``require_ks`` call."""
    ks = require_ks(table, members)
    kx = ks[members.index(x)] if x in members else require_k(table, x)
    return kx, max(ks, default=-1) - kx


def _model_conditions(desc: SetDesc) -> list[Condition]:
    """The two conditions a deficiency reads: S as a model, then (S, K(S))."""
    return [distlang.uniform_condition(desc), star_condition(desc)]


def deficiency(
    x: str,
    desc: SetDesc,
    source: TableSource = TableSource(),
) -> DeficiencyRecord:
    if not desc.member(x):
        raise ValueError(f"{bits_to_text(x)} is not in {format_setlang(desc)}")
    members = desc.denote()
    # read only at the members: built up to the longest of them
    uniform, star = source.tables(_model_conditions(desc), n=max(map(len, members)))
    return _deficiency(x, desc, members, uniform, star)


def _deficiency(
    x: str,
    desc: SetDesc,
    members: list[str],
    uniform: ComplexityTable,
    star: ComplexityTable,
) -> DeficiencyRecord:
    """The deficiencies of x in S from S's members and its two conditional
    tables, as ``_model_conditions`` orders them."""
    log_size = ceil_log2(desc.size())
    k_set, d_norm = _normalized_deficiencies(x, members, uniform)
    _, d_star = _normalized_deficiencies(x, members, star)
    return DeficiencyRecord(
        x=x,
        desc=desc,
        log_size=log_size,
        k_cond_set=k_set,
        delta_raw=log_size - k_set,
        delta_norm=d_norm,
        delta_star=d_star,
    )


def two_part(x: str, desc: SetDesc) -> int:
    """Model bits plus index bits: len(code) + ceil(log2 |S|)."""
    if not desc.member(x):
        raise ValueError(f"{bits_to_text(x)} is not in {format_setlang(desc)}")
    return desc.code_len + ceil_log2(desc.size())


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
    members: list[list[str]] = []
    tables: list[ComplexityTable] = []
    if include_deficiency:
        members = [desc.denote() for desc in models]
        conds = [c for desc in models for c in _model_conditions(desc)]
        # read only at the members, which all have the length of x
        tables = source.tables(conds, n=len(x))
    per_model: list[tuple[int, float, int | None, int | None]] = []
    for i, desc in enumerate(models):
        log2_size = math.log2(desc.size())
        if include_deficiency:
            uniform, star = tables[2 * i], tables[2 * i + 1]
            rec = _deficiency(x, desc, members[i], uniform, star)
            per_model.append((desc.code_len, log2_size, rec.delta_norm, rec.delta_star))
        else:
            per_model.append((desc.code_len, log2_size, None, None))

    rows: list[CurveRow] = []
    if models:
        first_alpha = models[0].code_len + 1
        for alpha in range(first_alpha, alpha_max + 1):
            eligible = [m for m in per_model if m[0] < alpha]
            h = min(m[1] for m in eligible)
            beta = min((m[2] for m in eligible), default=None) if include_deficiency else None
            beta_star = (
                min((m[3] for m in eligible), default=None) if include_deficiency else None
            )
            rows.append(CurveRow(alpha, h, beta, beta_star, h + alpha))
    return StructureCurve(x=x, alpha_max=alpha_max, rows=tuple(rows))


# -- sufficient statistics and stochasticity ----------------------------------


class SuffStatReport(NamedTuple):
    """The optimal models of x; ``suffstat`` reports set models (``SetDesc``),
    ``models_prob.suffstat_p`` distributions (``DistDesc``)."""

    x: str
    beta: int
    lambda_min: int
    optimal: tuple[Any, ...]  # two-part total <= lambda_min + beta
    minimal: Any  # least (code_len, code) among optimal
    in_class_sufficient: bool | None = None  # only when a reference lambda was given


def suffstat(
    x: str,
    beta: int = 0,
    family: Iterable[SetDesc] | None = None,
    reference_lambda: int | None = None,
) -> SuffStatReport:
    """Optimal models of x: those whose two-part total is within beta of
    the best achievable, by default among the base models of
    ``enumerate_models``. With an explicit ``family`` the search is
    class-restricted and, given ``reference_lambda`` (the unrestricted
    lambda_min), reports whether the class contains a sufficient
    statistic at this beta."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if family is None:
        family = enumerate_models(x, alpha_cap(x, beta))
    candidates = [(two_part(x, d), d) for d in family if d.member(x)]
    if not candidates:
        raise ValueError("family contains no model of x")
    return _optimal_models(x, beta, candidates, reference_lambda)


def _optimal_models(
    x: str, beta: int, candidates: list[tuple[int, Any]], reference_lambda: int | None
) -> SuffStatReport:
    """The report of the search over (two-part total, model) ``candidates``,
    set or distribution models: the least total, the models within beta of
    it by (code_len, code), the first of them, and whether the least total
    is within beta of ``reference_lambda``."""
    lambda_min = min(t for t, _ in candidates)
    optimal = sorted(
        (d for t, d in candidates if t <= lambda_min + beta), key=lambda d: (d.code_len, d.code)
    )
    in_class = None if reference_lambda is None else lambda_min <= reference_lambda + beta
    return SuffStatReport(x, beta, lambda_min, tuple(optimal), optimal[0], in_class)


def stochastic(x: str, alpha: int, beta: int, table: ComplexityTable) -> bool:
    """(alpha, beta)-stochastic within the family: some model of code
    length <= alpha contains x with ceil(log2|S|) - K(x) <= beta. Uses
    the one-part machine K from ``table`` (raises Absent if x is beyond
    its cap) and exact integer logs."""
    kx = require_k(table, x)
    for desc in enumerate_models(x, alpha + 1):
        if ceil_log2(desc.size()) - kx <= beta:
            return True
    return False


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
            _, d_star = _normalized_deficiencies(x, members, table)
            if d_star <= beta:
                best = desc.code_len
        if best is None:
            raise ValueError(
                f"no model of {bits_to_text(x)} below the alpha bound has delta_star <= {beta}"
            )
        min_len[x] = best
    histogram: dict[int, int] = {}
    for l in min_len.values():
        histogram[l] = histogram.get(l, 0) + 1
    top = max(min_len.values())
    argmax = tuple(sorted((x for x, l in min_len.items() if l == top)))
    return NonStochReport(n=n, beta=beta, min_len=min_len, histogram=histogram, argmax=argmax)
