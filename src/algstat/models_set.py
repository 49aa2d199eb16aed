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
from typing import Any, Iterable, Iterator, NamedTuple

# Bound, not run, here: distlang (and fractions with it) runs only when a
# set becomes a uniform-distribution condition.
from . import distlang
from .bits import (
    _fmt_real,
    bits_to_text,
    ceil_log2,
    check_bits,
    nat_len,
    nat_to_bits,
    pair,
    std_len,
)
from .cache import TableSource
from .complexity import require_k, require_ks
from .condition import Condition
from .enumeration import ComplexityTable
from .setlang import All, Cyl, Hamming, ListSet, SetDesc, Singleton, UnionSet, format_setlang

DEFAULT_ALPHA_BOUND = 36


# -- model enumeration -------------------------------------------------------


class ModelOpts(NamedTuple):
    union_width: int = 3  # max parts per union (depth stays 1: parts are base sets)
    list_cap: int = 4  # max elements per list
    alpha_bound: int = DEFAULT_ALPHA_BOUND


def _base_pool(budget: int) -> list[SetDesc]:
    """Every Singleton/All/Cyl/Hamming whose code fits in ``budget`` bits."""
    pool: list[SetDesc] = []
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


def _tuples_within(pool: list[tuple[int, object]], count: int, budget: int) -> Iterator[tuple]:
    """Ordered count-tuples with repetition whose entry costs sum <= budget.

    ``pool`` must be sorted by ascending cost so the prune below (this
    entry plus cheapest fillers for the remaining slots) can break."""
    if count == 0:
        yield ()
        return
    if not pool:
        return
    min_cost = pool[0][0]
    for cost, item in pool:
        if cost + (count - 1) * min_cost > budget:
            break
        for rest in _tuples_within(pool, count - 1, budget - cost):
            yield (item,) + rest


def enumerate_models(x: str, alpha_max: int, opts: ModelOpts | None = None) -> list[SetDesc]:
    """All descriptions in the family with member(x) and code length
    strictly below alpha_max, in deterministic (length, code) order.

    The family is the full grammar restricted to depth-1 unions of base
    sets (width <= opts.union_width) and lists of <= opts.list_cap
    elements; below 16 bits this equals the unrestricted grammar, which
    the blind-decoding oracle test pins down.
    """
    opts = opts or ModelOpts()
    if alpha_max > opts.alpha_bound:
        raise ValueError(f"alpha_max {alpha_max} exceeds configured bound {opts.alpha_bound}")
    check_bits(x)
    found: list[SetDesc] = []

    def consider(desc: SetDesc):
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
        pool = [(d.code_len, d) for d in _base_pool(budget - (count - 1) * min_part)]
        pool.sort(key=lambda t: (t[0], t[1].code))
        for parts in _tuples_within(pool, count, budget):
            if any(p.member(x) for p in parts):
                consider(UnionSet(parts))

    # lists: x must literally appear among the elements
    for count in range(1, opts.list_cap + 1):
        header = 3 + 2 * nat_len(count) + 1
        budget = alpha_max - 1 - header
        if std_len(len(x)) + (count - 1) > budget:  # x plus minimal others
            continue
        strings: list[tuple[int, str]] = []
        l = 0
        while std_len(l) + (count - 1) <= budget:
            strings.extend(
                (std_len(l), format(v, f"0{l}b") if l else "") for v in range(1 << l)
            )
            l += 1
        for elems in _tuples_within(strings, count, budget):
            if x in elems:
                consider(ListSet(elems))

    found.sort(key=lambda d: (d.code_len, d.code))
    return found


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
    uniform, star = source.k_tables(max(map(len, members)), _model_conditions(desc))
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


def alpha_cap(x: str, beta: int = 0, opts: ModelOpts | None = None) -> int:
    """The exclusive code-length cap of a model search for x: the least
    alpha at which Singleton(x) is a model below alpha (its two-part total
    plus one), plus the slack beta, clamped at the family's alpha bound.
    Every model within beta of the best two-part total has a shorter code,
    since Singleton(x)'s total bounds the best; long strings and runaway
    betas meet the clamp, where the class restriction binds."""
    return min(two_part(x, Singleton(x)) + 1 + beta, (opts or ModelOpts()).alpha_bound)


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
    opts: ModelOpts | None = None,
    include_deficiency: bool = True,
    source: TableSource = TableSource(),
) -> StructureCurve:
    """The h / beta / beta_star / lambda curves of x over the model family.

    h(alpha) minimizes real-valued log2|S| over models of code length
    strictly below alpha; beta curves minimize the normalized
    deficiencies; rows run from the first alpha admitting a model."""
    models = enumerate_models(x, alpha_max, opts)
    members: list[list[str]] = []
    tables: list[ComplexityTable] = []
    if include_deficiency:
        members = [desc.denote() for desc in models]
        conds = [c for desc in models for c in _model_conditions(desc)]
        # read only at the members: built up to the longest of them
        reach = max((len(m) for elems in members for m in elems), default=0)
        tables = source.k_tables(reach, conds)
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
    opts: ModelOpts | None = None,
    family: Iterable[SetDesc] | None = None,
    reference_lambda: int | None = None,
) -> SuffStatReport:
    """Optimal models of x: those whose two-part total is within beta of
    the best achievable. With an explicit ``family`` the search is
    class-restricted and, given ``reference_lambda`` (the unrestricted
    lambda_min), reports whether the class contains a sufficient
    statistic at this beta."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if family is None:
        family = enumerate_models(x, alpha_cap(x, beta, opts), opts)
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


def stochastic(
    x: str,
    alpha: int,
    beta: int,
    table: ComplexityTable,
    opts: ModelOpts | None = None,
) -> bool:
    """(alpha, beta)-stochastic within the family: some model of code
    length <= alpha contains x with ceil(log2|S|) - K(x) <= beta. Uses
    the one-part machine K from ``table`` (raises Absent if x is beyond
    its cap) and exact integer logs."""
    kx = require_k(table, x)
    for desc in enumerate_models(x, alpha + 1, opts):
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


def nonstoch_scan(
    n: int,
    beta: int,
    opts: ModelOpts | None = None,
    source: TableSource = TableSource(),
) -> NonStochReport:
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
        for desc in enumerate_models(x, alpha_cap(x, 0, opts), opts):
            if best is not None and desc.code_len >= best:
                break  # models come sorted by length
            members = desc.denote()
            cond = star_condition(desc)
            table = tables.get(cond.fingerprint())
            if table is None:
                # read only at the members: built up to the longest of them
                [table] = source.k_tables(max(map(len, members)), [cond])
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
