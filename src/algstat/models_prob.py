"""Distribution models: deficiency, typicality, two-part totals and the
sufficient-statistic search over the DistLang descriptions of
``distlang``, mirroring the finite-set module. The uniform wrapper
reproduces the set semantics exactly (identical condition object,
identical conditional table). Also S^k as a distribution and the
weight-class (Bernoulli) demonstration.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, NamedTuple

from .bits import bits_to_text
from .cache import TableSource
from .complexity import require_k, require_ks
from .condition import Condition
from .distlang import DistDesc, UniformOn, _neglog, codeword_length, format_distlang
from .enumeration import ComplexityTable
from .models_set import (
    SuffStatReport,
    _optimal_models,
    alpha_cap,
    enumerate_models,
    suffstat,
    two_part,
)
from .setlang import Hamming, ListSet


# -- deficiency, typicality, two-part ------------------------------------------


class ProbDeficiencyRecord(NamedTuple):
    x: str
    dist: DistDesc
    neglog: float
    k_cond: int  # K(x | Model(dist))
    delta_raw: float  # neglog - k_cond, before shifting out the machine's offset
    delta_norm: float  # delta_raw - min_y delta_raw(y), always >= 0
    mass: Fraction  # m(x) under dist
    best_y: str  # the least-deficient domain element
    best_mass: Fraction  # m(best_y)
    best_k: int  # K(best_y | Model(dist))

    def typical(self, beta: int) -> bool:
        """delta_norm <= beta, decided exactly: delta_norm is
        log2(m(best_y) / m(x)) - K(x) + K(best_y), so the test is
        m(best_y) <= m(x) * 2^(beta + K(x) - K(best_y)) in rationals. The
        float fields are for display only."""
        return self.best_mass <= self.mass * Fraction(2) ** (
            operator.index(beta) + self.k_cond - self.best_k
        )


def deficiency_p(
    x: str,
    dist: DistDesc,
    source: TableSource = TableSource(),
) -> ProbDeficiencyRecord:
    """Randomness deficiency of x within dist, normalized against the
    least-deficient domain element. The winner of the normalization is
    found by exact rational comparison (score = mass * 2^K, descending in
    deficiency), so no float tie-breaking is involved; only the reported
    gap is a real. For UniformOn this equals the finite-set deficiency —
    the condition object is the same."""
    mx = dist.mass(x)
    if mx == 0:
        raise ValueError(f"{bits_to_text(x)} has zero mass under {format_distlang(dist)}")
    domain = dist.domain()
    # read only at the domain: built up to its longest member
    [table] = source.tables([Condition.of_model(dist)], n=max(map(len, domain)))
    kx = require_k(table, x)
    ks = require_ks(table, domain)
    # large score = small deficiency; the first of equal scores wins
    best_y, best_k, best_mass = max(
        zip(domain, ks, map(dist.mass, domain)), key=lambda e: e[2] * (1 << e[1])
    )
    delta_raw = _neglog(mx) - kx
    delta_norm = delta_raw - (_neglog(best_mass) - best_k)
    return ProbDeficiencyRecord(
        x=x, dist=dist, neglog=_neglog(mx), k_cond=kx,
        delta_raw=delta_raw, delta_norm=delta_norm,
        mass=mx, best_y=best_y, best_mass=best_mass, best_k=best_k,
    )


def two_part_p(x: str, dist: DistDesc) -> int:
    """Model bits plus ideal-code bits: len(code) + ceil(-log2 mass(x))."""
    return dist.code_len + codeword_length(dist, x)


def suffstat_p(
    x: str,
    beta: int = 0,
    family: Iterable[DistDesc] | None = None,
    reference_lambda: int | None = None,
) -> SuffStatReport:
    """Distribution-level sufficient statistics, as a ``SuffStatReport``
    whose models are distributions. The default family is the uniform
    wrap of the base set models of ``enumerate_models`` (each S becomes
    UniformOn(S), two extra tag bits), which keeps set-stochastic strings
    quasistochastic at the measured constant; a wrapped union or list
    would be beaten as the set is. It leaves Bernoulli models
    out: over every x of length 4, 6, 8 and 10 the best Bernoulli(n, k/d)
    two-part length is 5-9 bits above the set lambda, so they would move
    no answer on this grammar. Pass ``family`` for a restricted class,
    plus ``reference_lambda`` to have the report state whether the class
    stays within beta of the unrestricted total."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if family is None:
        # a uniform wrap adds 2 bits to a set's code and to its two-part
        # total, so the set search range serves the wrapped family
        family = [UniformOn(d) for d in enumerate_models(x, alpha_cap(x, beta))]
    candidates = [(two_part_p(x, d), d) for d in family if d.mass(x) > 0]
    if not candidates:
        raise ValueError("family gives x zero mass everywhere")
    return _optimal_models(x, beta, candidates, reference_lambda)


# -- complexity-level sets as distributions ------------------------------------


def pk(table: ComplexityTable, k: int) -> UniformOn:
    """Uniform distribution on S^k = {x : K(x) <= k}, materialized as an
    explicit list in canonical order."""
    if k > table.L:
        raise ValueError(f"k={k} exceeds the table cap L={table.L}")
    outs = table.sorted_outputs()
    members = [x for x, kx in zip(outs, table.sorted_ks()) if kx <= k]
    if not members:
        raise ValueError(f"no strings of complexity <= {k} in the table")
    return UniformOn(ListSet(tuple(members)))


# -- Bernoulli / weight-class demonstration ------------------------------------


class DemoRow(NamedTuple):
    x: str
    weight: int
    k: int
    hamming_total: int  # two-part total through the weight-class model
    lambda_min: int  # unrestricted two-part optimum
    flagged: bool  # weight-class total exceeds K(x) + beta


class BernoulliDemoReport(NamedTuple):
    n: int
    beta: int
    rows: tuple[DemoRow, ...]

    @property
    def flagged(self) -> tuple[str, ...]:
        return tuple(r.x for r in self.rows if r.flagged)

    def row_of(self, x: str) -> DemoRow:
        for r in self.rows:
            if r.x == x:
                return r
        raise KeyError(bits_to_text(x))

    def to_csv(self) -> str:
        lines = ["x,weight,K,hamming_total,lambda_min,flagged"]
        for r in self.rows:
            lines.append(
                f"{bits_to_text(r.x)},{r.weight},{r.k},{r.hamming_total},"
                f"{r.lambda_min},{int(r.flagged)}"
            )
        return "\n".join(lines) + "\n"


def check_demo_n(n: int) -> None:
    """Raise ValueError unless ``bernoulli_demo`` covers n-bit strings:
    n even, 0 <= n <= 12."""
    if n < 0 or n % 2 != 0 or n > 12:
        raise ValueError("demo needs even n with 0 <= n <= 12")


def bernoulli_demo(table: ComplexityTable, n: int, beta: int) -> BernoulliDemoReport:
    """The restricted-class demonstration: within the weight-class
    (Hamming) family the only model of x is Hamming(n, weight(x)); x is
    flagged when that class total cannot compete with the machine's own
    one-part code at slack beta. Regular strings of balanced weight —
    (01)^(n/2) foremost — get flagged while typical strings of the same
    weight do not."""
    check_demo_n(n)
    rows = []
    for v in range(1 << n):
        x = format(v, f"0{n}b") if n else ""
        weight = x.count("1")
        kx = require_k(table, x)
        hamming_total = two_part(x, Hamming(n, weight))
        lam = suffstat(x, beta).lambda_min
        rows.append(
            DemoRow(
                x=x,
                weight=weight,
                k=kx,
                hamming_total=hamming_total,
                lambda_min=lam,
                flagged=hamming_total > kx + beta,
            )
        )
    return BernoulliDemoReport(n=n, beta=beta, rows=tuple(rows))
