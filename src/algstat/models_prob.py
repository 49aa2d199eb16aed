"""Distribution models: the distribution entry points of the one
explicit-model engine of ``models_set``, and the weight-class (Bernoulli)
demonstration.

A distribution (``distlang.DistDesc``) is a model through the interface
that a set shares: ``code_len``, ``member`` (positive mass) and
``codeword_len`` (ceil(-log2 P(x))). So ``models_set.two_part``, its
``DeficiencyRecord`` and its ``suffstat`` serve both. A set S is the
uniform distribution on S: ``UniformOn(S)`` is the very condition a set
deficiency reads, and gives the same K(x|model) and delta_norm.
``deficiency_p`` reads one conditional table, with no star table, and
``suffstat_p`` supplies the default family of uniform wraps.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .bits import bits_to_text
from .cache import TableSource
from .complexity import require_k
from .condition import Condition
from .distlang import DistDesc, UniformOn
from .enumeration import ComplexityTable
from .models_set import (
    DeficiencyRecord,
    SuffStatReport,
    _least_deficient,
    alpha_cap,
    enumerate_models,
    suffstat,
    two_part,
)
from .setlang import Hamming


# -- deficiency and sufficient statistics --------------------------------------


def deficiency_p(x: str, dist: DistDesc, source: TableSource = TableSource()) -> DeficiencyRecord:
    """Randomness deficiency of x within dist, normalized against the
    least-deficient domain element. For UniformOn(S) it equals the set
    deficiency, whose uniform condition is the same object. A distribution
    has no star table, so ``delta_star`` is None."""
    codeword_len = dist.codeword_len(x)  # raises when x has zero mass
    domain = dist.domain()
    # read only at the domain: built up to its longest member
    [table] = source.tables([Condition.of_model(dist)], n=max(map(len, domain)))
    kx, best_y, best_k, ratio = _least_deficient(x, domain, table, dist.mass)
    return DeficiencyRecord(x, dist, codeword_len, kx, best_y, best_k, ratio, delta_star=None)


def suffstat_p(x: str, beta: int = 0, family: Iterable[DistDesc] | None = None) -> SuffStatReport:
    """``models_set.suffstat`` over distributions. The default family is the
    uniform wrap of the base set models of ``enumerate_models`` (each S
    becomes UniformOn(S), two extra tag bits), so every total is its set's
    plus 2 and the optimal models are the wraps of the set ones. It leaves
    Bernoulli models out: over every x of length 4, 6, 8 and 10 the best
    Bernoulli(n, k/d) two-part length is 5-9 bits above the set lambda, so
    they would move no answer on this grammar. Pass ``family`` for a
    restricted class."""
    if family is None:
        # a uniform wrap adds 2 bits to a set's code and to its two-part
        # total, so the set search range serves the wrapped family
        family = [UniformOn(d) for d in enumerate_models(x, alpha_cap(x, beta))]
    return suffstat(x, beta, family)


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
