"""Classical-vs-machine information audits on small exact joint models.

A joint model is a finite parameter set with exact rational priors and a
per-parameter distribution over strings. Classical quantities (mutual
information, sufficiency of a statistic) are computed from the definition
with exact masses; their machine-side analogues are read off enumeration
tables. The gap between the two sides is a machine constant with no
theoretical value here, so audits measure it and the constants file
freezes the measurement for regression.

Parameters are materialized as label strings: K(theta) always means K of
the label, and conditioning on theta means conditioning on the label's
canonical witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import sub
from typing import Callable, Iterable, NamedTuple, Sequence

from ._record import Record
from .bits import (
    CodeError,
    _fmt_real,
    bar_nat,
    bits_to_nat,
    bits_to_text,
    ceil_log2,
    check_bits,
    nat_to_bits,
    pair_len,
    std,
    text_to_bits,
)
from .cache import TableSource
from .complexity import (
    DEFAULT_SOI_LEN_CAP,
    _all_strings,
    _require_rows,
    mutual_info,
    require_k,
    soi_audit,
    witness_tables,
)
from .condition import Budgets, Condition
from .distlang import Bernoulli, DistDesc, TableDist, _rat_bits, format_distlang, parse_distlang
from .enumeration import ComplexityTable
from .machine import Op, run
from .setlang import Hamming, SetDesc
from .skstats import _dyadic_csv, logn_gap, slice_bound_check, xr_bound_check

TOL = 1e-9
DEFAULT_NI_LEN_CAP = 6
MASS_TARGET = Fraction(9, 10)
PRIOR_SWEEP_STEPS = 9


class JointModelError(ValueError):
    """Malformed joint model, statistic, or joint-model file input."""


def _canon_key(x: str) -> tuple[int, str]:
    return (len(x), x)


def _log2_frac(q: Fraction) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


# -- joint models and statistics ----------------------------------------------


class JointModel(Record):
    """p(i, x) = priors[i] * dists[i].mass(x), everything an exact rational.

    Labels are distinct bit strings; priors sum to exactly 1. Per-label
    mass totals are not re-checked here: the distribution types already
    guarantee a total of at most 1 each.
    """

    __slots__ = ("thetas", "priors", "dists")

    def __init__(
        self,
        thetas: tuple[str, ...],
        priors: tuple[Fraction, ...],
        dists: tuple[DistDesc, ...],
    ):
        if not thetas:
            raise JointModelError("a joint model needs at least one parameter")
        if len(set(thetas)) != len(thetas):
            raise JointModelError("duplicate parameter labels")
        for label in thetas:
            check_bits(label)
        if not (len(priors) == len(dists) == len(thetas)):
            raise JointModelError("labels, priors and distributions must align")
        priors = tuple(Fraction(p) for p in priors)
        if any(p < 0 for p in priors):
            raise JointModelError("priors must be nonnegative")
        if sum(priors, Fraction(0)) != 1:
            raise JointModelError("priors must sum to exactly 1")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "dists", dists)

    def x_domain(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for d in self.dists:
            seen.update(d.domain())
        return tuple(sorted(seen, key=_canon_key))

    def support(self) -> list[tuple[int, str, Fraction]]:
        """(parameter index, x, joint mass) triples with positive mass,
        in deterministic (parameter, then canonical x) order."""
        out: list[tuple[int, str, Fraction]] = []
        for i, (p1, d) in enumerate(zip(self.priors, self.dists)):
            if p1 == 0:
                continue
            for x in d.domain():
                out.append((i, x, p1 * d.mass(x)))
        return out

    def marginal(self) -> dict[str, Fraction]:
        p2: dict[str, Fraction] = {}
        for _, x, p in self.support():
            p2[x] = p2.get(x, Fraction(0)) + p
        return p2

    def with_priors(self, priors: Sequence[Fraction]) -> "JointModel":
        return JointModel(self.thetas, tuple(priors), self.dists)

    def code(self) -> str:
        """Deterministic self-delimiting encoding of the whole joint; its
        length is the description-length proxy reported by the
        expected-information audit."""
        parts = [bar_nat(len(self.thetas))]
        for label, p, d in zip(self.thetas, self.priors, self.dists):
            parts.append(std(label))
            parts.append(_rat_bits(p))
            parts.append(d.code)
        return "".join(parts)


_STAT_KINDS = ("weight", "identity", "constant", "map")


class Statistic(Record):
    """Total map from data strings to label strings.

    ``weight`` sends x to the canonical name of its 1-count, ``identity``
    to x itself, ``constant`` to the empty string; ``map`` looks entries
    up in an explicit table and is total only on its keys.
    """

    # lookup, the map's table as a dict, derived from table and so not part
    # of the record's identity or repr
    __slots__ = ("kind", "table", "lookup")

    def __init__(self, kind: str, table: tuple[tuple[str, str], ...] = ()):
        if kind not in _STAT_KINDS:
            raise JointModelError(f"unknown statistic kind {kind!r}")
        if kind == "map":
            for k, v in table:
                check_bits(k)
                check_bits(v)
            keys = [k for k, _ in table]
            if len(set(keys)) != len(keys):
                raise JointModelError("duplicate keys in map statistic")
            table = tuple(sorted(table, key=lambda kv: _canon_key(kv[0])))
        elif table:
            raise JointModelError(f"{kind} statistic takes no table")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "lookup", dict(table))

    def _values(self) -> tuple:
        return self.kind, self.table

    def __call__(self, x: str) -> str:
        if self.kind == "weight":
            return nat_to_bits(x.count("1"))
        if self.kind == "identity":
            return x
        if self.kind == "constant":
            return ""
        try:
            return self.lookup[x]
        except KeyError:
            raise JointModelError(f"map statistic is not defined on {bits_to_text(x)}") from None


def parse_statistic(text: str) -> Statistic:
    t = text.strip()
    if t in ("weight", "identity", "constant"):
        return Statistic(t)
    if t.startswith("map{") and t.endswith("}"):
        inner = t[4:-1].strip()
        entries = []
        if inner:
            for item in inner.split(","):
                k, sep, v = item.partition(":")
                if not sep:
                    raise JointModelError(f"map entry {item.strip()!r} needs the form x:label")
                entries.append((text_to_bits(k.strip()), text_to_bits(v.strip())))
        return Statistic("map", tuple(entries))
    raise JointModelError(f"unknown statistic {text!r}")


def format_statistic(statistic: Statistic) -> str:
    if statistic.kind != "map":
        return statistic.kind
    body = ",".join(f"{bits_to_text(k)}:{bits_to_text(v)}" for k, v in statistic.table)
    return "map{" + body + "}"


def _on_line(lineno: int, parse: Callable[[str], object], text: str):
    """``parse(text)``, with a bad input reported at its file line."""
    try:
        return parse(text)
    except (CodeError, JointModelError) as exc:
        raise JointModelError(f"line {lineno}: {exc}") from exc


def parse_joint_text(text: str) -> tuple[JointModel, Statistic | None]:
    """Joint-model file: ``theta <label> <prior>`` lines, then ``dist
    <label> <distribution>`` lines, optionally one ``statistic <kind>``
    line. '-' names the empty string; blank lines and #-comments pass."""
    thetas: list[str] = []
    priors: list[Fraction] = []
    dist_by: dict[str, DistDesc] = {}
    statistic: Statistic | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "theta":
            parts = rest.split()
            if len(parts) != 2:
                raise JointModelError(f"line {lineno}: expected 'theta <label> <prior>'")
            label = _on_line(lineno, text_to_bits, parts[0])
            if label in thetas:
                raise JointModelError(f"line {lineno}: duplicate theta {parts[0]}")
            try:
                prior = Fraction(parts[1])
            except (ValueError, ZeroDivisionError):
                raise JointModelError(f"line {lineno}: bad prior {parts[1]!r}") from None
            thetas.append(label)
            priors.append(prior)
        elif head == "dist":
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise JointModelError(f"line {lineno}: expected 'dist <label> <distribution>'")
            label = _on_line(lineno, text_to_bits, parts[0])
            if label in dist_by:
                raise JointModelError(f"line {lineno}: duplicate dist for {parts[0]}")
            dist_by[label] = _on_line(lineno, parse_distlang, parts[1])
        elif head == "statistic":
            if statistic is not None:
                raise JointModelError(f"line {lineno}: more than one statistic line")
            statistic = _on_line(lineno, parse_statistic, rest)
        else:
            raise JointModelError(f"line {lineno}: unknown directive {head!r}")
    if not thetas:
        raise JointModelError("no theta lines")
    for label in dist_by:
        if label not in thetas:
            raise JointModelError(f"dist line for unknown theta {bits_to_text(label)}")
    missing = [label for label in thetas if label not in dist_by]
    if missing:
        raise JointModelError(f"no dist line for theta {bits_to_text(missing[0])}")
    joint = JointModel(tuple(thetas), tuple(priors), tuple(dist_by[t] for t in thetas))
    return joint, statistic


def format_joint_text(joint: JointModel, statistic: Statistic | None = None) -> str:
    lines = [
        f"theta {bits_to_text(label)} {prior}"
        for label, prior in zip(joint.thetas, joint.priors)
    ]
    lines.extend(
        f"dist {bits_to_text(label)} {format_distlang(dist)}"
        for label, dist in zip(joint.thetas, joint.dists)
    )
    if statistic is not None:
        lines.append(f"statistic {format_statistic(statistic)}")
    return "\n".join(lines) + "\n"


# -- classical side -----------------------------------------------------------


def prior_sweep(joint: JointModel) -> list[tuple[Fraction, ...]]:
    """The joint's own prior followed by ``PRIOR_SWEEP_STEPS`` (9)
    full-support grid priors: the i-th mixes the uniform prior with a
    point mass on parameter i mod m at weight i/(PRIOR_SWEEP_STEPS+1).
    Exact rationals."""
    m = len(joint.thetas)
    unif = Fraction(1, m)
    rows = [joint.priors]
    for i in range(1, PRIOR_SWEEP_STEPS + 1):
        w = Fraction(i, PRIOR_SWEEP_STEPS + 1)
        rows.append(
            tuple((1 - w) * unif + (w if j == i % m else 0) for j in range(m))
        )
    return rows


def pushforward(joint: JointModel, statistic: Statistic) -> JointModel:
    """The joint on (parameter, statistic value): each per-parameter
    distribution becomes an explicit table carrying the transported
    masses."""
    dists = []
    for d in joint.dists:
        acc: dict[str, Fraction] = {}
        for x in d.domain():
            t = statistic(x)
            acc[t] = acc.get(t, Fraction(0)) + d.mass(x)
        entries = tuple(sorted(acc.items(), key=lambda kv: _canon_key(kv[0])))
        dists.append(TableDist(entries))
    return JointModel(joint.thetas, joint.priors, tuple(dists))


class ProbMIReport(NamedTuple):
    i: float
    h_theta: float
    h_x: float
    h_joint: float


def prob_mi(joint: JointModel) -> ProbMIReport:
    """Mutual information between parameter and data, computed from the
    definition with exact masses and real logs (``TOL``, 1e-9, is the
    grain of ``ExpectedMIReport.slack_bits``). Entropies come along for free."""
    support = joint.support()
    p2 = joint.marginal()
    i_val = 0.0
    h_joint = 0.0
    for idx, x, p in support:
        i_val += float(p) * _log2_frac(p / (joint.priors[idx] * p2[x]))
        h_joint -= float(p) * _log2_frac(p)
    h_theta = -sum(float(p) * _log2_frac(p) for p in joint.priors if p > 0)
    h_x = -sum(float(p) * _log2_frac(p) for p in p2.values() if p > 0)
    return ProbMIReport(i_val, h_theta, h_x, h_joint)


class PriorCheckRow(NamedTuple):
    priors: tuple[Fraction, ...]
    i_data: float
    i_statistic: float
    sufficient: bool


class SuffCheckReport(NamedTuple):
    statistic: Statistic
    rows: tuple[PriorCheckRow, ...]

    @property
    def sufficient(self) -> bool:
        return all(r.sufficient for r in self.rows)

    def to_csv(self) -> str:
        lines = ["prior,I_data,I_statistic,sufficient"]
        for r in self.rows:
            prior = "|".join(str(p) for p in r.priors)
            lines.append(
                f"{prior},{_fmt_real(r.i_data)},{_fmt_real(r.i_statistic)},{int(r.sufficient)}"
            )
        return "\n".join(lines) + "\n"


def _conditional_masses(
    joint: JointModel, statistic: Statistic
) -> list[list[Fraction | None]]:
    """Per parameter, p_theta(x | T = T(x)) at each x of the joint's whole
    domain, None where p_theta(T = T(x)) = 0. Every parameter is read at
    every x, the ones it gives no mass included."""
    xs = joint.x_domain()
    ts = [statistic(x) for x in xs]
    out = []
    for d in joint.dists:
        masses = [d.mass(x) for x in xs]
        t_mass: dict[str, Fraction] = {}
        for t, m in zip(ts, masses):
            t_mass[t] = t_mass.get(t, 0) + m
        out.append([m / t_mass[t] if t_mass[t] else None for t, m in zip(ts, masses)])
    return out


def _fisher_neyman(cond: list[list[Fraction | None]], params: Iterable[int]) -> bool:
    """The exact Fisher–Neyman test over the parameter indices ``params``:
    at every x, p_theta(x | T = T(x)) is one value across the parameters
    that give T(x) positive mass. ``cond`` is ``_conditional_masses``."""
    return all(
        len({q for q in column if q is not None}) <= 1
        for column in zip(*(cond[i] for i in params))
    )


def prob_suff_check(
    joint: JointModel,
    statistic: Statistic,
    priors: Iterable[Sequence[Fraction]] | None = None,
) -> SuffCheckReport:
    """Does the statistic preserve all parameter information, at each
    prior of the sweep? A row's verdict is the exact Fisher–Neyman test
    (see ``_fisher_neyman``) over the parameters its prior weights
    positively; that is exactly when I(parameter; data) equals
    I(parameter; statistic) at that prior. The two informations are
    carried as real numbers for display only and decide nothing."""
    sweep = prior_sweep(joint) if priors is None else [tuple(p) for p in priors]
    cond = _conditional_masses(joint, statistic)
    rows = []
    for pr in sweep:
        j = joint.with_priors(pr)
        i_x = prob_mi(j).i
        i_t = prob_mi(pushforward(j, statistic)).i
        verdict = _fisher_neyman(cond, (i for i, p in enumerate(pr) if p > 0))
        rows.append(PriorCheckRow(tuple(pr), i_x, i_t, verdict))
    return SuffCheckReport(statistic, tuple(rows))


# -- expected information vs the classical value ------------------------------


class ExpectedMIRow(NamedTuple):
    theta: str
    x: str
    p: Fraction
    i_alg: int


class ExpectedMIReport(NamedTuple):
    rows: tuple[ExpectedMIRow, ...]
    expected: Fraction  # sum of p * I(label : x), exact
    prob_i: float
    k_p: int  # length of the joint's own encoding

    @property
    def slack(self) -> float:
        return abs(float(self.expected) - self.prob_i)

    @property
    def slack_bits(self) -> int:
        return max(0, math.ceil(self.slack - TOL))

    def to_csv(self) -> str:
        lines = ["theta,x,p,I_alg"]
        lines.extend(
            f"{bits_to_text(r.theta)},{bits_to_text(r.x)},{r.p},{r.i_alg}" for r in self.rows
        )
        return "\n".join(lines) + "\n"


def expected_mi_reach(joint: JointModel) -> int:
    """The longest string ``expected_mi_audit`` looks up in its table: the
    pair of a label with a data string of positive joint mass."""
    return max(
        (pair_len(len(joint.thetas[idx]), len(x)) for idx, x, _ in joint.support()), default=0
    )


def expected_mi_audit(joint: JointModel, table: ComplexityTable) -> ExpectedMIReport:
    """Average table information between parameter label and data versus
    the classical mutual information. The two agree only up to the
    description length of the joint itself, so the audit reports the
    joint's encoding length alongside the measured slack."""
    rows = []
    for idx, x, p in joint.support():
        rec = mutual_info(table, joint.thetas[idx], x)
        rows.append(ExpectedMIRow(joint.thetas[idx], x, p, rec.i))
    expected = sum((r.p * r.i_alg for r in rows), Fraction(0))
    return ExpectedMIReport(tuple(rows), expected, prob_mi(joint).i, len(joint.code()))


# -- processing cannot create information -------------------------------------


class Transform(NamedTuple):
    """A straight-line machine program family. For each input x the
    builder returns program bits that, run with condition Str(x), write
    the transformed string; the program's length prices the transform."""

    name: str
    builder: Callable[[str], str]

    def program_for(self, x: str) -> str:
        return self.builder(x)

    def apply(self, x: str, budgets: Budgets | None = None) -> tuple[str, str]:
        program = self.builder(x)
        outcome = run(program, Condition.string(x), budgets)
        if not outcome.halted:
            raise ValueError(
                f"transform {self.name!r} fails on {bits_to_text(x)}: {outcome.status.name}"
            )
        return program, outcome.output


def _copy_tokens(m: int) -> str:
    parts = []
    for nbits, cc in ((8, "11"), (4, "10"), (2, "01"), (1, "00")):
        while m >= nbits:
            parts.append(Op.COPYIN.value + cc)
            m -= nbits
    return "".join(parts)


def copy_transform() -> Transform:
    return Transform("copy", lambda x: _copy_tokens(len(x)) + Op.HALT.value)


def drop_last_transform() -> Transform:
    return Transform("drop-last", lambda x: _copy_tokens(max(0, len(x) - 1)) + Op.HALT.value)


def const_empty_transform() -> Transform:
    return Transform("const-empty", lambda x: Op.HALT.value)


def default_transforms() -> tuple[Transform, ...]:
    return (drop_last_transform(), copy_transform(), const_empty_transform())


class TransformMax(NamedTuple):
    name: str
    max_deficit: int
    argmax: tuple[str, str]  # (x, y)


class NonincreaseReport(NamedTuple):
    len_cap: int
    pairs_checked: int
    per_transform: tuple[TransformMax, ...]

    @property
    def max_deficit(self) -> int:
        return max(t.max_deficit for t in self.per_transform)

    def to_csv(self) -> str:
        lines = ["transform,max_deficit,x,y"]
        lines.extend(
            f"{t.name},{t.max_deficit},{bits_to_text(t.argmax[0])},{bits_to_text(t.argmax[1])}"
            for t in self.per_transform
        )
        return "\n".join(lines) + "\n"


def _applied(
    transforms: Sequence[Transform], xs: Sequence[str], budgets: Budgets
) -> dict[tuple[str, str], tuple[str, str]]:
    """(transform name, x) -> (program, q(x)) for every transform q and x."""
    return {(q.name, x): q.apply(x, budgets) for q in transforms for x in xs}


def nonincrease_audit(
    table: ComplexityTable,
    len_cap: int = DEFAULT_NI_LEN_CAP,
    source: TableSource = TableSource(),
) -> NonincreaseReport:
    """Max over (x, y, q) of I(q(x):y) - I(x:y) - l(q), with I(a:b) =
    K(b) - K(b | a's witness), q one of ``default_transforms()`` and q
    actually run on the machine. ``table`` is read at the swept strings
    and their images, whose witnesses condition the other tables
    (``witness_tables``); those are read only at the swept strings."""
    transforms = default_transforms()
    xs = _all_strings(len_cap)
    applied = _applied(transforms, xs, source.budgets)
    needed = set(xs) | {out for _, out in applied.values()}
    # given[a][j] = K(x_j | a*) for each label a.
    labels = sorted(needed, key=_canon_key)
    given = dict(zip(labels, _require_rows(witness_tables(table, labels, len_cap, source), xs)))

    per: list[TransformMax] = []
    for q in transforms:
        best, arg = None, ("", "")
        for x in xs:
            program, out = applied[(q.name, x)]
            # K(y) cancels between the two information terms.
            deficit = max(map(sub, given[x], given[out])) - len(program)
            if best is None or deficit > best:
                gaps = list(map(sub, given[x], given[out]))
                best, arg = deficit, (x, xs[gaps.index(deficit + len(program))])
        assert best is not None
        per.append(TransformMax(q.name, best, arg))
    return NonincreaseReport(len_cap, len(xs) * len(xs), tuple(per))


# -- parameter sufficiency on the machine side --------------------------------


class ThetaSuffRow(NamedTuple):
    theta: str
    x: str
    s_x: str
    p: Fraction
    d: int


class ThetaSuffReport(NamedTuple):
    rows: tuple[ThetaSuffRow, ...]
    prob_sufficient: bool

    def mass_leq(self, threshold: int) -> Fraction:
        return sum((r.p for r in self.rows if r.d <= threshold), Fraction(0))

    def minimal_tau(self) -> int:
        """Smallest integer threshold whose deficiency mass reaches
        ``MASS_TARGET`` (9/10)."""
        total = Fraction(0)
        for d in sorted({r.d for r in self.rows}):
            total = self.mass_leq(d)
            if total >= MASS_TARGET:
                return d
        raise ValueError(f"total mass {total} never reaches {MASS_TARGET}")

    def to_csv(self) -> str:
        lines = ["theta,x,statistic,p,d"]
        lines.extend(
            f"{bits_to_text(r.theta)},{bits_to_text(r.x)},{bits_to_text(r.s_x)},{r.p},{r.d}"
            for r in self.rows
        )
        return "\n".join(lines) + "\n"


def theta_reach(joint: JointModel, statistic: Statistic) -> int:
    """The longest string ``theta_suff_audit`` and ``suff_identity_audit``
    look up in their unconditional table: the labels, the data strings and
    the statistic's values."""
    xs = joint.x_domain()
    strings = set(xs) | {statistic(x) for x in xs} | set(joint.thetas)
    return max(map(len, strings))


def _deficiency_terms(
    joint: JointModel,
    statistic: Statistic,
    table: ComplexityTable,
    source: TableSource,
) -> dict[str, ComplexityTable]:
    """The table conditioned on each label's witness. It is read only at
    the data strings and the statistic's values, so it is built for
    lookups of the longest of them."""
    xs = joint.x_domain()
    read = set(xs) | {statistic(x) for x in xs}
    labels = sorted(joint.thetas, key=_canon_key)
    return dict(zip(labels, witness_tables(table, labels, max(map(len, read)), source)))


def theta_suff_audit(
    joint: JointModel,
    statistic: Statistic,
    table: ComplexityTable,
    source: TableSource = TableSource(),
) -> ThetaSuffReport:
    """Per-(parameter, x) deficiency d = I(theta:x) - I(theta:S(x)) with
    I(a:b) = K(b) - K(b | a's witness), with the joint mass of each row
    (``mass_leq`` and ``minimal_tau`` read it). The report also carries
    the classical sufficiency verdict so both directions of the
    correspondence can be read off one object: small-deficiency mass
    tracks classical sufficiency and vice versa. That verdict is the
    exact Fisher–Neyman test over every parameter of the family, whatever
    the prior, in one pass over the joint's domain; it computes no mutual
    information."""
    cond_tables = _deficiency_terms(joint, statistic, table, source)
    rows = []
    for idx, x, p in joint.support():
        label = joint.thetas[idx]
        s_x = statistic(x)
        given = cond_tables[label]
        i_x = require_k(table, x) - require_k(given, x)
        i_s = require_k(table, s_x) - require_k(given, s_x)
        rows.append(ThetaSuffRow(label, x, s_x, p, i_x - i_s))
    verdict = _fisher_neyman(_conditional_masses(joint, statistic), range(len(joint.thetas)))
    return ThetaSuffReport(tuple(rows), verdict)


class SuffIdentityRow(NamedTuple):
    x: str
    theta_star: str
    lhs: int  # K(x | best label's witness) + d
    rhs: int  # K(S(x) | same witness) + model cost of S(x)'s class


class SuffIdentityReport(NamedTuple):
    rows: tuple[SuffIdentityRow, ...]

    @property
    def max_gap(self) -> int:
        return max(abs(r.lhs - r.rhs) for r in self.rows)

    def to_csv(self) -> str:
        lines = ["x,theta_star,lhs,rhs"]
        lines.extend(
            f"{bits_to_text(r.x)},{bits_to_text(r.theta_star)},{r.lhs},{r.rhs}"
            for r in self.rows
        )
        return "\n".join(lines) + "\n"


def weight_models(n: int) -> Callable[[str], SetDesc]:
    """Associate each weight label with the set of length-n strings of
    that weight, giving the statistic's value a concrete model class."""

    def model_of(label: str) -> SetDesc:
        return Hamming(n, bits_to_nat(label))

    return model_of


def suff_identity_audit(
    joint: JointModel,
    statistic: Statistic,
    table: ComplexityTable,
    model_of: Callable[[str], SetDesc],
    source: TableSource = TableSource(),
) -> SuffIdentityReport:
    """Two ways of pricing x through a sufficient statistic should agree:
    describing x directly given the best-fitting parameter, or naming the
    statistic's value and then x's index inside that value's model class.
    The agreement gap is a machine constant; the audit measures its max
    over the joint's support."""
    cond_tables = _deficiency_terms(joint, statistic, table, source)
    rows = []
    for x in joint.x_domain():
        scores = [p * d.mass(x) for p, d in zip(joint.priors, joint.dists)]
        best = max(range(len(scores)), key=lambda i: (scores[i], -i))
        label = joint.thetas[best]
        s_x = statistic(x)
        given = cond_tables[label]
        k_x, k_x_given = require_k(table, x), require_k(given, x)
        k_s, k_s_given = require_k(table, s_x), require_k(given, s_x)
        d = (k_x - k_x_given) - (k_s - k_s_given)
        lhs = k_x_given + d
        rhs = k_s_given + ceil_log2(model_of(s_x).size())
        rows.append(SuffIdentityRow(x, label, lhs, rhs))
    return SuffIdentityReport(tuple(rows))


# -- the measured-constants battery --------------------------------------------


def standard_joints() -> dict[str, JointModel]:
    """The fixed instances the audits freeze constants on: a one-point
    deterministic joint, a perfectly correlated bit, an independent bit,
    and a two-coin Bernoulli pair observed through two flips."""
    half = Fraction(1, 2)
    one = Fraction(1)
    return {
        "deterministic": JointModel(
            ("0",), (one,), (TableDist((("1", one),)),)
        ),
        "correlated-bit": JointModel(
            ("0", "1"),
            (half, half),
            (TableDist((("0", one),)), TableDist((("1", one),))),
        ),
        "independent-bit": JointModel(
            ("0", "1"), (half, half), (Bernoulli(1, half), Bernoulli(1, half))
        ),
        "bernoulli-pair": JointModel(
            ("0", "1"),
            (half, half),
            (Bernoulli(2, Fraction(1, 4)), Bernoulli(2, Fraction(3, 4))),
        ),
    }


# -- the law battery: one record per audit --------------------------------------


class AuditRun(NamedTuple):
    """One audit's report, its (line, passed) checks and the constants it
    measured, keyed by their names in the frozen constants file."""

    report: object
    checks: tuple[tuple[str, bool], ...]
    measured: dict[str, int]


class Audit(NamedTuple):
    """One audit of the ``laws`` battery. ``run(table, source)`` gets the
    table ``reads`` names: ``"level"``, the unconditional table read whole,
    or ``"deep"``, the ``TableSource.tables`` table of ``n=laws_reach()``
    bits, the most any record's ``reach`` looks up there. A record
    not ``selectable`` runs only in the whole battery. Run steps call the
    audits by their module names, so a wrapper put in their place sees them.
    The run steps are the one place that names a frozen constant: each
    name of ``data/constants.txt`` is set by one record's ``run``, from
    its report's fields."""

    name: str
    reads: str
    run: Callable[[ComplexityTable, TableSource], AuditRun]
    reach: int = 0
    selectable: bool = True


def _xr_run(table: ComplexityTable, source: TableSource) -> AuditRun:
    rows = xr_bound_check(table)[2]
    checks = tuple(
        (f"xr r={r.r} sum={_dyadic_csv(r.mass_sum)} bound={_dyadic_csv(r.bound)}", r.passed)
        for r in rows
    )
    return AuditRun(rows, checks, {})


def _slices_run(table: ComplexityTable, source: TableSource) -> AuditRun:
    ok = slice_bound_check(table)
    return AuditRun(ok, (("slice-bound", ok),), {})


def _soi_run(table: ComplexityTable, source: TableSource) -> AuditRun:
    rep = soi_audit(table, source=source)
    measured = {
        "soi_additivity": rep.additivity_max_slack,
        "soi_triangle": rep.triangle_c,
        "mi_self_gap": rep.mi_self_gap_max,
        "mi_swap_gap": rep.mi_swap_gap_max,
    }
    return AuditRun(rep, (), measured)


def _nonincrease_run(table: ComplexityTable, source: TableSource) -> AuditRun:
    rep = nonincrease_audit(table, source=source)
    return AuditRun(rep, (), {"nonincrease": rep.max_deficit})


_JOINTS = standard_joints()
_PAIR = _JOINTS["bernoulli-pair"]


def _expected_mi_run(table: ComplexityTable, source: TableSource) -> AuditRun:
    reps = tuple((n, expected_mi_audit(j, table)) for n, j in sorted(_JOINTS.items()))
    return AuditRun(reps, (), {"expected_mi": max(rep.slack_bits for _, rep in reps)})


def _pair_reach(statistic: str) -> int:
    return theta_reach(_PAIR, Statistic(statistic))


def _theta_run(table: ComplexityTable, source: TableSource) -> AuditRun:
    rep = theta_suff_audit(_PAIR, Statistic("weight"), table, source=source)
    identity = theta_suff_audit(_PAIR, Statistic("identity"), table, source=source)
    checks = (
        ("theta weight-prob-sufficient", rep.prob_sufficient),
        ("theta identity-deficiency-zero", all(r.d == 0 for r in identity.rows)),
    )
    return AuditRun(rep, checks, {"theta_tau": rep.minimal_tau()})


def _identity_run(table: ComplexityTable, source: TableSource) -> AuditRun:
    rep = suff_identity_audit(_PAIR, Statistic("weight"), table, weight_models(2), source=source)
    return AuditRun(rep, (), {"suff_identity": rep.max_gap})


def _logn_gap_run(table: ComplexityTable, source: TableSource) -> AuditRun:
    gap = logn_gap(table)
    return AuditRun(gap, (), {"logn_gap": gap})


AUDITS: tuple[Audit, ...] = (
    Audit("xr", "level", _xr_run),
    Audit("slices", "level", _slices_run),
    # the soi sweep reads pairs of two swept strings
    Audit("soi", "deep", _soi_run, pair_len(DEFAULT_SOI_LEN_CAP, DEFAULT_SOI_LEN_CAP)),
    # the swept strings and their images: the default transforms never
    # lengthen x, and an image beyond the deep table's reach raises Absent
    Audit("nonincrease", "deep", _nonincrease_run, DEFAULT_NI_LEN_CAP),
    Audit("expected-mi", "deep", _expected_mi_run, max(map(expected_mi_reach, _JOINTS.values()))),
    Audit("theta", "deep", _theta_run, max(map(_pair_reach, ("weight", "identity")))),
    Audit("identity", "deep", _identity_run, _pair_reach("weight")),
    Audit("logn_gap", "level", _logn_gap_run, selectable=False),
)
AUDIT_CHOICES = ("all", *(a.name for a in AUDITS if a.selectable))


def selected_audits(audit: str = "all") -> tuple[Audit, ...]:
    """The records an ``--audit`` choice runs: all for ``"all"``, else the
    one of that name."""
    if audit not in AUDIT_CHOICES:
        raise ValueError(f"unknown audit {audit!r}: choose from {', '.join(AUDIT_CHOICES)}")
    return tuple(a for a in AUDITS if audit in ("all", a.name))


def laws_reach() -> int:
    """The longest string any audit of the battery looks up in its deep
    table, which is built under an output budget of this many bits
    whichever audits are selected, so that every selection reads one file."""
    return max(a.reach for a in AUDITS)


def laws_audit(
    table: ComplexityTable | None,
    level_table: ComplexityTable | None = None,
    *,
    source: TableSource = TableSource(),
    audit: str = "all",
) -> dict[str, AuditRun]:
    """Run the audits ``audit`` selects (see ``selected_audits``), in
    registry order and keyed by name: the deep ones on ``table``, built up
    to ``laws_reach()`` bits of output at least, the level ones on
    ``level_table``. A record whose table is None is skipped, so the X(r),
    slice-bound and log N_k checks need a level table. Each audit fetches
    its own conditional tables from ``source.tables`` and lets each go
    once it has read it, so a table that several audits read is fetched
    by each: the two label tables, once by each of the theta audit's two
    statistics and once by the identity audit. See the individual audits."""
    tables = {"deep": table, "level": level_table}
    return {
        a.name: a.run(tables[a.reads], source)
        for a in selected_audits(audit)
        if tables[a.reads] is not None
    }

