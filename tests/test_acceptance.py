"""End-to-end acceptance gate: ten checks, one test (and one pass/fail
line under -v) per check, at the tolerances the package guarantees.

Everything here is either exact combinatorics (prefix-freeness, Kraft,
oracle equality, counting bounds, byte determinism) or a regression
against the packaged frozen constants; nothing is statistical.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from algstat.cache import AUDIT_MAX_LEN, TableSource
from algstat.condition import Condition
from algstat.constants import load_constants, regression_check
from algstat.distlang import UniformOn, uniform_condition
from algstat.enumeration import build_table, export_table
from algstat.infolaws import Statistic, laws_audit, prob_suff_check, standard_joints, theta_suff_audit
from algstat.models_prob import bernoulli_demo, deficiency_p
from algstat.models_set import deficiency, structfn, suffstat, two_part
from algstat.setlang import All, Cyl, Hamming, ListSet, SetDesc, Singleton, UnionSet
from algstat.skstats import sk_csv, slice_bound_check, xr_bound_check, xr_csv
from oracles import enumerate_halting, find_prefix_violation, naive_entries

import pytest


@pytest.fixture(scope="module")
def table_l29():
    return build_table(AUDIT_MAX_LEN)


def _done(n: int, name: str, detail: str = "") -> None:
    suffix = f" — {detail}" if detail else ""
    print(f"[acceptance] {n:02d} {name}: PASS{suffix}")


def test_01_prefix_free_domain():
    start = time.monotonic()
    build_table(20)
    programs = [p for p, _, _ in enumerate_halting(20)]
    violation = find_prefix_violation(programs)
    elapsed = time.monotonic() - start
    assert violation is None
    assert elapsed <= 60.0, f"L=20 enumeration took {elapsed:.1f}s"
    _done(1, "prefix-free domain", f"{len(programs)} programs in {elapsed:.1f}s")


def test_02_kraft_sum(table_l24):
    total = table_l24.kraft_sum()
    assert total == Fraction(86151, 1 << 18)
    assert Fraction(1, 20) <= total <= 1
    # exact dyadic: denominator is a power of two
    assert total.denominator & (total.denominator - 1) == 0
    _done(2, "Kraft sum", f"L=24 total {total}")


def test_03_oracle_equivalence():
    for L in (5, 9, 12):
        table = build_table(L)
        entries = {x: (e.k, e.witness, e.m_num) for x, e in table.entries.items()}
        got = entries, table.count_by_length()
        assert got == naive_entries(L), f"table diverges from the oracle at L={L}"
    _done(3, "oracle equivalence", "L in {5, 9, 12} bit-identical")


def test_04_spot_complexities(table_l22):
    oracle, _ = naive_entries(15)
    spots = {"": 3, "0": 5, "0000": 11, "0110": 11, "01010101": 15}
    for x, expected in spots.items():
        assert oracle[x][0] == expected, f"oracle disagrees at {x!r}"
        assert table_l22.k_of(x) == expected, f"table disagrees at {x!r}"
    cond_oracle, _ = naive_entries(8, Condition.string("1011"))
    assert cond_oracle["1011"][0] == 8
    assert build_table(8, Condition.string("1011")).k_of("1011") == 8
    _done(4, "spot complexities", "5 plain + 1 conditional, zero tolerance")


def test_05_xr_bounds(table_l22):
    ok, ratio, rows = xr_bound_check(table_l22)
    assert ok, "some X(r) mass exceeds 2^(2-r)"
    assert ratio <= 1
    assert slice_bound_check(table_l22), "per-slice count bound violated"
    _done(5, "X(r) bounds", f"{len(rows)} levels, max ratio {ratio}")


def test_06_structure_function_shape():
    checked = 0
    for n in range(9):
        for v in range(1 << n):
            x = format(v, f"0{n}b") if n else ""
            singleton = Singleton(x)
            curve = structfn(x, singleton.code_len + 2, include_deficiency=False)
            hs = [row.h for row in curve.rows]
            assert hs == sorted(hs, reverse=True), f"h not nonincreasing for {x!r}"
            assert curve.h(singleton.code_len + 1) == 0.0, f"h misses zero for {x!r}"
            assert suffstat(x).lambda_min <= two_part(x, singleton), x
            checked += 1
    assert checked == 511
    _done(6, "structure-function shape", "all 511 strings of length <= 8")


def test_07_bernoulli_demo(table_l22):
    demo = bernoulli_demo(table_l22, 8, 3)
    assert demo.row_of("01" * 4).flagged, "(01)^4 escaped the weight-class flag"
    weight4 = [r for r in demo.rows if r.weight == 4]
    top = max(r.k for r in weight4)
    assert any(r.k == top and not r.flagged for r in weight4), (
        "no maximal-complexity weight-4 string was spared"
    )
    _done(7, "weight-class demo", f"{len(demo.flagged)}/256 flagged at beta=3")


def _random_desc(rng: random.Random) -> SetDesc:
    def bits(max_len: int = 6) -> str:
        l = rng.randint(0, max_len)
        return "".join(rng.choice("01") for _ in range(l))

    def simple() -> SetDesc:
        kind = rng.randrange(5)
        if kind == 0:
            return Singleton(bits())
        if kind == 1:
            return All(rng.randint(0, 6))
        if kind == 2:
            n = rng.randint(0, 6)
            return Cyl(bits(n)[: rng.randint(0, n)], n)
        if kind == 3:
            n = rng.randint(0, 6)
            return Hamming(n, rng.randint(0, n))
        return ListSet(tuple(bits() for _ in range(rng.randint(1, 4))))

    if rng.random() < 0.25:
        return UnionSet(tuple(simple() for _ in range(rng.randint(2, 3))))
    return simple()


def test_08_uniform_wrap_equals_set_deficiency(cond_cache):
    rng = random.Random(2026)
    for i in range(100):
        desc = _random_desc(rng)
        x = rng.choice(desc.denote())
        rp = deficiency_p(x, UniformOn(desc), source=TableSource(cache_dir=cond_cache, max_len=15))
        rs = deficiency(x, desc, source=TableSource(cache_dir=cond_cache, max_len=15))
        assert rp.k_cond == rs.k_cond_set, f"model {i}: {desc!r}, x={x!r}"
        assert rp.delta_norm == rs.delta_norm, f"model {i}: {desc!r}, x={x!r}"
    _done(8, "uniform/set correspondence", "100 random models, exact equality")


def test_09_law_audits(table_l29, table_l22, cond_cache):
    runs = laws_audit(table_l29, level_table=table_l22, source=TableSource(cache_dir=cond_cache))
    measured = {name: v for run in runs.values() for name, v in run.measured.items()}
    lines = regression_check(measured, load_constants())
    bad = [l for l in lines if not l.ok]
    assert not bad, f"regressed: {[(l.name, l.measured, l.frozen) for l in bad]}"
    failed = [line for run in runs.values() for line, ok in run.checks if not ok]
    assert not failed, f"failed checks: {failed}"

    pair_joint = standard_joints()["bernoulli-pair"]
    identity = theta_suff_audit(
        pair_joint, Statistic("identity"), table_l29, source=TableSource(cache_dir=cond_cache)
    )
    assert all(r.d == 0 for r in identity.rows), "identity statistic shows deficiency"

    weight = prob_suff_check(pair_joint, Statistic("weight"))
    assert weight.sufficient, "weight statistic lost information at some prior"
    assert len(weight.rows) == 10
    _done(9, "law audits", f"{len(lines)} slacks within +1 bit of frozen")


def test_10_determinism(tmp_path, table_l22):
    conds = [
        Condition.none(),
        Condition.string("1011"),
        uniform_condition(Hamming(4, 2)),
        Condition.string("0110"),
    ]
    cold = TableSource(cache_dir=tmp_path / "a").tables(16, conds)
    again = TableSource(cache_dir=tmp_path / "b").tables(16, conds)
    warm = TableSource(cache_dir=tmp_path / "a").tables(16, conds)
    assert cold == again == warm
    export_table(build_table(16), tmp_path / "rebuilt.tsv")
    blobs = {run: {p.name: p.read_bytes() for p in (tmp_path / run).iterdir()} for run in "ab"}
    assert len(blobs["a"]) == len(conds)
    assert blobs["a"] == blobs["b"], "table exports differ across runs"
    plain = [b for name, b in blobs["a"].items() if Condition.none().fingerprint()[:16] in name]
    assert plain == [(tmp_path / "rebuilt.tsv").read_bytes()], "table exports differ across runs"

    assert xr_csv(cold[0]) == xr_csv(warm[0])
    assert sk_csv(cold[0], 9) == sk_csv(warm[0], 9)

    source = TableSource(cache_dir=tmp_path / "s", max_len=15)
    cold_curve = structfn("0110", 12, source=source).to_csv()
    assert structfn("0110", 12, source=source).to_csv() == cold_curve

    # the demo needs every 8-bit K, so it runs on the deeper session table
    assert bernoulli_demo(table_l22, 8, 3).to_csv() == bernoulli_demo(table_l22, 8, 3).to_csv()
    _done(10, "determinism", "exports and CSVs byte-identical across runs and cache states")
