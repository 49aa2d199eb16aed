"""Joint parameter/data models, classical and machine-side sufficiency,
and the measured-constants battery the frozen file is checked against."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algstat import infolaws
from algstat.cache import AUDIT_MAX_LEN, TableSource
from algstat.complexity import _all_strings
from algstat.constants import load_constants
from algstat.distlang import Bernoulli, TableDist
from algstat.enumeration import build_table
from algstat.infolaws import (
    AUDITS,
    AUDIT_CHOICES,
    JointModel,
    JointModelError,
    Statistic,
    Transform,
    default_transforms,
    expected_mi_audit,
    format_joint_text,
    format_statistic,
    laws_audit,
    nonincrease_audit,
    parse_joint_text,
    parse_statistic,
    prior_sweep,
    prob_mi,
    prob_suff_check,
    pushforward,
    standard_joints,
    suff_identity_audit,
    theta_suff_audit,
    weight_models,
)

HALF = Fraction(1, 2)

# Two coins a hair apart: the constant statistic loses 2.9e-10 bits.
NEAR_UNINFORMATIVE = parse_joint_text(
    "theta 0 1/2\ntheta 1 1/2\n"
    "dist 0 table{0:50001/100000,1:49999/100000}\n"
    "dist 1 table{0:49999/100000,1:50001/100000}\n"
)[0]

# Each standard joint under each fixed statistic, with its sufficiency verdict.
STANDARD_VERDICTS = [
    ("deterministic", "weight", True),
    ("deterministic", "identity", True),
    ("deterministic", "constant", True),
    ("correlated-bit", "weight", True),
    ("correlated-bit", "identity", True),
    ("correlated-bit", "constant", False),
    ("independent-bit", "weight", True),
    ("independent-bit", "identity", True),
    ("independent-bit", "constant", True),
    ("bernoulli-pair", "weight", True),
    ("bernoulli-pair", "identity", True),
    ("bernoulli-pair", "constant", False),
]


@st.composite
def _small_joints(draw):
    """A joint of 2-3 labels, each a Bernoulli or a table on at most 3 bits,
    some priors possibly 0, with a fixed statistic or a random map."""
    m = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    priors = tuple(Fraction(w, sum(weights)) for w in weights)
    dists = []
    for _ in range(m):
        if draw(st.booleans()):
            den = draw(st.integers(2, 4))
            p = Fraction(draw(st.integers(1, den - 1)), den)
            dists.append(Bernoulli(draw(st.integers(0, 2)), p))
        else:
            xs = draw(
                st.lists(st.sampled_from(_all_strings(3)), min_size=1, max_size=4, unique=True)
            )
            ws = draw(st.lists(st.integers(1, 3), min_size=len(xs), max_size=len(xs)))
            total = sum(ws) + draw(st.integers(0, 2))
            dists.append(TableDist(tuple((x, Fraction(w, total)) for x, w in zip(xs, ws))))
    joint = JointModel(("0", "1", "00")[:m], priors, tuple(dists))
    kind = draw(st.sampled_from(("weight", "identity", "constant", "map")))
    if kind != "map":
        return joint, Statistic(kind)
    values = st.sampled_from(("", "0", "1"))
    return joint, Statistic("map", tuple((x, draw(values)) for x in joint.x_domain()))


@pytest.fixture(scope="module")
def table_l29():
    return build_table(AUDIT_MAX_LEN)


@pytest.fixture()
def bernoulli_pair():
    return standard_joints()["bernoulli-pair"]


class TestJointModel:
    def test_support_and_marginal(self, bernoulli_pair):
        sup = bernoulli_pair.support()
        assert len(sup) == 8
        assert sum(p for _, _, p in sup) == 1
        marg = bernoulli_pair.marginal()
        assert marg["00"] == Fraction(5, 16) and marg["01"] == Fraction(3, 16)

    def test_x_domain_is_canonical(self, bernoulli_pair):
        assert bernoulli_pair.x_domain() == ("00", "01", "10", "11")

    def test_with_priors(self, bernoulli_pair):
        j = bernoulli_pair.with_priors((Fraction(1, 4), Fraction(3, 4)))
        assert j.priors == (Fraction(1, 4), Fraction(3, 4))
        assert j.dists == bernoulli_pair.dists

    def test_validation(self):
        with pytest.raises(JointModelError):
            JointModel((), (), ())
        with pytest.raises(JointModelError):
            JointModel(("0", "0"), (HALF, HALF), (Bernoulli(1, HALF),) * 2)
        with pytest.raises(JointModelError):
            JointModel(("0", "1"), (HALF, HALF, HALF), (Bernoulli(1, HALF),) * 2)
        with pytest.raises(JointModelError):
            JointModel(("0",), (Fraction(2, 3),), (Bernoulli(1, HALF),))

    def test_code_length(self, bernoulli_pair):
        assert len(bernoulli_pair.code()) == 51

    def test_standard_set(self):
        joints = standard_joints()
        assert set(joints) == {
            "deterministic",
            "correlated-bit",
            "independent-bit",
            "bernoulli-pair",
        }
        for joint in joints.values():
            assert sum(joint.priors, Fraction(0)) == 1


class TestStatistic:
    def test_kinds(self):
        assert Statistic("weight")("0110") == "1"
        assert Statistic("weight")("0") == ""
        assert Statistic("identity")("01") == "01"
        assert Statistic("constant")("01") == ""
        m = Statistic("map", (("0", "1"), ("1", "")))
        assert m("0") == "1" and m("1") == ""
        with pytest.raises(JointModelError):
            m("00")

    def test_validation(self):
        with pytest.raises(JointModelError):
            Statistic("parity")
        with pytest.raises(JointModelError):
            Statistic("weight", (("0", "1"),))
        with pytest.raises(JointModelError):
            Statistic("map", (("0", "1"), ("0", "")))

    def test_text_roundtrip(self):
        for s in (
            Statistic("weight"),
            Statistic("identity"),
            Statistic("map", (("", "1"), ("01", ""))),
        ):
            assert parse_statistic(format_statistic(s)) == s
        assert format_statistic(Statistic("map", (("01", ""),))) == "map{01:-}"


class TestJointText:
    def test_roundtrip(self, bernoulli_pair):
        text = format_joint_text(bernoulli_pair, Statistic("weight"))
        joint, stat = parse_joint_text(text)
        assert joint == bernoulli_pair and stat == Statistic("weight")

    def test_comments_and_blanks(self):
        joint, stat = parse_joint_text(
            "# two-point joint\n\ntheta - 1/2\ntheta 1 1/2\n"
            "dist - table{0:1/1}\ndist 1 table{1:1/1}\n"
        )
        assert joint.thetas == ("", "1") and stat is None

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("theta 0 1/2\ntheta 0 1/2\ndist 0 bern:1,1/2", "duplicate theta"),
            ("theta 0 1\ndist 1 bern:1,1/2", "unknown theta"),
            ("theta 0 1", "no dist line"),
            ("theta 0 x\ndist 0 bern:1,1/2", "bad prior"),
            ("param 0 1", "unknown directive"),
            ("dist 0 bern:1,1/2", "no theta lines"),
            (
                "theta 0 1\ndist 0 bern:1,1/2\nstatistic weight\nstatistic identity",
                "more than one statistic",
            ),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(JointModelError, match=fragment):
            parse_joint_text(text)


class TestClassicalSide:
    def test_prob_mi_known_values(self, bernoulli_pair):
        joints = standard_joints()
        assert prob_mi(joints["correlated-bit"]).i == pytest.approx(1.0)
        assert prob_mi(joints["independent-bit"]).i == pytest.approx(0.0)
        rep = prob_mi(bernoulli_pair)
        # closed form: H(marginal) - h(1/4) - h(3/4)
        h = lambda p: -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert rep.i == pytest.approx(rep.h_x - 2 * h(0.25))
        assert rep.i == pytest.approx(0.3318777540)
        assert rep.h_theta == pytest.approx(1.0)

    def test_prior_sweep_shape(self, bernoulli_pair):
        rows = prior_sweep(bernoulli_pair)
        assert len(rows) == 10
        assert rows[0] == (HALF, HALF)
        assert all(sum(r, Fraction(0)) == 1 for r in rows)
        assert rows[1] == (Fraction(9, 20), Fraction(11, 20))

    def test_pushforward_weight(self, bernoulli_pair):
        pf = pushforward(bernoulli_pair, Statistic("weight"))
        assert pf.dists[0] == TableDist(
            (("", Fraction(9, 16)), ("0", Fraction(3, 8)), ("1", Fraction(1, 16)))
        )
        assert pf.thetas == bernoulli_pair.thetas

    def test_pushforward_cannot_gain_information(self, bernoulli_pair):
        for stat in (Statistic("weight"), Statistic("constant"), Statistic("identity")):
            assert (
                prob_mi(pushforward(bernoulli_pair, stat)).i
                <= prob_mi(bernoulli_pair).i + 1e-9
            )

    def test_weight_is_sufficient_for_bernoulli(self, bernoulli_pair):
        rep = prob_suff_check(bernoulli_pair, Statistic("weight"))
        assert rep.sufficient
        assert len(rep.rows) == 10
        assert all(abs(r.i_data - r.i_statistic) <= 1e-9 for r in rep.rows)

    def test_constant_is_not_sufficient(self, bernoulli_pair):
        rep = prob_suff_check(bernoulli_pair, Statistic("constant"))
        assert not rep.sufficient
        # the constant statistic wipes all information at every prior
        assert all(r.i_statistic == pytest.approx(0.0) for r in rep.rows)

    def test_csv_header(self, bernoulli_pair):
        lines = prob_suff_check(bernoulli_pair, Statistic("weight")).to_csv().splitlines()
        assert lines[0] == "prior,I_data,I_statistic,sufficient"
        assert lines[1].startswith("1/2|1/2,")

    def test_loss_below_the_float_grain_is_insufficient(self):
        """The constant statistic loses 2.9e-10 bits here, below 1e-9: a
        verdict taken from the float MI gap would call it sufficient."""
        rep = prob_suff_check(NEAR_UNINFORMATIVE, Statistic("constant"))
        assert all(0 < r.i_data - r.i_statistic < 1e-9 for r in rep.rows)
        assert not any(r.sufficient for r in rep.rows)
        assert not rep.sufficient

    def test_row_reads_only_the_parameters_its_prior_weights(self):
        """Under a prior with no weight on parameter 1, the constant
        statistic loses nothing; under any other it loses everything."""
        rep = prob_suff_check(
            standard_joints()["correlated-bit"],
            Statistic("constant"),
            [(Fraction(1), Fraction(0)), (HALF, HALF)],
        )
        assert [r.sufficient for r in rep.rows] == [True, False]
        assert not rep.sufficient

    def test_map_and_table_of_2048_entries(self):
        """A ``map`` statistic and a ``table{}`` distribution look a string up
        in a dict, not along their entries: over the 2,048 strings of 11 bits
        the values, the zero mass of a non-member and the Fisher–Neyman
        verdict all hold."""
        xs = [format(v, "011b") for v in range(1 << 11)]
        weight = Statistic("weight")
        by_map = Statistic("map", tuple((x, weight(x)) for x in reversed(xs)))
        assert [by_map(x) for x in xs] == [weight(x) for x in xs]
        with pytest.raises(JointModelError):
            by_map("0" * 12)
        # a mass that depends on the weight alone: the weight is sufficient
        total = sum(x.count("1") + 1 for x in xs)
        uniform = TableDist(tuple((x, Fraction(1, 1 << 11)) for x in xs))
        tilted = TableDist(tuple((x, Fraction(x.count("1") + 1, total)) for x in reversed(xs)))
        assert all(uniform.mass(x) == Fraction(1, 1 << 11) for x in xs)
        assert [tilted.mass(x) for x in xs] == [Fraction(x.count("1") + 1, total) for x in xs]
        assert uniform.mass("0" * 12) == tilted.mass("") == tilted.mass("1" * 10) == 0
        joint = JointModel(("0", "1"), (HALF, HALF), (uniform, tilted))
        assert [m for _, _, m in joint.support()][-1] == HALF * Fraction(12, total)
        assert pushforward(joint, by_map) == pushforward(joint, weight)
        assert prob_suff_check(joint, by_map, [(HALF, HALF)]).sufficient
        # the first bit forgets the weight
        first = Statistic("map", tuple((x, x[0]) for x in xs))
        assert not prob_suff_check(joint, first, [(HALF, HALF)]).sufficient

    @pytest.mark.parametrize(("name", "stat", "verdict"), STANDARD_VERDICTS)
    def test_standard_verdicts(self, name, stat, verdict):
        assert prob_suff_check(standard_joints()[name], Statistic(stat)).sufficient is verdict

    @settings(max_examples=150, deadline=None)
    @given(_small_joints())
    def test_exact_verdict_matches_clear_mi_gaps(self, drawn):
        """Wherever the float MI gap is clearly zero or clearly not, each
        row's exact verdict agrees with it."""
        joint, statistic = drawn
        rep = prob_suff_check(joint, statistic)
        gaps = [abs(r.i_data - r.i_statistic) for r in rep.rows]
        assume(all(g <= 1e-12 or g >= 1e-6 for g in gaps))
        assert [r.sufficient for r in rep.rows] == [g <= 1e-12 for g in gaps]


class TestExpectedMI:
    def test_bernoulli_pair(self, table_l29, bernoulli_pair):
        rep = expected_mi_audit(bernoulli_pair, table_l29)
        assert rep.expected == Fraction(-23, 8)
        assert rep.prob_i == pytest.approx(0.3318777540)
        assert rep.slack_bits == 4
        assert rep.k_p == 51
        by_pair = {(r.theta, r.x): r.i_alg for r in rep.rows}
        assert by_pair[("0", "11")] == -1 and by_pair[("1", "00")] == -1
        assert all(v == -3 for k, v in by_pair.items() if k not in {("0", "11"), ("1", "00")})

    def test_csv(self, table_l29, bernoulli_pair):
        lines = expected_mi_audit(bernoulli_pair, table_l29).to_csv().splitlines()
        assert lines[0] == "theta,x,p,I_alg"
        assert lines[1] == "0,00,9/32,-3"


class TestTransforms:
    def test_apply_matches_semantics(self):
        drop, copy, const = default_transforms()
        assert copy.apply("0110")[1] == "0110"
        assert drop.apply("0110")[1] == "011"
        assert drop.apply("")[1] == ""
        assert const.apply("0110")[1] == ""

    def test_copy_program_cost_is_token_optimal(self):
        copy = default_transforms()[1]
        # 8+1 splits into one 8-chunk and one 1-chunk: two tokens + halt
        assert len(copy.program_for("0" * 9)) == 13

    def test_failing_transform_raises(self):
        bad = Transform("overread", lambda x: "10111" + "100")  # copies 8, given less
        with pytest.raises(ValueError, match="overread"):
            bad.apply("01")

    def test_nonincrease_sweep(self, table_l29, cond_cache):
        rep = nonincrease_audit(table_l29, len_cap=2, source=TableSource(cache_dir=cond_cache))
        assert rep.pairs_checked == 49
        assert rep.max_deficit == -3
        assert [t.name for t in rep.per_transform] == ["drop-last", "copy", "const-empty"]
        assert [t.max_deficit for t in rep.per_transform] == [-3, -3, -3]

    def test_csv(self, table_l29, cond_cache):
        source = TableSource(cache_dir=cond_cache)
        lines = nonincrease_audit(table_l29, len_cap=2, source=source).to_csv().splitlines()
        assert lines[0] == "transform,max_deficit,x,y"
        assert lines[1] == "drop-last,-3,-,-"


class TestMachineSufficiency:
    def test_theta_rows_all_zero(self, table_l29, bernoulli_pair, cond_cache):
        rep = theta_suff_audit(
            bernoulli_pair, Statistic("weight"), table_l29,
            source=TableSource(cache_dir=cond_cache)
        )
        assert all(r.d == 0 for r in rep.rows)
        assert rep.minimal_tau() == 0
        assert rep.mass_leq(0) == 1
        assert rep.prob_sufficient

    @pytest.mark.parametrize(
        ("name", "stat", "verdict"),
        [*STANDARD_VERDICTS, ("near-uninformative", "constant", False)],
    )
    def test_theta_verdict_is_exact_and_computes_no_mi(
        self, table_l29, cond_cache, monkeypatch, name, stat, verdict
    ):
        def no_mi(_joint):
            raise AssertionError("the theta audit computed a mutual information")

        monkeypatch.setattr(infolaws, "prob_mi", no_mi)
        joint = {**standard_joints(), "near-uninformative": NEAR_UNINFORMATIVE}[name]
        rep = theta_suff_audit(
            joint, Statistic(stat), table_l29, source=TableSource(cache_dir=cond_cache)
        )
        assert rep.prob_sufficient is verdict

    def test_theta_csv(self, table_l29, bernoulli_pair, cond_cache):
        rep = theta_suff_audit(
            bernoulli_pair, Statistic("weight"), table_l29,
            source=TableSource(cache_dir=cond_cache)
        )
        lines = rep.to_csv().splitlines()
        assert lines[0] == "theta,x,statistic,p,d"
        assert lines[1] == "0,00,-,9/32,0"

    def test_identity_rows(self, table_l29, bernoulli_pair, cond_cache):
        rep = suff_identity_audit(
            bernoulli_pair,
            Statistic("weight"),
            table_l29,
            model_of=weight_models(2),
            source=TableSource(cache_dir=cond_cache),
        )
        assert [(r.x, r.theta_star, r.lhs, r.rhs) for r in rep.rows] == [
            ("00", "0", 7, 3),
            ("01", "0", 7, 6),
            ("10", "0", 7, 6),
            ("11", "1", 7, 5),
        ]
        assert rep.max_gap == 4

    def test_weight_models(self):
        model_of = weight_models(4)
        assert model_of("").size() == 1  # weight 0
        assert model_of("1").size() == 6  # weight 2


def _measured(runs) -> dict[str, int]:
    return {name: v for run in runs.values() for name, v in run.measured.items()}


class TestBattery:
    def test_matches_frozen_constants(self, table_l29, table_l22, cond_cache):
        source = TableSource(cache_dir=cond_cache)
        runs = laws_audit(table_l29, level_table=table_l22, source=source)
        assert list(runs) == [a.name for a in AUDITS]
        assert _measured(runs) == load_constants()
        assert all(ok for run in runs.values() for _, ok in run.checks)
        assert runs["logn_gap"].report == load_constants()["logn_gap"]

    def test_registry_names_each_frozen_constant_once(self, table_l29, table_l22, cond_cache):
        runs = laws_audit(table_l29, level_table=table_l22, source=TableSource(cache_dir=cond_cache))
        assert list(runs) == [a.name for a in AUDITS]
        names = [name for run in runs.values() for name in run.measured]
        # ``laws`` merges the records' dicts, so a name measured twice
        # would be overwritten without a word
        assert len(names) == len(set(names))
        assert set(names) == set(load_constants())

    def test_level_gap_optional(self, table_l29, cond_cache):
        runs = laws_audit(table_l29, source=TableSource(cache_dir=cond_cache))
        assert [a.reads for a in AUDITS if a.name in runs] == ["deep"] * 5
        assert "logn_gap" not in _measured(runs)

    def test_deterministic_across_cache_states(self, table_l29, table_l22, tmp_path):
        source = TableSource(cache_dir=tmp_path)
        cold = laws_audit(table_l29, level_table=table_l22, source=source)
        warm = laws_audit(table_l29, level_table=table_l22, source=source)
        assert _measured(cold) == _measured(warm)
        for name in ("theta", "identity", "nonincrease"):
            assert cold[name].report.to_csv() == warm[name].report.to_csv()

    def test_selection_runs_one_record(self, table_l29, cond_cache):
        runs = laws_audit(table_l29, source=TableSource(cache_dir=cond_cache), audit="theta")
        assert list(runs) == ["theta"]
        assert [line for line, _ in runs["theta"].checks] == [
            "theta weight-prob-sufficient",
            "theta identity-deficiency-zero",
        ]
        assert AUDIT_CHOICES == (
            "all", "xr", "slices", "soi", "nonincrease", "expected-mi", "theta", "identity"
        )
        with pytest.raises(ValueError, match="unknown audit 'logn_gap'"):
            laws_audit(table_l29, audit="logn_gap")
