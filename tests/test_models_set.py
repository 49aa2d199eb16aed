"""Finite set models: codec, sizes, enumeration vs the blind-decoding
oracle, deficiencies and their shared core, structure curves, and the
(alpha, beta) non-stochasticity scan."""

from __future__ import annotations

import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algstat import models_set
from algstat.cache import TableSource
from algstat.complexity import Absent
from algstat.condition import Budgets
from algstat.distlang import uniform_condition
from algstat.enumeration import ComplexityTable, Entry
from algstat.models_set import (
    _least_deficient,
    alpha_cap,
    deficiency,
    enumerate_models,
    nonstoch_scan,
    star_condition,
    structfn,
    suffstat,
    two_part,
)
from algstat.setlang import (
    All,
    DENOTE_CAP,
    CapExceeded,
    Cyl,
    Hamming,
    ListSet,
    SetLangError,
    Singleton,
    UnionSet,
    decode,
    encode,
    format_setlang,
    parse_setlang,
)
from oracles import blind_models, filtered_models, naive_union_size

simple_descs = st.one_of(
    st.builds(Singleton, st.text("01", max_size=4)),
    st.integers(0, 5).map(All),
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.text("01", max_size=n).filter(lambda p: len(p) <= n)).map(
            lambda t: Cyl(t[0], n)
        )
    ),
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda t: t[1] <= t[0]).map(
        lambda t: Hamming(*t)
    ),
    st.lists(st.text("01", max_size=4), min_size=1, max_size=4).map(
        lambda es: ListSet(tuple(es))
    ),
)
unions = st.recursive(
    st.lists(simple_descs, min_size=2, max_size=3).map(lambda ps: UnionSet(tuple(ps))),
    lambda inner: st.lists(st.one_of(simple_descs, inner), min_size=2, max_size=3).map(
        lambda ps: UnionSet(tuple(ps))
    ),
    max_leaves=6,
)


class TestShapes:
    def test_membership(self):
        assert Singleton("01").member("01") and not Singleton("01").member("0")
        assert All(3).member("010") and not All(3).member("01")
        assert Cyl("01", 4).member("0110") and not Cyl("01", 4).member("1110")
        assert Hamming(4, 2).member("0110") and not Hamming(4, 2).member("0111")
        assert ListSet(("0", "11")).member("11") and not ListSet(("0", "11")).member("1")
        u = UnionSet((All(1), Singleton("00")))
        assert u.member("0") and u.member("00") and not u.member("000")

    def test_sizes(self):
        assert All(4).size() == 16
        assert Cyl("01", 4).size() == 4
        assert Hamming(4, 2).size() == 6
        assert ListSet(("0", "0", "11")).size() == 2
        assert All(25).size() == 1 << 25

    def test_denote_is_canonical(self):
        assert Hamming(3, 2).denote() == ["011", "101", "110"]
        assert ListSet(("11", "0", "11")).denote() == ["0", "11"]
        assert UnionSet((All(1), All(0))).denote() == ["", "0", "1"]

    def test_denote_cap(self):
        with pytest.raises(CapExceeded):
            All(25).denote()
        with pytest.raises(CapExceeded):
            UnionSet((All(22), All(3))).denote()

    def test_union_counts_without_materializing(self):
        # inclusion-exclusion needs no cap for simple parts: 2^22 members
        # are more than DENOTE_CAP lets denote() hold
        assert UnionSet((All(22), All(3))).size() == (1 << 22) + 8 > DENOTE_CAP

    def test_invalid_shapes(self):
        with pytest.raises(SetLangError):
            Cyl("010", 2)
        with pytest.raises(SetLangError):
            Hamming(2, 3)
        with pytest.raises(SetLangError):
            UnionSet((All(1),))
        with pytest.raises(SetLangError):
            ListSet(())

    @given(st.lists(simple_descs, min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_union_size_matches_materialization(self, parts):
        u = UnionSet(tuple(parts))
        assert u.size() == len(u.denote())


class TestCodec:
    def test_known_codes(self):
        assert encode(Singleton("")) == "000"
        assert encode(All(0)) == "010"
        assert encode(All(4)) == "0111001"

    @given(simple_descs)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, desc):
        assert decode(encode(desc)) == desc

    def test_union_roundtrip(self):
        u = UnionSet((All(2), Singleton("1"), Hamming(3, 1)))
        assert decode(u.code) == u

    def test_trailing_bits_rejected(self):
        with pytest.raises(SetLangError):
            decode(encode(All(2)) + "0")

    def test_truncated_rejected(self):
        with pytest.raises(SetLangError):
            decode(encode(Singleton("0110"))[:-1])

    @given(simple_descs)
    @settings(max_examples=60, deadline=None)
    def test_text_roundtrip(self, desc):
        assert parse_setlang(format_setlang(desc)) == desc

    @given(unions)
    @settings(max_examples=60, deadline=None)
    @example(parse_setlang("union(list{0,1},all:2)"))  # commas inside a part
    @example(UnionSet((Cyl("11", 3), Hamming(3, 1))))  # the prefix outweighs s
    @example(UnionSet((UnionSet((All(1), Singleton("00"))), Hamming(2, 1))))  # nested
    # 2^22 + 2^3 + 2^1 members, past the cap of a listing, nested and flat
    @example(UnionSet((UnionSet((All(22), All(3))), All(1))))
    @example(UnionSet((All(22), All(3), All(1))))
    def test_unions_count_and_round_trip(self, union):
        """A union of simple shapes, nested ones included, counts its
        members exactly and reads back from its text and from its code."""
        assert union.size() == naive_union_size(union)
        if union.size() <= DENOTE_CAP:
            assert union.size() == len(union.denote())
        assert parse_setlang(format_setlang(union)) == union == decode(union.code)

    def test_text_forms(self):
        assert format_setlang(Singleton("")) == "singleton:-"
        assert format_setlang(Cyl("01", 4)) == "cyl:01/4"
        assert parse_setlang("union(all:2,ham:3,1)") == UnionSet((All(2), Hamming(3, 1)))
        assert parse_setlang("list{-,01}") == ListSet(("", "01"))
        u = UnionSet((Hamming(3, 1), Hamming(4, 2), Singleton("11")))
        assert parse_setlang(format_setlang(u)) == u
        with pytest.raises(SetLangError):
            parse_setlang("ball:3,1")


def assert_base_models_win(x: str, cap: int, models: list) -> None:
    """``models`` are the models of x below ``cap`` that an older or a blind
    search makes: its base sets are exactly ``enumerate_models(x, cap)``, at
    most n+4 of them, and each of its unions and lists is beaten by one of
    those, with a strictly shorter code and a size no larger."""
    found = enumerate_models(x, cap)
    assert len(found) <= len(x) + 4
    assert [d for d in models if not isinstance(d, (UnionSet, ListSet))] == found, (x, cap)
    sized = [(b.code_len, b.size()) for b in found]
    for d in models:
        if isinstance(d, (UnionSet, ListSet)):
            sizes = [size for code_len, size in sized if code_len < d.code_len]
            assert sizes and min(sizes) <= d.size(), (x, cap, format_setlang(d))


# Every x of each length n at the cap alpha_cap(x, beta). Set ALGSTAT_FULL_SWEEP
# to sweep every n <= 10 at beta = 0, 4 and 8 (about three minutes).
SWEEPS = [(n, beta) for n in range(9) for beta in (0, 4)] + [(10, 0)]
if os.environ.get("ALGSTAT_FULL_SWEEP"):
    SWEEPS += [(n, b) for n in range(11) for b in (0, 4, 8) if (n, b) not in SWEEPS]


class TestEnumeration:
    @pytest.mark.parametrize("x", ["", "0", "01", "0110", "1011"])
    def test_base_models_beat_blind_decoding(self, x):
        """Against every model the grammar decodes below 16 bits, nested
        unions and lists of any count included."""
        assert_base_models_win(x, 16, blind_models(x, 16))

    @given(st.text("01", max_size=5), st.integers(4, 14))
    @settings(max_examples=40, deadline=None)
    def test_all_results_contain_x(self, x, alpha_max):
        models = enumerate_models(x, alpha_max)
        assert all(d.member(x) and d.code_len < alpha_max for d in models)
        keys = [(d.code_len, d.code) for d in models]
        assert keys == sorted(keys)

    def test_alpha_bound_enforced(self):
        with pytest.raises(ValueError):
            enumerate_models("0", 41)

    @pytest.mark.parametrize("n, beta", SWEEPS)
    def test_base_models_beat_filtered_generation(self, n, beta):
        """Against the unions and lists the old search made, which
        ``filtered_models`` keeps."""
        for v in range(1 << n):
            x = format(v, f"0{n}b") if n else ""
            cap = alpha_cap(x, beta)
            assert_base_models_win(x, cap, filtered_models(x, cap))

    @pytest.mark.parametrize("x", ["0110100110010110", "01" * 13])
    @pytest.mark.parametrize("cap", [24, 28, 32])
    def test_long_strings_beat_filtered_generation(self, x, cap):
        assert_base_models_win(x, cap, filtered_models(x, cap))


class TestDeficiency:
    def test_singleton_is_free(self, cond_cache):
        source = TableSource(cache_dir=cond_cache, max_len=19)
        r = deficiency("01" * 4, Singleton("01" * 4), source=source)
        # decode-the-model costs tag + empty codeword + halt
        assert r.k_cond == 7
        assert r.codeword_len == 0
        assert r.delta_norm == 0 and r.delta_star == 0

    def test_alternating_string_is_typical_but_star_lags(self, cond_cache):
        r = deficiency("01" * 4, All(8), source=TableSource(cache_dir=cond_cache, max_len=19))
        assert (r.codeword_len, r.k_cond) == (8, 15)
        assert r.delta_norm == 0
        assert r.delta_star == 4
        assert r.typical(0) and not r.typical(-1)

    def test_weight_class(self, cond_cache):
        r = deficiency("01" * 4, Hamming(8, 4), source=TableSource(cache_dir=cond_cache, max_len=19))
        assert (r.codeword_len, r.k_cond, r.delta_norm, r.delta_star) == (7, 14, 0, 4)

    def test_small_models(self, cond_cache):
        source = TableSource(cache_dir=cond_cache, max_len=15)
        r = deficiency("0110", All(4), source=source)
        assert (r.codeword_len, r.k_cond, r.delta_norm, r.delta_star) == (4, 11, 0, 0)
        r = deficiency("0110", ListSet(("0110", "1001")), source=source)
        assert (r.codeword_len, r.k_cond, r.delta_norm, r.delta_star) == (1, 8, 0, 0)

    def test_ten_bits_at_the_derived_cap(self, cond_cache):
        """By default a model's tables are capped at 2n+3 for its n-bit
        members; a deeper cap gives the same record."""
        source = TableSource(cache_dir=cond_cache)
        x = "0110100110"
        derived = deficiency(x, All(10), source=source)
        assert derived == deficiency(x, All(10), source=source._replace(max_len=25))

    @pytest.mark.parametrize(
        "outputs, first_absent",
        [(["00", "01", "10", "11"], "111"), (["00", "01", "11"], "10")],
        ids=["dense", "sparse"],
    )
    def test_members_are_read_in_one_call(self, outputs, first_absent):
        entries = {y: Entry(5 + i, "1" * (5 + i), 1) for i, y in enumerate(outputs)}
        table = ComplexityTable(9, Budgets(), "made-up", entries, [0] * 10)
        assert _least_deficient("01", ["00", "01"], table) == (6, "01", 6, 1)
        # x outside the member list
        kx, best_y, best_k, ratio = _least_deficient("00", ["01", "11"], table)
        assert (kx, best_y, best_k - kx, ratio) == (5, "11", len(outputs) - 1, 1)
        # equal scores m(y) * 2^K(y): the first member wins, and the ratio is exact
        masses = {"00": Fraction(1, 2), "01": Fraction(1, 4)}
        assert _least_deficient("01", ["00", "01"], table, masses.get) == (6, "00", 5, 2)
        with pytest.raises(Absent) as absent:
            _least_deficient("00", ["00", "10", "111", "1"], table)
        assert absent.value.x == first_absent

    def test_nonmember_rejected(self):
        with pytest.raises(ValueError):
            deficiency("1", All(2))
        with pytest.raises(ValueError):
            two_part("1", All(2))

    def test_two_part_totals(self):
        assert two_part("0110", Singleton("0110")) == 11
        assert two_part("01" * 4, Singleton("01" * 4)) == 17
        assert two_part("01" * 4, All(8)) == 17
        assert two_part("01" * 4, Hamming(8, 4)) == 22

    def test_conditions_are_keyed_by_description(self):
        assert (
            uniform_condition(All(4)).fingerprint()
            != uniform_condition(Cyl("", 4)).fingerprint()
        )
        assert star_condition(All(4)).fingerprint() == star_condition(All(4)).fingerprint()


class TestStructureCurve:
    def test_alternating_four(self, cond_cache):
        curve = structfn("0110", 12, source=TableSource(cache_dir=cond_cache, max_len=15))
        assert [(r.alpha, r.h, r.beta, r.beta_star, r.lam) for r in curve.rows] == [
            (8, 4.0, 0, 0, 12.0),
            (9, 4.0, 0, 0, 13.0),
            (10, 4.0, 0, 0, 14.0),
            (11, 4.0, 0, 0, 15.0),
            (12, 0.0, 0, 0, 12.0),
        ]
        assert curve.h(12) == 0.0
        with pytest.raises(KeyError):
            curve.h(7)

    def test_h_is_nonincreasing_and_drops_to_zero(self, cond_cache):
        curve = structfn("1011", 12, include_deficiency=False)
        hs = [r.h for r in curve.rows]
        assert hs == sorted(hs, reverse=True)
        assert curve.h(12) == 0.0  # the singleton kicks in

    @given(st.text("01", max_size=6), st.integers(4, 20))
    @settings(max_examples=40, deadline=None)
    def test_h_is_nonincreasing_in_alpha(self, x, alpha_max):
        """h_x(alpha) is a minimum over the models below alpha, a family that
        only grows with alpha, so it never rises."""
        curve = structfn(x, alpha_max, include_deficiency=False)
        alphas = [r.alpha for r in curve.rows]
        assert alphas == list(range(alpha_max + 1 - len(alphas), alpha_max + 1))
        hs = [curve.h(alpha) for alpha in alphas]
        assert all(a >= b for a, b in zip(hs, hs[1:]))

    def test_csv_shape(self, cond_cache):
        curve = structfn("0110", 12, source=TableSource(cache_dir=cond_cache, max_len=15))
        lines = curve.to_csv().splitlines()
        assert lines[0] == "alpha,h,beta,beta_star,lambda"
        assert lines[1] == "8,4,0,0,12"
        assert len(lines) == 6


class TestSuffStat:
    def test_split_string(self):
        rep = suffstat("00010111")
        assert rep.lambda_min == 17
        assert rep.minimal == All(8)
        assert [d.code_len for d in rep.optimal] == [9, 17]

    def test_beta_widens_the_optimal_set(self):
        strict = suffstat("00010111", beta=0)
        loose = suffstat("00010111", beta=2)
        assert set(strict.optimal) <= set(loose.optimal)
        assert strict.lambda_min == loose.lambda_min

    def test_restricted_family(self):
        full = suffstat("0110")
        weights = [Hamming(4, s) for s in range(5)]
        rep = suffstat("0110", family=weights)
        assert rep.minimal == Hamming(4, 2)
        # no weight class is within beta = 0 of the unrestricted total
        assert rep.lambda_min > full.lambda_min

    def test_family_without_x_rejected(self):
        with pytest.raises(ValueError):
            suffstat("0110", family=[All(2)])

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            suffstat("0", beta=-1)


class TestStochasticity:
    def test_scan_length_four(self, cond_cache):
        rep = nonstoch_scan(4, 0, source=TableSource(cache_dir=cond_cache, max_len=15))
        assert rep.histogram == {7: 15, 11: 1}
        assert rep.argmax == ("1110",)
        assert rep.max_len == 11

    def test_scan_cap(self):
        with pytest.raises(ValueError):
            nonstoch_scan(13, 0)

    def test_scan_under_a_low_alpha_bound(self, cond_cache, monkeypatch):
        """The search stops at the alpha bound, as every model search does:
        below Singleton's code length All(2) still qualifies for every
        2-bit string, and a bound that admits no model of x is an error,
        not an assertion."""
        source = TableSource(cache_dir=cond_cache)
        full = nonstoch_scan(2, 0, source=source)
        monkeypatch.setattr(models_set, "ALPHA_BOUND", 6)
        rep = nonstoch_scan(2, 0, source=source)
        assert rep.min_len == full.min_len == dict.fromkeys(("00", "01", "10", "11"), 5)
        monkeypatch.setattr(models_set, "ALPHA_BOUND", 5)
        with pytest.raises(ValueError, match="below the alpha bound"):
            nonstoch_scan(2, 0, source=source)
