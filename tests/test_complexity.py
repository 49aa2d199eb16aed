"""Conditional/joint complexity, mutual information, and the law audits."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algstat.bits import pair
from algstat.cache import TableSource
from algstat.complexity import (
    Absent,
    k_cond,
    mutual_info,
    require_k,
    shortest_program,
    soi_audit,
)
from algstat.enumeration import build_table
from algstat.machine import Condition, run

short_strings = st.integers(0, 8).flatmap(
    lambda l: st.tuples(*([st.sampled_from("01")] * l)).map("".join)
)


class TestLookups:
    def test_spot_values(self, table_l22):
        assert require_k(table_l22, "") == 3
        assert require_k(table_l22, "0") == 5
        assert require_k(table_l22, "0110") == 11
        assert require_k(table_l22, "0000") == 11
        assert require_k(table_l22, "01" * 4) == 15

    def test_k_of_is_total(self, table_l12):
        assert table_l12.k_of("0") == 5
        assert table_l12.k_of("0" * 9) is None

    def test_require_k_raises_beyond_horizon(self, table_l12):
        with pytest.raises(Absent) as exc:
            require_k(table_l12, "0" * 9)
        assert "enlarge it" in str(exc.value)

    def test_require_k_names_a_conditional_table(self):
        with pytest.raises(Absent) as exc:
            require_k(build_table(8, Condition.string("1")), "0" * 9)
        assert "within the conditional table's cap L=8;" in str(exc.value)

    def test_witness_reproduces_string(self, table_l12):
        for x in ("", "0", "1", "0110"):
            w = shortest_program(table_l12, x) if len(x) < 4 else None
            if w is None:
                continue
            assert len(w) == require_k(table_l12, x)
            assert run(w).output == x

    @given(short_strings)
    @settings(max_examples=60, deadline=None)
    def test_emit_only_upper_bound(self, table_l22, x):
        # EMIT per bit plus HALT always exists, so K(x) <= 2 l(x) + 3.
        assert require_k(table_l22, x) <= 2 * len(x) + 3

    @given(short_strings)
    @settings(max_examples=60, deadline=None)
    def test_witness_halts_on_x(self, table_l22, x):
        w = shortest_program(table_l22, x)
        out = run(w)
        assert out.halted and out.output == x


class TestConditional:
    def test_copy_beats_emit(self, cond_cache):
        # Given the string itself, one COPYIN token reproduces it.
        source = TableSource(cache_dir=cond_cache)
        assert k_cond("1011", Condition.string("1011"), source=source) == 8

    def test_conditioning_never_hurts_much(self, table_l22, cond_cache):
        # The emit-only bound is condition-free.
        cond = Condition.string("00")
        for x in ("", "0", "11", "0101"):
            kc = k_cond(x, cond, source=TableSource(cache_dir=cond_cache))
            assert kc is not None and kc <= 2 * len(x) + 3

    def test_absent_is_none(self, cond_cache):
        source = TableSource(cache_dir=cond_cache, max_len=12)
        assert k_cond("0" * 9, Condition.string("1"), source=source) is None

    def test_small_cap_matches_default_cap(self, cond_cache):
        # Minima below both caps agree, so audits may run on shallow tables.
        cond = Condition.string("0110")
        for x in ("", "0", "10", "110"):
            assert k_cond(x, cond, source=TableSource(cache_dir=cond_cache, max_len=11)) == k_cond(
                x, cond, source=TableSource(cache_dir=cond_cache, max_len=14)
            )


class TestMutualInfo:
    def test_self_information_of_empty(self, table_l22):
        rec = mutual_info(table_l22, "", "")
        assert (rec.kx, rec.ky, rec.kxy) == (3, 3, 5)
        assert rec.i == 1

    def test_spot_pair(self, table_l22):
        rec = mutual_info(table_l22, "0", "00")
        assert (rec.kx, rec.ky, rec.kxy) == (5, 7, 15)
        assert rec.i == -3

    def test_absent_pair_raises(self, table_l12):
        with pytest.raises(Absent):
            mutual_info(table_l12, "0110", "0110")

    @given(short_strings.filter(lambda x: len(x) <= 2), short_strings.filter(lambda x: len(x) <= 2))
    @settings(max_examples=40, deadline=None)
    def test_consistent_with_table(self, table_l22, x, y):
        # pair() of two <=2-bit strings is <=7 bits, inside the L=22 horizon
        rec = mutual_info(table_l22, x, y)
        assert rec.kxy == require_k(table_l22, pair(x, y))
        assert rec.i == rec.kx + rec.ky - rec.kxy


class TestSoiAudit:
    def test_empty_string_only(self, cond_cache):
        t = build_table(8)
        rep = soi_audit(t, len_cap=0, source=TableSource(cache_dir=cond_cache, max_len=8))
        assert rep.pairs_checked == 1
        # K(<e,e>) = 5, K(e) = 3, K(e|e*) = 3.
        assert rep.additivity_max_slack == 1
        assert rep.triangle_c == 0

    def test_length_two_sweep(self, cond_cache):
        t = build_table(17)
        rep = soi_audit(t, len_cap=2, source=TableSource(cache_dir=cond_cache, max_len=14))
        assert rep.pairs_checked == 49
        assert rep.measured() == {
            "soi_additivity": 3,
            "soi_triangle": 0,
            "mi_self_gap": 3,
            "mi_swap_gap": 4,
        }

    def test_argmax_is_reported(self, cond_cache):
        t = build_table(17)
        rep = soi_audit(t, len_cap=2, source=TableSource(cache_dir=cond_cache, max_len=14))
        x, y = rep.additivity_argmax
        assert len(x) <= 2 and len(y) <= 2

    def test_cap_too_small_raises(self, cond_cache):
        t = build_table(12)
        with pytest.raises(Absent):
            soi_audit(t, len_cap=2, source=TableSource(cache_dir=cond_cache, max_len=14))
