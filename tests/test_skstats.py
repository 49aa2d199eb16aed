"""Complexity-level sets, padded indices, m_x splits, and the X(r) bounds."""

from __future__ import annotations

from fractions import Fraction

import pytest

from algstat import skstats
from algstat.skstats import (
    _mx_lengths,
    logn_gap,
    mx,
    sk,
    sk_csv,
    sk_mx,
    slice_bound_check,
    t_kraft_sum,
    xr,
    xr_bound_check,
    xr_csv,
    xr_report,
)
from oracles import (
    naive_mx_lengths,
    naive_sk_mx,
    naive_slice_bound_check,
    naive_xr_mass_sums,
)


@pytest.fixture(scope="module")
def naive_table_l12(table_l12):
    return naive_mx_lengths(table_l12)


@pytest.fixture(scope="module")
def naive_table_l22(table_l22):
    """The quadratic oracle's l(m_x) on the L=22 table, computed once."""
    return naive_mx_lengths(table_l22)


class TestSk:
    def test_level_five(self, table_l22):
        idx = sk(table_l22, 5)
        assert idx.members == ("", "0", "1")
        assert (idx.n_k, idx.width, idx.t_k) == (3, 2, 2)
        assert idx.n_word() == "11"
        assert idx.index_of("") == "01" and idx.index_of("0") == "10"

    def test_level_seven(self, table_l12):
        idx = sk(table_l12, 7)
        assert idx.members == ("", "0", "1", "00", "01", "10", "11")
        assert (idx.n_k, idx.width, idx.t_k) == (7, 3, 4)

    def test_membership_and_rank(self, table_l12):
        idx = sk(table_l12, 5)
        assert "0" in idx and "00" not in idx
        assert len(idx) == 3
        with pytest.raises(KeyError):
            idx.rank_of("00")

    def test_monotone_in_k(self, table_l12):
        prev: tuple[str, ...] = ()
        for k in range(3, 13):
            members = sk(table_l12, k).members
            assert set(prev) <= set(members)
            prev = members

    def test_k_beyond_cap_rejected(self, table_l12):
        with pytest.raises(ValueError):
            sk(table_l12, 13)

    def test_csv(self, table_l22):
        assert sk_csv(table_l22, 5) == "member,K,index\n-,3,01\n0,5,10\n1,5,11\n"

    def test_rank_map_is_not_identity(self, table_l12):
        a, b = sk(table_l12, 7), sk(table_l12, 7)
        assert a == b and hash(a) == hash(b)
        assert "ranks" not in repr(a)
        assert [a.rank_of(x) for x in a.members] == list(range(1, a.n_k + 1))


class TestMx:
    def test_split_words(self, table_l22):
        rec = mx(table_l22, 5, "")
        assert (rec.index, rec.m_x, rec.i_x, rec.n_x, rec.degenerate) == ("01", "", "1", "1", False)
        rec = mx(table_l22, 5, "0")
        assert (rec.index, rec.m_x, rec.i_x, rec.n_x, rec.degenerate) == ("10", "1", "", "", False)

    def test_degenerate_last_member(self, table_l22):
        rec = mx(table_l22, 5, "1")
        assert rec.degenerate
        assert (rec.m_x, rec.i_x, rec.n_x) == ("1", "1", "1")

    def test_reconstruction_every_member(self, table_l12):
        # index = m 0 i and N-word = m 1 n, except at the very last member
        for k in (5, 7, 9, 11):
            idx = sk(table_l12, k)
            for x in idx.members:
                rec = mx(table_l12, k, x)
                assert len(rec.i_x) == len(rec.n_x)
                if rec.degenerate:
                    assert rec.index == idx.n_word()
                else:
                    assert rec.index == rec.m_x + "0" + rec.i_x
                    assert idx.n_word() == rec.m_x + "1" + rec.n_x

    def test_subset_selection(self, table_l22):
        assert sk_mx(table_l22, 5, "0") == ("0",)
        assert sk_mx(table_l22, 5, "1") == ("0", "1")

    def test_subset_contains_x_and_is_small(self, table_l12):
        for k in (5, 7, 9):
            for x in sk(table_l12, k).members:
                members = sk_mx(table_l12, k, x)
                assert x in members
                rec = mx(table_l12, k, x)
                if rec.degenerate:
                    assert len(members) <= 2
                else:
                    assert len(members) <= 1 << len(rec.i_x)


class TestAgainstOracle:
    @pytest.mark.parametrize("fixture", ["table_l12", "table_l22"])
    def test_mx_lengths(self, fixture, request):
        table = request.getfixturevalue(fixture)
        assert _mx_lengths(table) == request.getfixturevalue(f"naive_{fixture}")

    def test_xr_rows(self, table_l22, naive_table_l22):
        rows = xr_report(table_l22)
        assert [row.mass_sum for row in rows] == naive_xr_mass_sums(table_l22, naive_table_l22)
        for row in rows:
            expected = tuple(x for x in table_l22.sorted_outputs() if naive_table_l22[x] >= row.r)
            assert row.members == expected == xr(table_l22, row.r)

    @pytest.mark.parametrize(
        "shift",
        [
            pytest.param(lambda k, l: l, id="true-lengths"),
            pytest.param(lambda k, l: l + 1, id="all-plus-one"),
            pytest.param(lambda k, l: l + 2, id="all-plus-two"),
            pytest.param(lambda k, l: l + 3 * (k == 17), id="level-17-plus-three"),
            pytest.param(lambda k, l: l + (l >= 5), id="long-prefixes-plus-one"),
        ],
    )
    def test_slice_bound_check(self, table_l22, naive_table_l22, shift, monkeypatch):
        """The bound holds for the true lengths whatever the table, so the
        check is also compared on lengths shifted until it fails."""
        outs = table_l22.sorted_outputs()
        ks, _ = skstats._mx_pass(table_l22)
        lengths = [shift(table_l22.k_of(x), naive_table_l22[x]) for x in outs]
        monkeypatch.setattr(skstats, "_mx_pass", lambda table: (ks, lengths))
        expected = naive_slice_bound_check(table_l22, dict(zip(outs, lengths)))
        assert slice_bound_check(table_l22) == expected

    def test_sk_mx_every_member(self, table_l12):
        for k in (5, 7, 9):
            for x in sk(table_l12, k).members:
                assert sk_mx(table_l12, k, x) == naive_sk_mx(table_l12, k, x)


class TestXr:
    def test_mass_bounds(self, table_l22):
        ok, ratio, rows = xr_bound_check(table_l22)
        assert ok and ratio <= 1
        assert rows[0].bound == 4 and rows[-1].members == ()

    def test_known_rows(self, table_l22):
        rows = xr_report(table_l22)
        assert len(rows) == 13
        assert (len(rows[0].members), rows[0].mass_sum) == (3547, Fraction(134461, 1 << 19))
        assert (len(rows[1].members), rows[1].mass_sum) == (1865, Fraction(259757, 1 << 21))
        assert len(rows[11].members) == 2

    def test_xr_is_nested(self, table_l12):
        prev = None
        for r in range(6):
            cur = set(xr(table_l12, r))
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_slice_bound(self, table_l22):
        assert slice_bound_check(table_l22)

    def test_csv_header_and_first_rows(self, table_l22):
        lines = xr_csv(table_l22).splitlines()
        assert lines[0] == "r,|X(r)|,sum,bound,pass"
        assert lines[1] == "0,3547,134461/2^19,4,1"
        assert lines[2] == "1,1865,259757/2^21,2,1"
        assert lines[-1] == "12,0,0,1/2^10,1"


class TestAggregates:
    def test_t_kraft_sum(self, table_l22, table_l12):
        assert t_kraft_sum(table_l22) == Fraction(134461, 1 << 19)
        assert t_kraft_sum(table_l12) == Fraction(31, 128)

    def test_t_kraft_below_one(self, table_l24):
        assert t_kraft_sum(table_l24) <= 1

    def test_logn_gap(self, table_l22, table_l12):
        assert logn_gap(table_l22) == 4
        assert logn_gap(table_l12) == 4
