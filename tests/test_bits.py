"""Codecs: bijective naturals, self-delimiting codes, pairing, exact logs."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from algstat.bits import (
    BitReader,
    CodeError,
    bar,
    bar_len,
    bar_nat,
    bits_to_nat,
    bits_to_text,
    ceil_log2,
    ceil_log2_ratio,
    is_bits,
    nat_len,
    nat_to_bits,
    pair,
    pair_len,
    std,
    std_len,
    text_to_bits,
    unpair,
)

bitstrings = st.text(alphabet="01", max_size=48)
naturals = st.integers(min_value=0, max_value=10**12)


class TestNaturals:
    def test_first_values(self):
        assert [nat_to_bits(n) for n in range(7)] == ["", "0", "1", "00", "01", "10", "11"]

    @given(naturals)
    def test_roundtrip(self, n):
        assert bits_to_nat(nat_to_bits(n)) == n

    @given(naturals)
    def test_length_closed_form(self, n):
        assert len(nat_to_bits(n)) == nat_len(n) == (n + 1).bit_length() - 1

    @given(naturals, naturals)
    def test_order_isomorphism(self, m, n):
        # b is monotone for the (length, lexicographic) order on strings
        bm, bn = nat_to_bits(m), nat_to_bits(n)
        assert (m < n) == ((len(bm), bm) < (len(bn), bn))


class TestSelfDelimiting:
    def test_examples(self):
        assert bar("") == "0"
        assert bar("1") == "101"
        assert bar("01") == "11001"
        assert std("") == "0"
        assert std("01") == "10101"
        assert pair("", "") == "0"

    @given(bitstrings)
    def test_bar_length(self, x):
        assert len(bar(x)) == bar_len(len(x)) == 2 * len(x) + 1

    @given(bitstrings)
    def test_std_length(self, x):
        lb = nat_len(len(x))
        assert len(std(x)) == std_len(len(x)) == len(x) + 2 * lb + 1

    @given(bitstrings, bitstrings)
    def test_pair_length(self, x, y):
        lb = nat_len(len(x))
        assert len(pair(x, y)) == pair_len(len(x), len(y)) == len(y) + len(x) + 2 * lb + 1

    @given(bitstrings)
    def test_bar_roundtrip(self, x):
        r = BitReader(bar(x))
        assert r.read_bar() == x and r.at_end()

    @given(bitstrings)
    def test_std_roundtrip(self, x):
        r = BitReader(std(x))
        assert r.read_std() == x and r.at_end()

    @given(bitstrings, bitstrings)
    def test_unpair_roundtrip(self, x, y):
        assert unpair(pair(x, y)) == (x, y)

    @given(bitstrings, bitstrings, bitstrings, bitstrings)
    def test_pair_injective(self, x, y, u, v):
        if pair(x, y) == pair(u, v):
            assert (x, y) == (u, v)

    def test_reader_errors(self):
        with pytest.raises(CodeError):
            BitReader("11").read_bar()  # no terminating 0
        with pytest.raises(CodeError):
            BitReader("10").read_bar()  # payload missing
        with pytest.raises(CodeError):
            BitReader("01").take(3)
        with pytest.raises(CodeError):
            unpair("11")


class TestExactLogs:
    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    def test_ceil_log2_ratio(self, num, den):
        e = ceil_log2_ratio(num, den)
        q = Fraction(num, den)
        assert q <= Fraction(2) ** e
        assert q > Fraction(2) ** (e - 1)

    def test_powers_of_two(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
        assert ceil_log2_ratio(1, 8) == -3
        assert ceil_log2_ratio(3, 8) == -1
        assert ceil_log2_ratio(16, 9) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2_ratio(0, 3)


class TestTextForm:
    def test_empty_marker(self):
        assert bits_to_text("") == "-"
        assert text_to_bits("-") == ""

    @given(bitstrings)
    def test_roundtrip(self, s):
        assert text_to_bits(bits_to_text(s)) == s

    def test_rejects_garbage(self):
        with pytest.raises(CodeError):
            text_to_bits("012")

    # mostly-bit text reaches the interior characters strip() must not miss
    @given(st.text() | st.text(alphabet="01") | st.text(alphabet="01 2a\n-\u00e9"))
    @example("")
    @example("0a1")
    def test_is_bits_matches_per_char_definition(self, s):
        assert is_bits(s) == all(c in "01" for c in s)

    def test_is_bits_rejects_non_str(self):
        assert not is_bits(b"01")
        assert not is_bits(None)
