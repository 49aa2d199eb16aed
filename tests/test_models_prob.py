"""Distribution models: codec, Shannon-Fano codebooks, probabilistic
deficiency (and its agreement with the finite-set form), and the
restricted-class Bernoulli demonstration."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algstat import models_set
from algstat.bits import _fmt_real, bar_nat, std
from algstat.cache import TableSource
from algstat.condition import Condition
from algstat.distlang import (
    Bernoulli,
    DistLangError,
    TableDist,
    UniformOn,
    codebook,
    decode_dist,
    encode_dist,
    format_distlang,
    parse_distlang,
)
from algstat.models_prob import bernoulli_demo, deficiency_p, suffstat_p
from algstat.models_set import (
    DeficiencyRecord,
    SuffStatReport,
    alpha_cap,
    deficiency,
    enumerate_models,
    suffstat,
    two_part,
)
from algstat.setlang import All, CapExceeded, Cyl, Hamming, ListSet, Singleton, UnionSet
from oracles import naive_codebook

B2 = Bernoulli(2, Fraction(1, 4))
B8 = Bernoulli(8, Fraction(1, 4))

short_bits = st.text("01", max_size=5)
simple_sets = st.one_of(
    short_bits.map(Singleton),
    st.integers(0, 7).map(All),
    st.builds(lambda prefix, free: Cyl(prefix, len(prefix) + free), short_bits, st.integers(0, 4)),
    st.integers(0, 8).flatmap(lambda n: st.integers(0, n).map(lambda s: Hamming(n, s))),
    st.lists(short_bits, min_size=1, max_size=6).map(lambda elems: ListSet(tuple(elems))),
)
uniform_models = st.one_of(
    simple_sets, st.lists(simple_sets, min_size=2, max_size=3).map(lambda ps: UnionSet(tuple(ps)))
).map(UniformOn)
probabilities = st.builds(lambda a, b: Fraction(a, a + b), st.integers(1, 40), st.integers(1, 40))
bernoulli_models = st.builds(Bernoulli, st.integers(0, 9), probabilities)
# weights over a total of at least their sum: masses in (0, 1] summing to at most 1
table_models = st.builds(
    lambda weights, spare: TableDist(
        tuple((x, Fraction(w, sum(weights.values()) + spare)) for x, w in weights.items())
    ),
    st.dictionaries(short_bits, st.integers(1, 64), min_size=1, max_size=6),
    st.integers(0, 64),
)


def rat_bits(q: Fraction) -> str:
    return bar_nat(q.numerator) + bar_nat(q.denominator)


class TestDistributions:
    def test_masses(self):
        assert B2.mass("00") == Fraction(9, 16)
        assert B2.mass("11") == Fraction(1, 16)
        assert B2.mass("0") == 0
        assert UniformOn(All(3)).mass("010") == Fraction(1, 8)
        assert TableDist((("0", Fraction(1, 2)),)).mass("1") == 0

    def test_neglog(self):
        assert B2.neglog("11") == 4.0
        assert B2.neglog("0") == math.inf
        assert UniformOn(Hamming(4, 2)).neglog("0110") == pytest.approx(math.log2(6))

    def test_domain_is_canonical(self):
        assert B2.domain() == ["00", "01", "10", "11"]
        assert TableDist((("11", Fraction(1, 4)), ("0", Fraction(1, 2)))).domain() == ["0", "11"]

    def test_validation(self):
        with pytest.raises(DistLangError):
            Bernoulli(2, Fraction(1))
        with pytest.raises(DistLangError):
            Bernoulli(-1, Fraction(1, 2))
        with pytest.raises(DistLangError):
            TableDist((("0", Fraction(3, 4)), ("1", Fraction(1, 2))))
        with pytest.raises(DistLangError):
            TableDist((("0", Fraction(1, 2)), ("0", Fraction(1, 4))))


class TestCodec:
    @pytest.mark.parametrize(
        "dist",
        [
            B2,
            UniformOn(Hamming(4, 2)),
            UniformOn(ListSet(("", "01"))),
            TableDist((("0", Fraction(1, 2)), ("11", Fraction(1, 3)))),
        ],
    )
    def test_roundtrip(self, dist):
        assert decode_dist(encode_dist(dist)) == dist
        assert parse_distlang(format_distlang(dist)) == dist

    def test_text_forms(self):
        assert format_distlang(B2) == "bern:2,1/4"
        assert format_distlang(UniformOn(All(4))) == "unif(all:4)"
        assert parse_distlang("table{-:1/2,01:1/4}") == TableDist(
            (("", Fraction(1, 2)), ("01", Fraction(1, 4)))
        )

    def test_noncanonical_table_code_rejected(self):
        bits = "10" + bar_nat(2) + std("1") + rat_bits(Fraction(1, 2)) + std("0") + rat_bits(
            Fraction(1, 4)
        )
        with pytest.raises(DistLangError):
            decode_dist(bits)

    def test_trailing_bits_rejected(self):
        with pytest.raises(DistLangError):
            decode_dist(encode_dist(B2) + "1")

    def test_bad_syntax(self):
        with pytest.raises(DistLangError):
            parse_distlang("geom:1/2")
        with pytest.raises(DistLangError):
            parse_distlang("bern:2,0.25")

    @pytest.mark.parametrize("text", ["bern:4,1/0", "table{0101:1/0}", "table{0:1/2,1:0/0}"])
    def test_zero_denominator_is_a_syntax_error(self, text):
        with pytest.raises(DistLangError, match="zero denominator"):
            parse_distlang(text)


class TestCodebook:
    def test_assignment(self):
        book = codebook(B2)
        assert book.assignments == (
            ("00", "0"),
            ("01", "100"),
            ("10", "101"),
            ("11", "1100"),
        )
        assert book.kraft_sum() == Fraction(13, 16)

    def test_lengths_are_ceil_neglog(self):
        assert B2.codeword_len("00") == 1
        assert B2.codeword_len("01") == 3
        assert UniformOn(All(3)).codeword_len("000") == 3
        with pytest.raises(DistLangError, match="^000 has zero mass under bern:2,1/4$"):
            B2.codeword_len("000")

    def test_decode_inverts(self):
        book = codebook(B2)
        for elem, cw in book.assignments:
            assert book.decode(cw) == elem
        with pytest.raises(KeyError):
            book.decode("111")

    @pytest.mark.parametrize("dist", [B2, B8, UniformOn(Hamming(5, 2))])
    def test_prefix_free(self, dist):
        words = sorted(cw for _, cw in codebook(dist).assignments)
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a)

    def test_kraft_never_exceeds_one(self):
        for dist in (B2, B8, UniformOn(All(6))):
            assert codebook(dist).kraft_sum() <= 1

    @settings(max_examples=300, deadline=None)
    @given(dist=st.one_of(uniform_models, bernoulli_models, table_models))
    def test_max_codeword_len_is_the_longest_codeword(self, dist):
        """The closed forms (uniform, Bernoulli) and the scan (table) give the
        longest codeword of the book packed from every element's mass."""
        book = naive_codebook(dist)
        longest = max(len(cw) for _, cw in book.assignments)
        assert dist.max_codeword_len() == longest
        assert codebook(dist) == book

    @pytest.mark.parametrize("x", ["01101001", "011010011001"])
    def test_uniform_books_of_structfn_models_equal_the_packed_book(self, x):
        """Every uniform model a default ``structfn`` reads gets the book of
        the mass-by-mass packing from the closed form."""
        models = enumerate_models(x, alpha_cap(x))
        assert len(models) > 1
        for desc in models:
            assert codebook(UniformOn(desc)) == naive_codebook(UniformOn(desc))

    @pytest.mark.parametrize(
        "lookup, message",
        [
            (
                lambda source: source.tables([Condition.of_model(UniformOn(All(21)))], n=21),
                r"\|All\(21\)\| = 2\^21 exceeds cap 1048576",
            ),
            (
                lambda source: source.tables([Condition.of_model(Bernoulli(21, Fraction(1, 2)))], n=21),
                r"Bernoulli domain 2\^21 exceeds cap 1048576",
            ),
            (
                lambda source: deficiency_p("0" * 21, Bernoulli(21, Fraction(1, 3)), source=source),
                r"Bernoulli domain 2\^21 exceeds cap 1048576",
            ),
        ],
        ids=["uniform", "bernoulli", "deficiency_p"],
    )
    def test_a_domain_beyond_the_denote_cap_fails_the_cold_build(self, lookup, message, tmp_path):
        """The derived cap reads no book, so it no longer meets the denote
        cap (here at L=28); the cold build, which needs the book, raises the
        same error, and no table file is written. An analysis lists the
        domain before it asks for the table, and fails there."""
        with pytest.raises(CapExceeded, match=f"^{message}$"):
            lookup(TableSource(cache_dir=tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestDeficiencyP:
    def test_all_zeros_is_nearly_typical(self, cond_cache):
        r = deficiency_p("0" * 8, B8, source=TableSource(cache_dir=cond_cache, max_len=19))
        assert r.k_cond == 11
        assert B8.neglog("0" * 8) == pytest.approx(16 - 8 * math.log2(3))
        assert r.codeword_len == 4
        assert r.delta_star is None
        assert r.delta_norm == pytest.approx(0.2451125, abs=1e-6)
        assert r.typical(1) and not r.typical(0)

    def test_alternating_string_is_flagged(self, cond_cache):
        r = deficiency_p("01" * 4, B8, source=TableSource(cache_dir=cond_cache, max_len=19))
        assert r.k_cond == 15
        assert r.delta_norm == pytest.approx(math.log2(6))

    def test_all_ones_is_far(self, cond_cache):
        r = deficiency_p("1" * 8, B8, source=TableSource(cache_dir=cond_cache, max_len=19))
        # m(x) = 2^-16, so the raw deficiency -log2 m(x) - K(x) is exact
        assert r.codeword_len - r.k_cond == 1
        assert r.delta_norm == pytest.approx(8.9248125, abs=1e-6)

    def test_typical_at_the_boundary(self, cond_cache):
        """A uniform model gives every element the same mass, so delta_norm is
        the integer K(best_y) - K(x) and beta = delta_norm is the boundary."""
        source = TableSource(cache_dir=cond_cache, max_len=15)
        dist = UniformOn(ListSet(("0", "1", "0110", "111")))
        records = [deficiency_p(x, dist, source=source) for x in dist.domain()]
        assert any(r.delta_norm > 0 for r in records)
        for r in records:
            beta = int(r.delta_norm)
            assert r.delta_norm == beta
            assert r.typical(beta) and not r.typical(beta - 1)

    @pytest.mark.parametrize("desc", [Hamming(4, 2), ListSet(("0", "1", "0110"))])
    def test_typical_agrees_with_the_set_deficiency(self, desc, cond_cache):
        """These sets have 6 and 3 members, so -log2 m is irrational; the exact
        test still agrees with the integer set deficiency at every beta."""
        source = TableSource(cache_dir=cond_cache, max_len=15)
        for x in desc.denote():
            rp = deficiency_p(x, UniformOn(desc), source=source)
            rs = deficiency(x, desc, source=source)
            for beta in range(-1, rs.delta_norm + 2):
                assert rp.typical(beta) == rs.typical(beta)

    def test_delta_norm_is_the_difference_of_the_two_neglog_terms(self):
        """The real is computed as (-log2 m(x) - K(x)) - (-log2 m(y) - K(y)),
        the float order ``probstat`` has always printed. Here m(y)/m(x) =
        2^-10 and K(y) - K(x) = 10, so the gap is 0, yet this order rounds to
        a negative real where log2(ratio) + 10 gives 0.0; ``typical`` still
        decides exactly."""
        x, y = "0", "1"
        dist = TableDist(((x, Fraction(8, 2187)), (y, Fraction(1, 279936))))
        r = DeficiencyRecord(x, dist, 9, 15, y, 25, Fraction(2187, 2239488), None)
        assert r.mass_ratio == Fraction(1, 1024)
        assert r.delta_norm == (dist.neglog(x) - 15) - (dist.neglog(y) - 25)
        assert _fmt_real(r.delta_norm) == "-0"
        assert _fmt_real(math.log2(r.mass_ratio) + 10) == "0"
        assert r.typical(0) and not r.typical(-1)

    def test_typical_needs_an_integer_beta(self, cond_cache):
        r = deficiency_p("0" * 8, B8, source=TableSource(cache_dir=cond_cache, max_len=19))
        with pytest.raises(TypeError):
            r.typical(0.5)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="^000 has zero mass under bern:2,1/4$"):
            deficiency_p("000", B2)

    @pytest.mark.parametrize(
        "desc", [All(4), Hamming(4, 2), ListSet(("01", "0110"))]
    )
    def test_uniform_wrap_equals_set_deficiency(self, desc, cond_cache):
        for x in desc.denote():
            rp = deficiency_p(x, UniformOn(desc), source=TableSource(cache_dir=cond_cache, max_len=15))
            rs = deficiency(x, desc, source=TableSource(cache_dir=cond_cache, max_len=15))
            assert rp.k_cond == rs.k_cond
            assert rp.delta_norm == rs.delta_norm


class TestTwoPartAndSuffStat:
    def test_two_part_totals(self):
        assert two_part("0101", Bernoulli(4, Fraction(1, 4))) == 20
        assert two_part("0" * 8, B8) == 21
        assert two_part("0110", UniformOn(All(4))) == 13

    def test_suffstat_minimal(self):
        rep = suffstat_p("0101")
        assert rep.lambda_min == 13
        assert rep.minimal == UniformOn(All(4))
        assert [d.code_len for d in rep.optimal] == [9, 13]
        assert rep.optimal[1] == UniformOn(Singleton("0101"))

    @pytest.mark.parametrize("x, beta", [("", 0), ("0101", 0), ("0110", 2), ("01101001", 1)])
    def test_default_family_is_the_uniform_wrap_of_suffstat(self, x, beta):
        """``suffstat_p`` reports in ``suffstat``'s record, over the same
        alpha range: each total is 2 bits longer, and the optimal models
        are the uniform wraps of the set ones, in the same order."""
        sets = suffstat(x, beta)
        rep = suffstat_p(x, beta)
        assert type(rep) is SuffStatReport
        assert rep == sets._replace(
            lambda_min=sets.lambda_min + 2,
            optimal=tuple(map(UniformOn, sets.optimal)),
            minimal=UniformOn(sets.minimal),
        )

    def test_restricted_family(self):
        fam = [Bernoulli(4, Fraction(1, 4)), Bernoulli(4, Fraction(1, 2))]
        rep = suffstat_p("0101", family=fam, reference_lambda=13)
        assert rep.minimal in fam
        assert rep.in_class_sufficient is not None

    def test_default_family_clamped_to_alpha_bound(self, monkeypatch):
        # 13 + 5 + 1 - 2 = 17 bits would exceed the bound; the clamp
        # keeps All(4) (9 bits) and drops the Singleton
        monkeypatch.setattr(models_set, "ALPHA_BOUND", 10)
        rep = suffstat_p("0101", beta=5)
        assert rep.lambda_min == 13
        assert rep.minimal == UniformOn(All(4))
        assert UniformOn(Singleton("0101")) not in rep.optimal

    def test_long_string_within_default_bound(self):
        # a 26-bit string's Singleton cap (38) passes the default bound
        rep = suffstat_p("01" * 13)
        assert rep.minimal == UniformOn(All(26))

    def test_zero_mass_family_rejected(self):
        with pytest.raises(ValueError):
            suffstat_p("01", family=[UniformOn(All(3))])


class TestBernoulliDemo:
    def test_flags_regular_strings(self, table_l22):
        demo = bernoulli_demo(table_l22, 8, 3)
        assert len(demo.flagged) == 70
        assert "01" * 4 in demo.flagged
        row = demo.row_of("01" * 4)
        assert (row.k, row.hamming_total, row.lambda_min) == (15, 22, 17)

    def test_spares_maximally_complex_strings(self, table_l22):
        # every weight-4 string of top one-part complexity escapes the flag
        demo = bernoulli_demo(table_l22, 8, 3)
        w4 = [r for r in demo.rows if r.weight == 4]
        top = max(r.k for r in w4)
        spared = [r for r in w4 if r.k == top]
        assert spared and all(not r.flagged for r in spared)

    def test_csv(self, table_l22):
        lines = bernoulli_demo(table_l22, 8, 3).to_csv().splitlines()
        assert lines[0] == "x,weight,K,hamming_total,lambda_min,flagged"
        assert lines[1] == "00000000,0,15,11,11,0"
        assert lines[2] == "00000001,1,17,16,16,0"
        assert len(lines) == 257

    def test_odd_or_large_n_rejected(self, table_l12):
        with pytest.raises(ValueError):
            bernoulli_demo(table_l12, 5, 3)
        with pytest.raises(ValueError):
            bernoulli_demo(table_l12, 14, 3)
