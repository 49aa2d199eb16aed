"""Enumeration and tables: oracle equivalence, Kraft, determinism, round-trips."""

from __future__ import annotations

from fractions import Fraction

import pytest

from algstat import _pykernel
from algstat.cache import load_or_build, table_path
from algstat.enumeration import (
    ComplexityTable,
    EntryCapExceeded,
    TableFormatError,
    TableVersionError,
    build_table,
    enumerate_halting,
    export_table,
    find_prefix_violation,
    import_table,
)
from algstat.kernel import HAVE_COMPILED, compile_condition, get_backend
from algstat.machine import Budgets, Condition, run
from oracles import ToyModel, naive_entries, naive_halting_programs, predicted_halting_by_length


def entry_dicts(table: ComplexityTable):
    return {x: (e.k, e.witness, e.m_num, e.by_length) for x, e in table.entries.items()}


class TestSmallCases:
    def test_l3(self):
        assert list(enumerate_halting(3)) == [("100", "", 1)]

    def test_l5(self):
        progs = list(enumerate_halting(5))
        assert progs == [("100", "", 1), ("00100", "0", 2), ("01100", "1", 2)]
        t = build_table(5)
        assert {x: e.k for x, e in t.entries.items()} == {"": 3, "0": 5, "1": 5}
        assert t.kraft_sum() == Fraction(3, 16)

    def test_l3_kraft(self):
        assert build_table(3).kraft_sum() == Fraction(1, 8)

    def test_l_below_halt_rejected(self):
        with pytest.raises(ValueError):
            build_table(2)
        with pytest.raises(ValueError):
            list(enumerate_halting(2))

    def test_copyin_program_appears_under_str_condition(self):
        progs = dict((p, out) for p, out, _ in enumerate_halting(8, Condition.string("1011")))
        assert progs["10110100"] == "1011"


class TestOracleEquivalence:
    def test_unconditioned_l10(self):
        assert entry_dicts(build_table(10)) == naive_entries(10)

    def test_unconditioned_l12(self, table_l12):
        assert entry_dicts(table_l12) == naive_entries(12)

    def test_str_condition(self):
        cond = Condition.string("1011")
        assert entry_dicts(build_table(9, cond)) == naive_entries(9, cond)

    def test_model_condition(self):
        cond = Condition.of_model(ToyModel("110", [("0", "000"), ("10", "111"), ("11", "101")]))
        assert entry_dicts(build_table(10, cond)) == naive_entries(10, cond)

    def test_tight_budgets(self):
        budgets = Budgets(max_steps=3, max_output=2)
        assert entry_dicts(build_table(10, budgets=budgets)) == naive_entries(10, budgets=budgets)

    def test_program_stream_matches_oracle(self):
        cond = Condition.string("01")
        got = list(enumerate_halting(9, cond))
        want = naive_halting_programs(9, cond)
        assert sorted(got, key=lambda t: (len(t[0]), t[0])) == sorted(
            want, key=lambda t: (len(t[0]), t[0])
        )
        assert got == sorted(got, key=lambda t: (len(t[0]), t[0]))


class TestCountsAndInvariants:
    def test_halting_counts_match_token_recurrence(self, table_l24):
        assert table_l24.count_by_length() == predicted_halting_by_length(24)
        assert table_l24.halting_count() == 28821

    def test_str_counts_match_recurrence_when_condition_is_long(self):
        # 64 condition bits: at L=17 at most two COPYINs fit, so the
        # pointer can never run out and the pure length recurrence applies
        cond = Condition.string("10" * 32)
        t = build_table(17, cond)
        assert t.count_by_length() == predicted_halting_by_length(17, conditioned_on_long_str=True)

    def test_witnesses_run_to_their_output(self, table_l12):
        for x, e in table_l12.entries.items():
            assert len(e.witness) == e.k
            r = run(e.witness)
            assert r.halted and r.output == x

    def test_prefix_free(self):
        progs = [p for p, _, _ in enumerate_halting(12)]
        assert find_prefix_violation(progs) is None

    def test_prefix_violation_detector(self):
        assert find_prefix_violation(["100", "100100", "00100"]) == ("100", "100100")

    def test_kraft_at_most_one(self, table_l22):
        assert 0 < table_l22.kraft_sum() <= 1

    def test_monotone_in_length_cap(self):
        t8, t12 = build_table(8), build_table(12)
        assert set(t8.entries) <= set(t12.entries)
        for x, e in t8.entries.items():
            assert t12.entries[x].k <= e.k

    def test_mass_sums_witness_exactly(self):
        # every program contributes 2^-l(p); check one output by hand
        t = build_table(7)
        # '' is produced by 100, 1100100, 1101100
        assert t.m_of("") == Fraction(1, 8) + 2 * Fraction(1, 128)

    def test_entry_cap(self):
        with pytest.raises(EntryCapExceeded):
            build_table(12, entry_cap=3)


class TestDeterminismAndBackends:
    def test_workers_do_not_change_the_table(self, tmp_path):
        t1 = build_table(14, workers=1)
        t4 = build_table(14, workers=4)
        assert t1 == t4
        p1, p4 = tmp_path / "w1.table", tmp_path / "w4.table"
        export_table(t1, p1)
        export_table(t4, p4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_two_builds_identical(self):
        assert build_table(13) == build_table(13)

    @pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
    def test_backends_agree_on_walk(self):
        cases = [
            (12, 100, 50, *compile_condition(Condition.none()), "", 0),
            (12, 100, 50, *compile_condition(Condition.string("1011")), "", 0),
            (14, 1000, 64, *compile_condition(Condition.none()), "0001", 4),
            (
                11,
                1000,
                64,
                *compile_condition(
                    Condition.of_model(ToyModel("0", [("0", "00"), ("1", "111")]))
                ),
                "",
                0,
            ),
        ]
        for args in cases:
            assert get_backend("py").walk(*args) == get_backend("c").walk(*args)

    @pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
    def test_backends_agree_on_collect(self):
        args = (12, 100, 50, *compile_condition(Condition.string("0110")))
        assert get_backend("py").collect(*args) == get_backend("c").collect(*args)

    def test_pykernel_is_the_fallback(self):
        assert get_backend("py") is _pykernel


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        t = build_table(10, Condition.string("11"))
        path = tmp_path / "t.table"
        export_table(t, path)
        back = import_table(path)
        assert back == t
        # and the file form is a fixed point
        path2 = tmp_path / "t2.table"
        export_table(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_contents(self, tmp_path):
        t = build_table(6)
        path = tmp_path / "t.table"
        export_table(t, path)
        head = path.read_text().splitlines()[:5]
        assert head[0] == "machine tpm1-v1"
        assert head[1] == "L 6"
        assert head[2] == "T 100000"
        assert head[3] == "O 4096"
        assert head[4] == f"condition {Condition.none().fingerprint()}"

    def test_version_mismatch(self, tmp_path):
        t = build_table(6)
        path = tmp_path / "t.table"
        export_table(t, path)
        doctored = path.read_text().replace("tpm1-v1", "tpm1-v0")
        path.write_text(doctored)
        with pytest.raises(TableVersionError):
            import_table(path)

    def test_truncated_file(self, tmp_path):
        t = build_table(6)
        path = tmp_path / "t.table"
        export_table(t, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(TableFormatError):
            import_table(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "t.table"
        t = build_table(6)
        export_table(t, path)
        path.write_text(path.read_text() + "0110 5\n")
        with pytest.raises(TableFormatError):
            import_table(path)

    def test_witness_length_must_equal_k(self, tmp_path):
        path = tmp_path / "t.table"
        export_table(build_table(6), path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace(" 5 ", " 4 ", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableFormatError):
            import_table(path)

    def test_overfull_mass_rejected(self, tmp_path):
        path = tmp_path / "t.table"
        lines = [
            "machine tpm1-v1",
            "L 6",
            "T 100000",
            "O 4096",
            f"condition {Condition.none().fingerprint()}",
            "- 3 100 3/2^1",
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableFormatError):
            import_table(path)

    @pytest.mark.parametrize(
        "bad_record",
        ["0120 7 0001100 1/2^7", "01 7 00a1100 1/2^7"],
        ids=["output", "witness"],
    )
    def test_non_bit_character_rejected(self, tmp_path, bad_record):
        path = tmp_path / "t.table"
        export_table(build_table(8), path)
        text = path.read_text()
        assert "\n01 7 0001100 1/2^7\n" in text
        path.write_text(text.replace("\n01 7 0001100 1/2^7\n", f"\n{bad_record}\n"))
        with pytest.raises(TableFormatError):
            import_table(path)

    def test_undecodable_cache_file_is_rebuilt(self, tmp_path):
        table, built = load_or_build(8, cache_dir=tmp_path)
        assert built
        path = table_path(tmp_path, 8, Budgets(), Condition.none().fingerprint())
        text = path.read_text()
        assert "\n- 3 " in text
        path.write_bytes(text.replace("\n- 3 ", "\n\u00e9 3 ", 1).encode("utf-8"))
        with pytest.raises(TableFormatError):
            import_table(path)
        again, built = load_or_build(8, cache_dir=tmp_path)
        assert built and again == table
        assert import_table(path) == table
