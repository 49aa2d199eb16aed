"""Machine semantics: opcode decoding, hand-traced runs, budgets, totality."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algstat.condition import Budgets, Condition
from algstat.machine import Op, Status, opcode_decode, run
from oracles import ToyModel

programs = st.text(alphabet="01", max_size=40)


class TestOpcodeDecode:
    def test_table(self):
        assert opcode_decode("001") == opcode_decode("00")  # extra bits ignored
        tok = opcode_decode("00")
        assert tok.op is Op.EMIT0 and tok.consumed == 2
        assert opcode_decode("01").op is Op.EMIT1
        assert opcode_decode("100").op is Op.HALT
        tok = opcode_decode("10110")
        assert tok.op is Op.COPYIN and tok.consumed == 5 and tok.copy_n == 4
        assert opcode_decode("10100").copy_n == 1
        assert opcode_decode("10101").copy_n == 2
        assert opcode_decode("10111").copy_n == 8
        assert opcode_decode("1100").op is Op.DOUBLE
        assert opcode_decode("1101").op is Op.FLIP
        assert opcode_decode("1110").op is Op.SFDECODE
        assert opcode_decode("1111").op is Op.RESERVED

    def test_offset(self):
        assert opcode_decode("xx100".replace("x", "0"), 2).op is Op.HALT

    def test_invalid_prefix(self):
        for s in ("", "0", "1", "10", "11", "110", "1011"):
            assert opcode_decode(s) is None
        assert opcode_decode("111") is None  # needs a fourth bit


class TestHandTracedRuns:
    def test_halt_alone(self):
        r = run("100")
        assert r.status is Status.HALTED and r.output == "" and r.steps == 1 and r.consumed == 3

    def test_emit(self):
        r = run("00100")
        assert (r.output, r.steps) == ("0", 2)
        assert run("01100").output == "1"

    def test_flip_builds_0110(self):
        r = run("00011101100")
        assert r.status is Status.HALTED
        assert r.output == "0110"
        assert r.steps == 5  # 1 + 1 + max(1,2) + 1

    def test_double_builds_01010101(self):
        r = run("000100011100100")
        assert r.output == "01010101" and r.steps == 9

    def test_double_on_empty_buffer_costs_one_step(self):
        r = run("1100100")
        assert r.status is Status.HALTED and r.output == "" and r.steps == 2

    def test_trailing_bits_diverge(self):
        assert run("1000").status is Status.DIVERGED
        assert run("100100").status is Status.DIVERGED

    def test_truncated_stream_is_invalid_prefix(self):
        assert run("10").status is Status.INVALID_PREFIX
        assert run("0001").status is Status.INVALID_PREFIX
        assert run("").status is Status.INVALID_PREFIX

    def test_reserved_diverges(self):
        assert run("1111100").status is Status.DIVERGED


class TestCopyIn:
    def test_copies_from_condition(self):
        r = run("10110100", Condition.string("1011"))
        assert r.status is Status.HALTED and r.output == "1011"
        assert r.steps == 5  # 4 copied bits + HALT

    def test_pointer_is_sequential(self):
        r = run("1010010100100", Condition.string("1011"))
        assert r.output == "10" and r.steps == 3

    def test_without_str_condition_diverges(self):
        assert run("10110100").status is Status.DIVERGED
        toy = ToyModel("0", [("0", "0")])
        assert run("10110100", Condition.of_model(toy)).status is Status.DIVERGED

    def test_past_end_of_condition_diverges(self):
        assert run("10110100", Condition.string("101")).status is Status.DIVERGED


class TestSfDecode:
    BOOK = [("0", "000"), ("10", "111"), ("11", "101")]

    def cond(self):
        return Condition.of_model(ToyModel("10101", self.BOOK))

    def test_decodes_element(self):
        r = run("111010100", self.cond())
        assert r.status is Status.HALTED
        assert r.output == "111"
        assert r.steps == 3  # codeword length 2 + HALT

    def test_zero_length_codeword(self):
        cond = Condition.of_model(ToyModel("0", [("", "0101")]))
        r = run("1110100", cond)
        assert r.output == "0101" and r.steps == 1

    def test_mismatch_diverges(self):
        # book above has no codeword starting after an exhausted trie path
        cond = Condition.of_model(ToyModel("0", [("00", "1111")]))
        assert run("111001100", cond).status is Status.DIVERGED

    def test_stream_ending_inside_codeword(self):
        cond = Condition.of_model(ToyModel("0", [("00", "1111")]))
        assert run("11100", cond).status is Status.INVALID_PREFIX

    def test_without_model_condition_diverges(self):
        assert run("1110100").status is Status.DIVERGED
        assert run("1110100", Condition.string("0101")).status is Status.DIVERGED


class TestBudgets:
    def test_out_of_steps(self):
        r = run("0000100", budgets=Budgets(max_steps=1, max_output=10))
        assert r.status is Status.OUT_OF_STEPS and r.steps == 1 and r.consumed == 2

    def test_halt_needs_a_step(self):
        assert run("00100", budgets=Budgets(max_steps=1, max_output=10)).status is Status.OUT_OF_STEPS
        assert run("00100", budgets=Budgets(max_steps=2, max_output=10)).status is Status.HALTED

    def test_out_of_output(self):
        r = run("00100", budgets=Budgets(max_steps=100, max_output=0))
        assert r.status is Status.OUT_OF_OUTPUT

    def test_double_respects_output_budget(self):
        ok = Budgets(max_steps=100, max_output=2)
        assert run("001100100", budgets=ok).output == "00"
        too_small = Budgets(max_steps=100, max_output=1)
        assert run("001100100", budgets=too_small).status is Status.OUT_OF_OUTPUT

    def test_budgets_validate(self):
        with pytest.raises(ValueError):
            Budgets(max_steps=0)

    @given(programs, st.integers(1, 50), st.integers(0, 64), st.integers(0, 30), st.integers(0, 30))
    def test_halting_monotone_in_budgets(self, p, t, o, dt, do):
        base = run(p, budgets=Budgets(t, o))
        if base.status is Status.HALTED:
            bigger = run(p, budgets=Budgets(t + dt, o + do))
            assert bigger == base


class TestTotalityAndDeterminism:
    @given(programs)
    def test_every_string_gets_an_outcome(self, p):
        r = run(p)
        assert r.status in set(Status)
        assert r == run(p)

    @given(programs, st.text(alphabet="01", min_size=1, max_size=16))
    def test_conditioned_runs_are_total(self, p, cond_bits):
        r = run(p, Condition.string(cond_bits))
        assert r.status in set(Status)

    @given(programs)
    def test_halted_iff_output_present(self, p):
        r = run(p)
        assert (r.output is not None) == (r.status is Status.HALTED)
        if r.status is Status.HALTED:
            assert r.consumed == len(p)
