"""The state walk of ``_pykernel.walk`` against the program-by-program
tabulations it replaced: ``tree_walk`` (one callback per halting program of
the decode-tree traversal) and ``naive_entries`` (the machine run on every
bit string)."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algstat import _pykernel, cli
from algstat._pykernel import walk_args
from algstat.cache import AUDIT_MAX_LEN, TableSource
from algstat.condition import DEFAULT_MAX_STEPS, Budgets, Condition
from algstat.enumeration import LEVEL_MAX_LEN
from oracles import ToyModel, naive_entries, tree_walk

# -- the walks of two commands -------------------------------------------------


def _recorded_walks(argv: list[str], tmp_path_factory) -> tuple[list[tuple], list[tuple]]:
    """The arguments of every kernel walk a cold run of ``algstat argv``
    makes in this process, and the walk arguments of every table it asks
    ``TableSource.tables`` or ``k_tables`` for, before its string condition
    is cut to the output budget."""
    walks, asked = [], []
    real_walk, real_tables = _pykernel.walk, TableSource._tables

    def tables(self, jobs):
        asked.extend(walk_args(L, cond, self.budgets) for L, cond in jobs)
        return real_tables(self, jobs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pykernel, "walk", lambda *args: walks.append(args) or real_walk(*args))
        mp.setattr(TableSource, "_tables", tables)
        mp.setenv("ALGSTAT_CACHE_DIR", str(tmp_path_factory.mktemp("walks")))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main([*argv, "--workers", "1"]) == 0
    return walks, asked


@pytest.fixture(scope="module")
def command_walks(tmp_path_factory):
    return {
        "laws": _recorded_walks(["laws"], tmp_path_factory),
        "structfn": _recorded_walks(["structfn", "11100111"], tmp_path_factory),
    }


# (command, which of its walks, how many there are)
COMMAND_WALKS = {
    "laws-level": (
        "laws",
        lambda a: a[0] == LEVEL_MAX_LEN and a[3] == _pykernel.COND_NONE,
        1,
    ),
    "laws-deep": (
        "laws",
        lambda a: a[:3] == (AUDIT_MAX_LEN, DEFAULT_MAX_STEPS, 13) and a[3] == _pykernel.COND_NONE,
        1,
    ),
    "laws-soi": (
        "laws",
        lambda a: a[:4] == (15, DEFAULT_MAX_STEPS, 6, _pykernel.COND_STR),
        15,
    ),
    "structfn-star": ("structfn", lambda a: a[3] == _pykernel.COND_STR, 5),
    "structfn-uniform": ("structfn", lambda a: a[3] == _pykernel.COND_MODEL, 6),
}


@pytest.mark.parametrize("name", COMMAND_WALKS)
def test_walk_equals_tree_walk_on_command_walks(name, command_walks):
    command, chosen, count = COMMAND_WALKS[name]
    walks = [args for args in command_walks[command][0] if chosen(args)]
    assert len(walks) == count
    for args in walks:
        assert _pykernel.walk(*args) == tree_walk(*args), args[:4]


# The tables of string conditions that a command asks for, before each
# condition is cut to its first O bits: the 127 non-increase conditions share
# 15 walks, and the 6 star conditions of structfn 5.
UNCUT_ASKS = {"laws-soi": 127, "structfn-star": 6}


@pytest.mark.parametrize("name", UNCUT_ASKS)
def test_uncut_walks_equal_their_cut_walks(name, command_walks):
    """Each table asked for under an uncut string condition is the walk the
    command made under the cut one, which the test above checks against
    ``tree_walk``."""
    command, chosen, _ = COMMAND_WALKS[name]
    walks, asked = command_walks[command]
    asked = [args for args in asked if chosen(args)]
    assert len(asked) == UNCUT_ASKS[name]
    assert any(len(args[4]) > args[2] for args in asked)
    for args in asked:
        cut = (*args[:4], args[4][: args[2]], *args[5:])
        assert cut in walks
        assert _pykernel.walk(*args) == _pykernel.walk(*cut), args[:5]


# -- property tests ------------------------------------------------------------

# An empty element (SFDECODE then loops back to its own state) and 1-bit
# codewords (the shortest SFDECODE, 5 bits).
BOOK_WITH_LOOPS = ToyModel("0", [("0", ""), ("10", "1"), ("11", "0110")])


@st.composite
def books(draw) -> ToyModel:
    """A prefix-free codebook: the leaves of a random binary tree of depth at
    most 3 (the root alone gives the empty codeword), some leaves left out,
    with elements of 0 to 4 bits."""

    def leaves(prefix: str) -> list[str]:
        if len(prefix) == 3 or not draw(st.booleans()):
            return [prefix]
        return leaves(prefix + "0") + leaves(prefix + "1")

    codes = leaves("")
    kept = [c for c in codes if draw(st.booleans())] or codes[:1]
    elems = draw(st.lists(st.text("01", max_size=4), min_size=len(kept), max_size=len(kept)))
    return ToyModel("0", list(zip(kept, elems)))


conditions = st.one_of(
    st.just(Condition.none()),
    st.text("01", max_size=9).map(Condition.string),
    st.just(Condition.of_model(BOOK_WITH_LOOPS)),
    books().map(Condition.of_model),
)
# Tight step budgets (steps then enter the state) as well as the default.
budgets = st.builds(
    Budgets,
    max_steps=st.one_of(st.integers(1, 40), st.just(DEFAULT_MAX_STEPS)),
    max_output=st.integers(0, 8),
)


@settings(max_examples=120, deadline=None)
@given(L=st.integers(3, 10), cond=conditions, budgets=budgets)
def test_walk_equals_naive_entries(L, cond, budgets):
    entries, hist = _pykernel.walk(*walk_args(L, cond, budgets))
    assert ({x: tuple(e) for x, e in entries.items()}, hist) == naive_entries(L, cond, budgets)


@settings(max_examples=150, deadline=None)
@given(L=st.integers(3, 16), cond=conditions, budgets=budgets)
def test_walk_equals_tree_walk(L, cond, budgets):
    args = walk_args(L, cond, budgets)
    assert _pykernel.walk(*args) == tree_walk(*args)


@settings(max_examples=150, deadline=None)
@given(L=st.integers(3, 14), budgets=budgets, data=st.data())
def test_walk_reads_only_the_first_O_bits_of_a_string_condition(L, budgets, data):
    """pointer <= |buffer| <= O in every state, so a walk under output budget
    O reads only c[:O]: the walk under c is the walk under c[:O], for
    conditions shorter and longer than O and under tight step budgets."""
    O = budgets.max_output
    n = data.draw(st.integers(max(0, O - 4), O + 12), label="condition length")
    bits = data.draw(st.text("01", min_size=n, max_size=n), label="condition")
    args = walk_args(L, Condition.string(bits), budgets)
    walked = _pykernel.walk(*args)
    assert walked == _pykernel.walk(*walk_args(L, Condition.string(bits[:O]), budgets))
    if L <= 12:
        assert walked == tree_walk(*args)


# -- the shared condition-free part ---------------------------------------------


def test_condition_order_and_edits_do_not_reach_later_walks():
    """Conditioned walks share the condition-free states under (L, T, O):
    which condition is walked first does not matter, and editing what a walk
    returned changes no later walk."""
    a = walk_args(15, Condition.string("0110"), Budgets(max_output=6))
    b = walk_args(15, Condition.string("11101"), Budgets(max_output=6))
    _pykernel._condition_free.cache_clear()
    first = [_pykernel.walk(*a), _pykernel.walk(*b)]
    _pykernel._condition_free.cache_clear()
    second = [_pykernel.walk(*b), _pykernel.walk(*a)]
    assert first == second[::-1] == [tree_walk(*a), tree_walk(*b)]

    entries, hist = _pykernel.walk(*a)
    for e in entries.values():
        e[:] = [0, "", 0]
    entries.clear()
    hist[:] = [0] * len(hist)
    assert [_pykernel.walk(*a), _pykernel.walk(*b)] == first
