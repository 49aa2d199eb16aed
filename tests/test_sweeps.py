"""The law audits' sweeps over per-table K lists, against the triple loops
they replaced (``oracles.naive_soi_audit``, ``oracles.naive_nonincrease_audit``),
and the batch K lookup they read the tables through."""

from __future__ import annotations

import random

import pytest

from algstat import complexity, enumeration
from algstat.bits import pair
from algstat.cache import AUDIT_MAX_LEN, TableSource
from algstat.complexity import (
    DEFAULT_SOI_LEN_CAP,
    Absent,
    _all_strings,
    require_k,
    require_ks,
    soi_audit,
)
from algstat.condition import Budgets, Condition
from algstat.enumeration import ComplexityTable, Entry, build_table, export_table, import_table
from algstat.infolaws import DEFAULT_NI_LEN_CAP, laws_reach, nonincrease_audit
from oracles import naive_nonincrease_audit, naive_soi_audit


class TestBatchLookup:
    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        """The same table as built (every segment parsed) and as imported
        (one unparsed segment per output length)."""
        built = build_table(12, Condition.string("10"))
        path = tmp_path_factory.mktemp("batch") / "t.table"
        export_table(built, path)
        return built, import_table(path)

    def test_matches_single_lookups(self, tables):
        # Unsorted, with repeats and with strings beyond the cap (K of 0110 is 11).
        xs = _all_strings(5)[::-1] + ["0110", "", "0110", "1" * 9]
        for table in tables:
            assert table.ks_of(xs) == [table.k_of(x) for x in xs]
            assert None in table.ks_of(xs)

    def test_reads_each_segment_once(self, tables, tmp_path, monkeypatch):
        built, _ = tables
        export_table(built, tmp_path / "t.table")
        imported = import_table(tmp_path / "t.table")
        calls = []
        parse = enumeration._parse_segment
        monkeypatch.setattr(
            enumeration, "_parse_segment", lambda text, n, *rest: calls.append(n) or parse(text, n, *rest)
        )
        imported.ks_of(_all_strings(4) * 3)
        assert sorted(calls) == [0, 1, 2, 3, 4]

    def test_past_the_output_budget_names_o(self, tmp_path):
        built = build_table(8, budgets=Budgets(max_output=4))
        export_table(built, tmp_path / "t.table")
        for table in (built, import_table(tmp_path / "t.table")):
            with pytest.raises(Absent) as exc:
                require_ks(table, ["0", "00000", "1"])
            assert str(exc.value).startswith("00000 is longer than the table's output budget O=4")
            assert "L=8" not in str(exc.value)

    def test_miss_under_the_cap_names_l(self):
        table = build_table(8, budgets=Budgets(max_output=4))
        with pytest.raises(Absent) as exc:
            require_ks(table, ["0", "0110", "1"])  # K(0110) = 11
        assert str(exc.value) == str(pytest.raises(Absent, require_k, table, "0110").value)
        assert "within the table's cap L=8;" in str(exc.value)

    def test_first_miss_is_named(self):
        table = build_table(8)
        with pytest.raises(Absent) as exc:
            require_ks(table, ["", "0110", "1111"])
        assert exc.value.x == "0110"
        assert require_ks(table, ["", "0"]) == [3, 5]


def test_soi_reads_its_pairs_before_building_conditional_tables(tmp_path):
    """A pair beyond the table's horizon fails the audit before any of the
    conditional tables is built."""
    table = build_table(17, budgets=Budgets(max_output=4))
    with pytest.raises(Absent, match="output budget O=4"):
        soi_audit(table, len_cap=2, source=TableSource(cache_dir=tmp_path, max_len=7))
    assert list(tmp_path.iterdir()) == []


# -- the real tables ---------------------------------------------------------


@pytest.fixture(scope="module")
def deep(cond_cache):
    """The deep table of the default law battery, as the ``laws`` command reads it."""
    return TableSource(cache_dir=cond_cache).capped(laws_reach()).table(AUDIT_MAX_LEN)


@pytest.mark.parametrize("len_cap", [2, 3, DEFAULT_SOI_LEN_CAP])
def test_soi_matches_the_triple_loop(deep, cond_cache, len_cap):
    source = TableSource(cache_dir=cond_cache, max_len=2 * len_cap + 3)
    got = soi_audit(deep, len_cap=len_cap, source=source)
    assert got == naive_soi_audit(deep, len_cap, source)


@pytest.mark.parametrize("len_cap", [2, 3, DEFAULT_NI_LEN_CAP])
def test_nonincrease_matches_the_triple_loop(deep, cond_cache, len_cap):
    source = TableSource(cache_dir=cond_cache)
    got = nonincrease_audit(deep, len_cap=len_cap, source=source)
    assert got == naive_nonincrease_audit(deep, len_cap, source)


def test_soi_reads_one_row_per_distinct_conditional_table(deep, cond_cache, monkeypatch):
    """The 31 swept strings of at most 4 bits condition 7 distinct tables
    once their witnesses are cut to 4 bits, and the audit reads each
    table's row once."""
    read = []
    real = complexity.require_ks
    monkeypatch.setattr(complexity, "require_ks", lambda t, xs: read.append(t) or real(t, xs))
    soi_audit(deep, source=TableSource(cache_dir=cond_cache))
    conditional = [t for t in read if t is not deep]
    assert len(conditional) == len({id(t) for t in conditional}) == 7


# -- made-up tables: many ties and argmaxes away from the first string --------


def _made_up(rng: random.Random, strings, low: int, spread: int, witnesses=None) -> ComplexityTable:
    """A table whose K values are drawn from low..low+spread-1, so maxima tie
    often; ``witnesses`` maps a string to its witness (default: K ones)."""
    entries = {}
    for x in strings:
        if x in entries:
            continue
        k = rng.randrange(low, low + spread)
        w = witnesses[x] if witnesses and x in witnesses else "1" * k
        entries[x] = Entry(len(w), w, 1)
    return ComplexityTable(AUDIT_MAX_LEN, Budgets(), "made-up", entries, [0] * (AUDIT_MAX_LEN + 1))


class _MadeUpSource:
    """Stands in for a TableSource: the conditional table of each
    condition is made up, seeded by the condition."""

    budgets = Budgets()
    max_len = 9

    def __init__(self, seed: int, strings, spread: int):
        self._seed, self._strings, self._spread = seed, strings, spread

    def capped(self, n: int) -> _MadeUpSource:
        return self

    def k_tables(self, n: int, conds):
        return self.tables(self.max_len, conds)

    def tables(self, L: int, conds):
        return [
            _made_up(random.Random(f"{self._seed} {c.serial()}"), self._strings, 0, self._spread)
            for c in conds
        ]


def _made_up_deep(rng: random.Random, len_cap: int, spread: int) -> ComplexityTable:
    xs = _all_strings(len_cap)
    # Distinct witnesses, so each swept string conditions its own table.
    witnesses = {x: "0" + format(i, "08b") + "1" * rng.randrange(spread) for i, x in enumerate(xs)}
    return _made_up(rng, xs + [pair(x, y) for x in xs for y in xs], 3, spread, witnesses)


@pytest.mark.parametrize("seed", range(12))
def test_soi_tie_breaks_match_the_triple_loop(seed):
    len_cap, spread = 2 + seed % 2, 2 + seed % 3
    deep = _made_up_deep(random.Random(seed), len_cap, spread)
    source = _MadeUpSource(seed, _all_strings(len_cap), spread)
    got = soi_audit(deep, len_cap=len_cap, source=source)
    assert got == naive_soi_audit(deep, len_cap, source)


@pytest.mark.parametrize("seed", range(12))
def test_nonincrease_tie_breaks_match_the_triple_loop(seed):
    len_cap, spread = 2 + seed % 2, 2 + seed % 3
    deep = _made_up_deep(random.Random(seed), len_cap, spread)
    source = _MadeUpSource(seed, _all_strings(len_cap), spread)
    got = nonincrease_audit(deep, len_cap=len_cap, source=source)
    assert got == naive_nonincrease_audit(deep, len_cap, source)


def test_made_up_tables_move_every_argmax():
    """The made-up tables put argmaxes past the first swept strings, so the
    tie-break comparisons above are not decided by the first entry alone."""
    soi_args, ni_args = set(), set()
    for seed in range(12):
        len_cap, spread = 2 + seed % 2, 2 + seed % 3
        deep = _made_up_deep(random.Random(seed), len_cap, spread)
        source = _MadeUpSource(seed, _all_strings(len_cap), spread)
        rep = soi_audit(deep, len_cap=len_cap, source=source)
        soi_args.update([rep.additivity_argmax, rep.triangle_argmax])
        ni = nonincrease_audit(deep, len_cap=len_cap, source=source)
        ni_args.update(t.argmax for t in ni.per_transform)
    assert len(soi_args) > 12 and ("", "", "") not in soi_args
    assert len(ni_args) > 6
