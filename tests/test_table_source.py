"""One `TableSource` carries the table settings into every analysis: its
budgets and its program-length cap reach each table an analysis builds,
and no public function takes those settings as parameters of its own."""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

from algstat import (
    _pykernel,
    cache,
    cli,
    complexity,
    condition,
    distlang,
    enumeration,
    infolaws,
    machine,
    models_prob,
    models_set,
    setlang,
)
from algstat.cache import TableSource
from algstat.complexity import soi_audit
from algstat.condition import Budgets, Condition
from algstat.distlang import Bernoulli
from algstat.enumeration import build_table
from algstat.infolaws import Statistic, nonincrease_audit, standard_joints, theta_suff_audit
from algstat.models_prob import deficiency_p
from algstat.models_set import structfn

PAIR = standard_joints()["bernoulli-pair"]

ANALYSES = [
    pytest.param(lambda source: structfn("0", 8, source=source), id="structfn"),
    pytest.param(
        lambda source: deficiency_p("0", Bernoulli(1, Fraction(1, 2)), source=source),
        id="deficiency_p",
    ),
    pytest.param(
        lambda source: nonincrease_audit(build_table(12), len_cap=1, source=source),
        id="nonincrease_audit",
    ),
    pytest.param(
        lambda source: soi_audit(build_table(8), len_cap=0, source=source),
        id="soi_audit",
    ),
    pytest.param(
        lambda source: theta_suff_audit(PAIR, Statistic("weight"), build_table(12), source=source),
        id="theta_suff_audit",
    ),
]


@pytest.mark.parametrize("analysis", ANALYSES)
def test_source_budgets_reach_every_table(analysis, tmp_path):
    analysis(TableSource(budgets=Budgets(max_steps=300), cache_dir=tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names
    assert [n for n in names if "_T300_" not in n] == []


@pytest.mark.parametrize("analysis", ANALYSES)
def test_source_max_len_caps_every_table(analysis, tmp_path):
    """A set ``max_len`` replaces the cap of every table an analysis builds,
    the caps ``k_tables`` would derive included."""
    analysis(TableSource(cache_dir=tmp_path, max_len=10))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names
    assert [n for n in names if "_L10_" not in n] == []


TABLE_SETTINGS = {"budgets", "workers", "cache_dir", "warn", "_cache", "L_c"}


@pytest.mark.parametrize(
    "module", [complexity, setlang, models_set, distlang, models_prob, infolaws]
)
def test_no_public_function_takes_table_settings(module):
    public = [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
    ]
    assert public
    threaded = {}
    for name, obj in public:
        try:
            params = set(inspect.signature(obj).parameters)
        except (TypeError, ValueError):  # no introspectable signature
            continue
        if params & TABLE_SETTINGS:
            threaded[name] = sorted(params & TABLE_SETTINGS)
    assert threaded == {}


KNOBS = {"L_c", "cap", "denote_cap", "tol"}


@pytest.mark.parametrize(
    "module",
    [
        cache,
        cli,
        complexity,
        condition,
        distlang,
        infolaws,
        machine,
        models_prob,
        models_set,
        setlang,
    ],
)
def test_no_function_or_method_takes_a_single_valued_knob(module):
    """The program-length cap travels in the source (``max_len``); the
    denotation cap and the float tolerance are the constants
    ``setlang.DENOTE_CAP`` and ``infolaws.TOL``. No function or method,
    private ones and the model classes' included, takes any of them."""
    functions = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            functions.extend(
                (f"{name}.{attr}", fn) for attr, fn in vars(obj).items() if inspect.isfunction(fn)
            )
        elif inspect.isfunction(obj):
            functions.append((name, obj))
    assert functions
    knobs = {
        name: sorted(set(inspect.signature(fn).parameters) & KNOBS) for name, fn in functions
    }
    assert {name: found for name, found in knobs.items() if found} == {}


def test_the_cap_is_a_source_setting_only():
    assert list(inspect.signature(TableSource.k_tables).parameters) == ["self", "n", "conds"]
    assert "L" not in TableSource._fields
    assert TableSource._fields[-1] == "max_len"


def test_one_process_walks_every_table():
    """Every cache miss is walked in the calling process: the source holds
    no worker count, and no hook hands a walk made elsewhere to a build."""
    assert TableSource._fields == ("budgets", "cache_dir", "warn", "max_len")
    assert not hasattr(cache, "POOL_MIN_L")
    for fn in (cache.load_or_build, enumeration.build_table):
        assert "walked" not in inspect.signature(fn).parameters


def test_each_cached_table_is_named_and_stat_ed_once(tmp_path, monkeypatch):
    """``TableSource`` names each distinct table's file once, cold and warm."""
    named = []
    real = cache.table_path
    monkeypatch.setattr(cache, "table_path", lambda *args: named.append(args) or real(*args))
    conds = [Condition.string("1"), Condition.none(), Condition.string("1"), Condition.string("01")]
    source = TableSource(cache_dir=tmp_path)
    for _ in ("cold", "warm"):
        named.clear()
        tables = source.tables(8, conds)
        assert len(named) == 3 == len(set(named))
        assert tables[0] is tables[2]


def test_conditions_sharing_their_O_bit_prefix_share_one_table(tmp_path, monkeypatch):
    """Under k_tables(4, ...) a walk reads only 4 bits of a string condition,
    so 0110100 and 01101 get one walk, one file and one ``cache miss`` note,
    and their table is the one built under each uncut condition."""
    conds = [Condition.string("0110100"), Condition.string("01101"), Condition.string("1")]
    walks = []
    real = _pykernel.walk
    monkeypatch.setattr(_pykernel, "walk", lambda *args: walks.append(args) or real(*args))
    notes = []
    first, second, other = TableSource(cache_dir=tmp_path, warn=notes.append).k_tables(4, conds)
    assert first is second and other is not first
    assert [args[4] for args in walks] == ["0110", "1"]
    assert [note.split()[-1] for note in notes] == ["0110]", "1]"]
    assert len(list(tmp_path.iterdir())) == 2
    for cond in conds[:2]:
        built = build_table(11, cond, Budgets(max_output=4))
        assert (first.entries, first.count_by_length()) == (built.entries, built.count_by_length())


def test_table_keeps_the_requested_condition(tmp_path):
    """``TableSource.table`` does not cut its condition, even where a walk
    reads only its first O bits."""
    cond = Condition.string("0110100110")
    table = TableSource(budgets=Budgets(max_output=2), cache_dir=tmp_path).table(8, cond)
    assert table.cond_fingerprint == cond.fingerprint()
