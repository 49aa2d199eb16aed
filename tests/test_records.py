"""The library's records: each validating constructor raises what it always
raised, no field can be assigned, and records of different classes never
compare equal, even with equal field values, so no cache keyed by a record
hands one class's value to another."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from algstat.bits import CodeError
from algstat.cache import TableSource
from algstat.cli import main
from algstat.complexity import MIRecord
from algstat.condition import Budgets
from algstat.distlang import (
    Bernoulli,
    DistLangError,
    TableDist,
    UniformOn,
    codebook,
    decode_dist,
    encode_dist,
)
from algstat.infolaws import JointModel, JointModelError, Statistic, Transform
from algstat.machine import Op, OpToken, RunOutcome, Status
from algstat.setlang import (
    All,
    Cyl,
    Hamming,
    ListSet,
    SetLangError,
    Singleton,
    UnionSet,
    decode,
    encode,
)
from algstat.skstats import MxRecord, SkIndex, XrRow

HALF = Fraction(1, 2)

SET_DESCS = [
    Singleton("01"),
    All(4),
    Cyl("0", 4),
    Hamming(4, 1),
    UnionSet((Singleton("01"), Hamming(4, 1))),
    ListSet(("0", "11")),
]
DIST_DESCS = [
    UniformOn(Hamming(4, 1)),
    Bernoulli(4, Fraction(1, 4)),
    TableDist((("1", HALF), ("0", Fraction(1, 4)))),
]
VALIDATING = [
    Budgets(),
    *SET_DESCS,
    *DIST_DESCS,
    JointModel(("0", "1"), (HALF, HALF), (Bernoulli(2, HALF), Bernoulli(2, Fraction(1, 4)))),
    Statistic("map", (("1", "0"), ("0", "1"))),
    SkIndex(3, ("", "0"), 2, 2, 1),
]
PLAIN = [
    OpToken(Op.COPYIN, 5, 2),
    RunOutcome(Status.HALTED, "01", 3, 7),
    TableSource(),
    MIRecord("0", "1", 5, 5, 9),
    codebook(Bernoulli(2, HALF)),
    Transform("identity", str),
    MxRecord("0", 5, "10", "1", "", "", False),
    XrRow(0, ("",), HALF, Fraction(4)),
]


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: Budgets(0, 1), ValueError),
        (lambda: Budgets(1, -1), ValueError),
        (lambda: Singleton("2"), CodeError),
        (lambda: All(-1), SetLangError),
        (lambda: Cyl("011", 2), SetLangError),
        (lambda: Cyl("2", 2), CodeError),
        (lambda: Hamming(2, 3), SetLangError),
        (lambda: UnionSet((All(1),)), SetLangError),
        (lambda: ListSet(()), SetLangError),
        (lambda: ListSet(("0", "x")), CodeError),
        (lambda: Bernoulli(-1, HALF), DistLangError),
        (lambda: Bernoulli(4, Fraction(1)), DistLangError),
        (lambda: TableDist(()), DistLangError),
        (lambda: TableDist((("0", HALF), ("1", Fraction(3, 4)))), DistLangError),
        (lambda: TableDist((("0", HALF), ("0", Fraction(1, 4)))), DistLangError),
        (lambda: JointModel((), (), ()), JointModelError),
        (lambda: JointModel(("0",), (HALF,), (Bernoulli(1, HALF),)), JointModelError),
        (lambda: Statistic("median"), JointModelError),
        (lambda: Statistic("weight", (("0", "1"),)), JointModelError),
    ],
)
def test_invalid_arguments_raise_as_before(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--max-len", "algstat: error: --max-len must be positive\n"),
        ("--max-out", "algstat: error: --max-out must be positive\n"),
        ("--workers", "algstat: error: --workers must be positive\n"),
        ("--steps", "algstat: error: budgets must satisfy max_steps >= 1, max_output >= 0\n"),
    ],
)
def test_cli_rejects_a_zero_setting(capsys, tmp_path, flag, message):
    assert main(["structfn", "0", flag, "0", "--cache-dir", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", message)
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_a_negative_beta_before_any_table(capsys, tmp_path):
    assert main(["bernoulli", "4", "--beta", "-1", "--cache-dir", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", "algstat: error: --beta must be >= 0\n")
    assert list(tmp_path.iterdir()) == []


def test_constructors_normalize_their_fields():
    assert Bernoulli(4, "1/4").p == Fraction(1, 4)
    assert TableDist((("1", HALF), ("0", "1/4"))).entries == (
        ("0", Fraction(1, 4)),
        ("1", HALF),
    )
    assert Statistic("map", (("1", "0"), ("0", "1"))).table == (("0", "1"), ("1", "0"))
    assert JointModel(("0",), (1,), (Bernoulli(1, HALF),)).priors == (Fraction(1),)
    assert SkIndex(3, ("", "0"), 2, 2, 1).rank_of("0") == 2


@pytest.mark.parametrize("record", VALIDATING + PLAIN, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    field = next(iter(getattr(record, "_fields", None) or record.__slots__))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)


@pytest.mark.parametrize("record", VALIDATING + PLAIN, ids=lambda r: type(r).__name__)
def test_records_pickle_and_compare_by_value(record):
    again = pickle.loads(pickle.dumps(record))
    assert again == record and not again != record
    assert hash(again) == hash(record)


def test_repr_names_the_fields():
    assert repr(Budgets()) == "Budgets(max_steps=100000, max_output=4096)"
    assert repr(Hamming(4, 1)) == "Hamming(n=4, s=1)"
    assert repr(UniformOn(All(2))) == "UniformOn(desc=All(n=2))"
    assert repr(SkIndex(3, ("", "0"), 2, 2, 1)) == (
        "SkIndex(k=3, members=('', '0'), n_k=2, width=2, t_k=1)"
    )
    assert repr(TableDist((("1", HALF),))) == "TableDist(entries=(('1', Fraction(1, 2)),))"
    assert repr(Statistic("map", (("0", "1"),))) == "Statistic(kind='map', table=(('0', '1'),))"


@pytest.mark.parametrize(
    "a, b",
    [
        (Hamming(4, 1), Budgets(4, 1)),
        (Budgets(4, 1), (4, 1)),
        (All(3), (3,)),
        (Singleton("0"), ("0",)),
    ],
)
def test_records_of_different_classes_differ(a, b):
    assert a != b and b != a
    assert len({a: 1, b: 2}) == 2


@pytest.mark.parametrize("first", SET_DESCS + DIST_DESCS, ids=repr)
def test_cached_codes_belong_to_their_record(first):
    """Each model's code is its own encoding and decodes back to the model,
    whichever model's code was read first, and no two models share one."""
    first.code
    for desc in SET_DESCS:
        assert desc.code == encode(desc) and decode(desc.code) == desc
    for dist in DIST_DESCS:
        assert dist.code == encode_dist(dist) and decode_dist(dist.code) == dist
    assert len({d.code for d in SET_DESCS + DIST_DESCS}) == len(SET_DESCS + DIST_DESCS)
