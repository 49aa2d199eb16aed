"""Every malformed input is refused with its own error class and message:
the constants file, a joint-model file, DistLang codes and tables, and the
header lines of a table file."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from algstat.bits import bar_nat, std
from algstat.constants import ConstantsError, parse_constants
from algstat.distlang import Bernoulli, DistLangError, TableDist, _rat_bits, decode_dist
from algstat.enumeration import TableFormatError, build_table, export_table, import_table
from algstat.infolaws import JointModel, JointModelError, parse_joint_text, parse_statistic
from oracles import resealed


def _raises(cls, message: str):
    """``pytest.raises`` for exactly this class and this whole message."""
    return pytest.raises(cls, match=f"^{re.escape(message)}$")


# -- the constants file ---------------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("a 1\nb 1 2\n", "constants line 2: expected 'name value', got 'b 1 2'"),
        ("# frozen\na 1\n\na 2\n", "constants line 4: duplicate name 'a'"),
        ("a one\n", "constants line 1: non-integer value 'one'"),
    ],
    ids=["fields", "duplicate", "non-integer"],
)
def test_bad_constants_lines(text, message):
    with _raises(ConstantsError, message):
        parse_constants(text)


# -- the joint-model file ---------------------------------------------------------

COIN = "dist 0 bern:1,1/2\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("theta 0\n", "line 1: expected 'theta <label> <prior>'"),
        ("theta 0 1\ndist 0\n", "line 2: expected 'dist <label> <distribution>'"),
        ("theta 0 1\n" + COIN + COIN, "line 3: duplicate dist for 0"),
        ("theta 0 -1/2\ntheta 1 3/2\n" + COIN + "dist 1 bern:1,1/2\n", "priors must be nonnegative"),
    ],
    ids=["theta-fields", "dist-fields", "duplicate-dist", "negative-prior"],
)
def test_bad_joint_files(text, message):
    with _raises(JointModelError, message):
        parse_joint_text(text)


def test_a_negative_prior_is_refused_by_the_model():
    coin = Bernoulli(1, Fraction(1, 2))
    with _raises(JointModelError, "priors must be nonnegative"):
        JointModel(("0", "1"), (Fraction(-1), Fraction(2)), (coin, coin))


def test_a_map_entry_needs_a_colon():
    with _raises(JointModelError, "map entry '01' needs the form x:label"):
        parse_statistic("map{0:1, 01}")


# -- DistLang -------------------------------------------------------------------


def _rat(num: int, den: int) -> str:
    return bar_nat(num) + bar_nat(den)


@pytest.mark.parametrize(
    "bits, message",
    [
        ("01" + bar_nat(2) + _rat(0, 1), "rational parts must be positive"),
        ("01" + bar_nat(2) + _rat(1, 0), "rational parts must be positive"),
        ("01" + bar_nat(2) + _rat(2, 4), "rational 2/4 is not in lowest terms"),
        ("10" + bar_nat(0), "Table count must be >= 1"),
        (
            "10" + bar_nat(2) + std("1") + _rat_bits(Fraction(1, 2)) + std("0") + _rat_bits(Fraction(1, 2)),
            "Table entries must be in canonical (length, lex) order",
        ),
    ],
    ids=["zero-numerator", "zero-denominator", "not-lowest", "empty-table", "unsorted-table"],
)
def test_bad_distlang_codes(bits, message):
    with _raises(DistLangError, f"malformed distribution code: {message}"):
        decode_dist(bits)


@pytest.mark.parametrize("mass", [Fraction(0), Fraction(-1, 2), Fraction(3, 2)])
def test_a_table_mass_lies_in_the_unit_interval(mass):
    with _raises(DistLangError, "Table masses must be in (0, 1]"):
        TableDist((("0", mass),))


# -- table file header lines ------------------------------------------------------


@pytest.fixture(scope="module")
def export(tmp_path_factory):
    """The bytes of an L=8 table file."""
    path = tmp_path_factory.mktemp("header") / "table"
    export_table(build_table(8), path)
    return path.read_bytes()


# (header line number, its edit, the error the edited line gives). The file
# is resealed after the edit, so only the check of that line can refuse it.
HEADER_EDITS = {
    "machine": (0, lambda l: "machine", lambda l: f"expected 'machine <version>' header line, got {l!r}"),
    "L-key": (1, lambda l: l + " 8", lambda l: f"expected 'L <value>' header line, got {l!r}"),
    "T-value": (2, lambda l: "T many", lambda l: f"non-integer T header: {l!r}"),
    "condition": (
        4,
        lambda l: "cond " + l.split()[1],
        lambda l: f"expected 'condition <fingerprint>' header line, got {l!r}",
    ),
    "hist-key": (6, lambda l: "counts" + l[4:], lambda l: f"expected 'hist ...' header line, got {l!r}"),
    "hist-value": (6, lambda l: l + " x", lambda l: f"malformed hist header: {l!r}"),
    "hist-long": (6, lambda l: l + " " + "9" * 5000, lambda l: "number too long in the hist header"),
    "hist-count": (6, lambda l: l.rsplit(" ", 1)[0], lambda l: "expected 9 histogram counts, got 8"),
    "index-entry": (
        7,
        lambda l: l.rsplit(",", 1)[0],
        lambda l: "malformed index header: an entry is not n,records,bytes,mass",
    ),
}


@pytest.mark.parametrize("name", HEADER_EDITS)
def test_bad_header_lines(export, tmp_path, name):
    i, edit, message = HEADER_EDITS[name]
    lines = export.decode("latin-1").split("\n", 9)
    lines[i] = edit(lines[i])
    assert len(lines[i]) < 80 or name == "hist-long"
    path = tmp_path / "table"
    path.write_bytes(resealed("\n".join(lines).encode("latin-1")))
    with _raises(TableFormatError, message(lines[i])):
        import_table(path)
