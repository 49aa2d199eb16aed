"""Tables built only up to the longest output their reader looks up.

Every opcode only appends to the output, so the table built under
``Budgets(T, n)`` is the ``Budgets(T, O)`` table restricted to outputs of at
most n bits. The analyses that know their longest lookup ask for that slice
(``n`` of ``TableSource.tables``); a reader whose bound is wrong must fail
loudly. A reader that keeps no fixed program-length cap gets a derived one:
2n+3, or under a model condition 7 plus the longest codeword when that is
less; no deeper cap improves on it."""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algstat.cache import TableSource, table_path
from algstat.cli import EXIT_OK, EXIT_USAGE, main
from algstat.complexity import Absent, _all_strings, mutual_info, require_k, shortest_program
from algstat.condition import DEFAULT_MAX_OUTPUT, Budgets, Condition
from algstat.distlang import parse_distlang, uniform_condition
from algstat.enumeration import (
    DEFAULT_COND_MAX_LEN,
    DEFAULT_MAX_LEN,
    LEVEL_MAX_LEN,
    build_table,
    export_table,
    import_table,
)
from algstat.bits import bits_to_text, ceil_log2, pair
from algstat.skstats import sk_csv
from algstat.machine import run
from algstat.models_set import alpha_cap, enumerate_models, star_condition
from algstat.setlang import Hamming
from oracles import ToyModel

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text(
        encoding="ascii"
    )
)

# One condition of each kind; the toy codebook's element lengths are not
# monotone in codeword length, so an output budget skips some codewords and
# keeps later ones.
CONDITIONS = [
    Condition.none(),
    Condition.string("1011"),
    Condition.string("0"),
    Condition.of_model(
        ToyModel("1011", [("1110", "1"), ("0", "0110"), ("110", ""), ("10", "11011"), ("1111", "00")])
    ),
    uniform_condition(Hamming(4, 2)),
]
condition = st.sampled_from(CONDITIONS)
output_budget = st.one_of(st.integers(0, 20), st.just(DEFAULT_MAX_OUTPUT))


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(3, 14),
    cond=condition,
    T=st.integers(1, 48),
    O=output_budget,
    data=st.data(),
)
def test_slice_is_the_full_table_restricted(L, cond, T, O, data):
    n = data.draw(st.integers(0, min(O, 20)), label="n")
    full = build_table(L, cond, Budgets(T, O))
    sliced = build_table(L, cond, Budgets(T, n))
    assert sliced.budgets.max_output == n
    # Entry is (K, witness, mass numerator): all three must agree.
    assert sliced.entries == {x: e for x, e in full.entries.items() if len(x) <= n}


@settings(max_examples=40, deadline=None)
@given(L=st.integers(3, 12), cond=condition, n=st.one_of(st.none(), st.integers(0, 8)))
def test_imported_witnesses_replay(L, cond, n):
    budgets = Budgets() if n is None else Budgets(max_output=n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        export_table(build_table(L, cond, budgets), path)
        table = import_table(path)
        entries = table.entries
    assert entries
    for x, e in entries.items():
        outcome = run(e.witness, cond, table.budgets)
        assert outcome.halted and outcome.output == x
        assert len(e.witness) == e.k


def test_capped_lowers_only_the_output_budget(tmp_path):
    notes = []
    budgets = Budgets(max_steps=300, max_output=40)
    source = TableSource(budgets=budgets, cache_dir=tmp_path, warn=notes.append, max_len=9)
    [capped] = source.tables(n=13)
    assert capped.budgets == Budgets(max_steps=300, max_output=13)
    assert capped.L == 9
    assert table_path(tmp_path, 9, capped.budgets, capped.cond_fingerprint).exists()
    for n in (40, 99):
        [table] = source.tables(n=n)
        assert (table.L, table.budgets) == (9, budgets)
    assert len(notes) == 2  # the O=13 table, then the O=40 one that n=99 reads too


@pytest.fixture(scope="module")
def k_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("k-tables")


@settings(max_examples=40, deadline=None)
@given(x=st.text("01", max_size=5), c=st.text("01", max_size=4))
def test_derived_cap_gives_the_k_and_witness_of_a_deeper_table(k_cache, x, c):
    """Every string of at most |x| bits has the same K and witness at the
    derived cap 2|x|+3 as 3 bits deeper, under a string condition."""
    source, n = TableSource(cache_dir=k_cache), len(x)
    [derived] = source.tables([Condition.string(c)], n=n)
    [deeper] = source._replace(max_len=2 * n + 6).tables([Condition.string(c)], n=n)
    assert (derived.L, derived.budgets.max_output) == (2 * n + 3, n)
    assert derived.k_of(x) is not None
    for y in _all_strings(n):
        assert (derived.k_of(y), derived.witness_of(y)) == (deeper.k_of(y), deeper.witness_of(y))


MODEL_CONDITIONS = [
    CONDITIONS[3],
    uniform_condition(Hamming(4, 2)),
    uniform_condition(Hamming(6, 1)),
    Condition.of_model(parse_distlang("table{000000:1/2,010101:1/4,111111:1/4}")),
    Condition.of_model(parse_distlang("bern:3,1/4")),
]


@pytest.mark.parametrize("cond", MODEL_CONDITIONS, ids=lambda c: c.serial()[:24])
def test_derived_model_cap_gives_the_k_and_witness_of_every_member(k_cache, cond):
    """Under a model condition the derived cap is 7 plus the longest
    codeword when that is below 2n+3, and every member has the K and
    witness of the 2n+3 table there."""
    book, _ = cond.sf_book()
    members = set(book.values())
    n = max(map(len, members))
    source = TableSource(cache_dir=k_cache)
    [derived] = source.tables([cond], n=n)
    [full] = source._replace(max_len=2 * n + 3).tables([cond], n=n)
    assert derived.L == min(2 * n + 3, 7 + max(map(len, book)))
    for y in members:
        assert derived.k_of(y) is not None
        assert (derived.k_of(y), derived.witness_of(y)) == (full.k_of(y), full.witness_of(y))


def test_tables_refuse_a_derived_cap_beyond_the_battery(tmp_path):
    """n = 14 would derive L = 31, above the deep table's 29: an error that
    names --max-len, before any table is built. A source's ``max_len`` is
    used as it is."""
    source = TableSource(cache_dir=tmp_path)
    with pytest.raises(ValueError, match="L=31, above the largest derived cap L=29; pass --max-len"):
        source.tables(n=14)
    assert list(tmp_path.iterdir()) == []
    [table] = source._replace(max_len=5).tables(n=14)
    assert (table.L, table.budgets.max_output) == (5, 14)


class TestMissBeyondTheOutputBudget:
    def test_lookups_name_the_output_budget(self):
        table = build_table(8, budgets=Budgets(max_output=4))
        for lookup in (require_k, shortest_program):
            with pytest.raises(Absent) as exc:
                lookup(table, "00000")
            assert "longer than the table's output budget O=4" in str(exc.value)
            assert "L=8" not in str(exc.value)

    def test_a_short_miss_still_names_the_length_cap(self):
        table = build_table(8, budgets=Budgets(max_output=4))
        with pytest.raises(Absent) as exc:
            require_k(table, "0110")  # K = 11
        assert "within the table's cap L=8;" in str(exc.value)

    def test_conditional_table(self):
        table = build_table(8, Condition.string("1"), Budgets(max_output=4))
        with pytest.raises(Absent) as exc:
            require_k(table, "0" * 9)
        assert "the conditional table's output budget O=4" in str(exc.value)

    def test_cli_exits_1_without_output(self, tmp_path, capsys):
        code = main(["k", "00000", "--max-out", "4", "--max-len", "12", "--cache-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_USAGE, "")
        assert "algstat: error: 00000 is longer than the table's output budget O=4" in err


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_laws_reads_one_sliced_deep_table(tmp_path, capsys):
    assert main(["laws", "--workers", "1", "--cache-dir", str(tmp_path)]) == EXIT_OK
    assert _digest(capsys.readouterr().out) == EXPECTED["laws"]
    names = [p.name for p in tmp_path.iterdir()]
    # One file per O-bit prefix of the soi and non-increase conditions.
    assert len(names) == 26
    [deep] = [name for name in names if "_L29_" in name]
    assert "_O13_" in deep


# Under a small --max-out the non-increase transforms stop with OUTPUT on the
# longer swept strings, so that audit fails, and so does the whole battery (at
# the pairs of the soi sweep, which runs first); selections that never run it
# must not fail.
@pytest.mark.parametrize(
    "audit,code,stdout,error",
    [
        (
            "theta",
            EXIT_OK,
            "theta weight-prob-sufficient PASS\n"
            "theta identity-deficiency-zero PASS\n"
            "theta_tau measured=0 frozen=0 PASS\n",
            None,
        ),
        ("identity", EXIT_OK, "suff_identity measured=4 frozen=4 PASS\n", None),
        ("nonincrease", EXIT_USAGE, "", "transform 'drop-last' fails on 000000: OUT_OF_OUTPUT"),
        ("all", EXIT_USAGE, "", "00000 is longer than the table's output budget O=4"),
    ],
    ids=["theta", "identity", "nonincrease", "all"],
)
def test_laws_selection_under_a_small_output_budget(audit, code, stdout, error, tmp_path, capsys):
    argv = ["laws", "--audit", audit, "--max-out", "4", "--cache-dir", str(tmp_path)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == stdout
    if error is not None:
        assert err.splitlines()[-1].startswith(f"algstat: error: {error}")


@pytest.mark.parametrize("x", ["00010111", "01101001"])
def test_structfn_reads_model_tables_up_to_its_length(x, tmp_path, capsys):
    """Every table is sliced to the 8 bits of x. A star table, a string
    condition, is capped at 2*8+3 = 19; a uniform table at 7 plus its
    codeword length ceil(log2 |S|), which SFDECODE, the codeword and a HALT
    print any member in. A star condition is cut to its first 8 bits, all
    that a walk under that output budget reads of it."""
    assert main(["structfn", x, "--cache-dir", str(tmp_path)]) == EXIT_OK
    assert _digest(capsys.readouterr().out) == EXPECTED["structfn"][x]
    budgets = Budgets(max_output=8)
    want = set()
    for desc in enumerate_models(x, alpha_cap(x)):
        star = Condition.string(star_condition(desc).bits[:8])
        for L, cond in ((7 + ceil_log2(desc.size()), uniform_condition(desc)), (19, star)):
            want.add(table_path(tmp_path, L, budgets, cond.fingerprint()).name)
    assert {p.name for p in tmp_path.iterdir()} == want


# -- the one-string readers read the smallest exact table ---------------------


def _full_answer(table, command: str, *strings: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``k`` or ``mi`` read off one full
    table, as the commands answered when they read the O=4096 tables."""
    try:
        if command == "k":
            [x] = strings
            return EXIT_OK, f"K={require_k(table, x)} witness={table.witness_of(x)}\n", ""
        rec = mutual_info(table, *strings)
        return EXIT_OK, f"I={rec.i} K(x)={rec.kx} K(y)={rec.ky} K(pair)={rec.kxy}\n", ""
    except Absent as exc:
        return EXIT_USAGE, "", f"algstat: error: {exc}\n"


def _cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    # a cold read notes its build; only the error line is compared
    return code, out, "".join(l + "\n" for l in err.splitlines() if "cache miss" not in l)


@pytest.fixture(scope="module")
def one_string_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("one-string"))


THREE_BITS = [format(v, "03b") for v in range(8)]
K_FLAGS = [[]] + [["--cond", c] for c in THREE_BITS] + [["--cond-set", "ham:4,2"]]


@pytest.mark.parametrize("flags", K_FLAGS, ids=lambda f: " ".join(f) or "plain")
def test_k_answers_as_the_full_table(flags, one_string_cache, capsys):
    """``k x`` reads the table under output budget |x|, with a string
    condition cut to its first |x| bits, and answers every x of at most 8
    bits as the full O=4096 table does."""
    if not flags:
        full = build_table(DEFAULT_MAX_LEN)
    elif flags[0] == "--cond":
        full = build_table(DEFAULT_COND_MAX_LEN, Condition.string(flags[1]))
    else:
        full = build_table(DEFAULT_COND_MAX_LEN, uniform_condition(Hamming(4, 2)))
    assert full.budgets.max_output == DEFAULT_MAX_OUTPUT
    for x in _all_strings(8):
        got = _cli(capsys, "k", bits_to_text(x), *flags, "--cache-dir", one_string_cache)
        assert got == _full_answer(full, "k", x), (x, flags)


def test_mi_answers_as_the_full_table(one_string_cache, capsys):
    """``mi x y`` reads the table under output budget |pair(x, y)|, the
    longest string it looks up, and answers every pair of strings of at
    most 3 bits as the full table does, with the same error line for the
    pairs that lie beyond the L=24 cap."""
    full = build_table(DEFAULT_MAX_LEN)
    answers = []
    for x in _all_strings(3):
        for y in _all_strings(3):
            argv = ("mi", bits_to_text(x), bits_to_text(y), "--cache-dir", one_string_cache)
            got = _cli(capsys, *argv)
            assert got == _full_answer(full, "mi", x, y), (x, y)
            answers.append(got[0])
    assert EXIT_OK in answers and EXIT_USAGE in answers


def test_sk_answers_as_the_level_table(one_string_cache, capsys):
    """``sk k`` reads the table at program cap max(k, 3), whose outputs
    are exactly S^k, and prints the level table's CSV for k = 0 … 22; k = 23
    still exceeds the level table's cap."""
    level = build_table(LEVEL_MAX_LEN)
    for k in range(LEVEL_MAX_LEN + 2):
        got = _cli(capsys, "sk", str(k), "--cache-dir", one_string_cache)
        try:
            want = (EXIT_OK, sk_csv(level, k), "")
        except ValueError as exc:
            want = (EXIT_USAGE, "", f"algstat: error: {exc}\n")
        assert got == want, k
    assert "k=23 exceeds the table cap L=22" in got[2]


@pytest.mark.parametrize(
    "argv, L, O, note",
    [
        (["k", "0110"], 24, 4, "[none]"),
        (["k", "0110", "--cond", "0110100"], 22, 4, "[str 0110]"),
        (["mi", "101", "01"], 24, len(pair("101", "01")), "[none]"),
        (["sk", "8"], 8, DEFAULT_MAX_OUTPUT, "[none]"),
    ],
    ids=["k", "k-cond", "mi", "sk"],
)
def test_one_string_readers_write_one_small_file(argv, L, O, note, tmp_path, capsys):
    """A cold one-string query writes one file: at the output budget of its
    longest string and, for ``k --cond``, under the condition cut to it;
    ``sk k`` writes the table at program cap k."""
    assert main([*argv, "--cache-dir", str(tmp_path)]) == EXIT_OK
    _, err = capsys.readouterr()
    assert err == f"algstat: cache miss: enumerating L={L} under condition {note}\n"
    [path] = tmp_path.iterdir()
    assert f"_L{L}_" in path.name and f"_O{O}_" in path.name
