"""Enumeration and tables: oracle equivalence, Kraft, determinism, round-trips."""

from __future__ import annotations

import gc
import hashlib
import inspect
import re
import tracemalloc
import zlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algstat import _pykernel, cache, enumeration
from algstat.cache import TableSource, load_or_build, table_path
from algstat.condition import Budgets, Condition
from algstat.distlang import uniform_condition
from algstat.enumeration import (
    TABLE_FORMAT,
    ComplexityTable,
    Entry,
    EntryCapExceeded,
    TableFormatError,
    TableVersionError,
    build_table,
    export_table,
    import_table,
)
from algstat._pykernel import walk_args
from algstat.kernel import backend_name
from algstat.machine import run
from algstat.setlang import Hamming, Singleton
from oracles import (
    ToyModel,
    enumerate_halting,
    find_prefix_violation,
    naive_entries,
    naive_halting_programs,
    full_records,
    naive_import_table,
    plain_text,
    predicted_halting_by_length,
    resealed,
    seal,
    stored,
)

# Codewords of lengths 1 to 4, listed out of order, whose element lengths
# (4, 5, 0, 1, 2 by codeword length) are not monotone: under a tight output
# budget the first codeword is skipped while later, longer ones still fit.
MIXED_BOOK = ToyModel(
    "1011", [("1110", "1"), ("0", "0110"), ("110", ""), ("10", "11011"), ("1111", "00")]
)
TIGHT = Budgets(max_steps=6, max_output=3)
MIXED_BOOK_CASES = [
    pytest.param(12, Condition.of_model(MIXED_BOOK), None, id="mixed-book"),
    pytest.param(12, Condition.of_model(MIXED_BOOK), TIGHT, id="mixed-book-tight"),
]


def table_view(table: ComplexityTable):
    """(entries, hist) in the form ``naive_entries`` returns."""
    return {x: (e.k, e.witness, e.m_num) for x, e in table.entries.items()}, table.count_by_length()


def by_length_then_lex(progs):
    return sorted(progs, key=lambda t: (len(t[0]), t[0]))


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
        assert table_view(build_table(10)) == naive_entries(10)

    def test_unconditioned_l12(self, table_l12):
        assert table_view(table_l12) == naive_entries(12)

    def test_str_condition(self):
        cond = Condition.string("1011")
        assert table_view(build_table(9, cond)) == naive_entries(9, cond)

    @pytest.mark.parametrize(
        "L, cond, budgets",
        [
            pytest.param(
                10,
                Condition.of_model(ToyModel("110", [("0", "000"), ("10", "111"), ("11", "101")])),
                None,
                id="three-codewords",
            ),
            *MIXED_BOOK_CASES,
        ],
    )
    def test_model_condition(self, L, cond, budgets):
        assert table_view(build_table(L, cond, budgets)) == naive_entries(L, cond, budgets)

    def test_tight_budgets(self):
        budgets = Budgets(max_steps=3, max_output=2)
        assert table_view(build_table(10, budgets=budgets)) == naive_entries(10, budgets=budgets)

    @pytest.mark.parametrize(
        "L, cond, budgets",
        [pytest.param(9, Condition.string("01"), None, id="str"), *MIXED_BOOK_CASES],
    )
    def test_program_stream_matches_oracle(self, L, cond, budgets):
        got = list(enumerate_halting(L, cond, budgets))
        want = naive_halting_programs(L, cond, budgets)
        assert by_length_then_lex(got) == by_length_then_lex(want)
        assert got == by_length_then_lex(got)


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

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(3, 14),
        cond=st.one_of(
            st.just(Condition.none()),
            st.text("01", max_size=6).map(Condition.string),
            st.sampled_from(
                [Condition.of_model(MIXED_BOOK), uniform_condition(Hamming(4, 2))]
            ),
        ),
    )
    def test_mass_is_at_least_two_to_the_minus_k(self, L, cond):
        """m_L(x) >= 2^-K(x): the witness alone contributes 2^-K(x), so the
        mass numerator over 2^L is at least 2^(L-K)."""
        table = build_table(L, cond)
        for x, e in table.entries.items():
            assert e.m_num >= 1 << (L - e.k)
            assert table.m_of(x) >= Fraction(1, 1 << e.k)


def _cache_files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


SMALL_CONDS = [
    Condition.string("0110"),
    Condition.none(),
    Condition.of_model(MIXED_BOOK),
    Condition.string("1"),
]


class TestDeterminismAndBackends:
    def test_two_builds_identical(self):
        assert build_table(13) == build_table(13)


class TestLoadOrBuildMany:
    """``TableSource.tables``, the batch lookup over many conditions."""

    def test_tables_come_back_in_input_order(self, tmp_path):
        tables = TableSource(cache_dir=tmp_path).tables(10, SMALL_CONDS)
        assert [t.cond_fingerprint for t in tables] == [c.fingerprint() for c in SMALL_CONDS]
        for cond, table in zip(SMALL_CONDS, tables):
            assert table == build_table(10, cond)

    def test_duplicates_are_built_once(self, tmp_path):
        notes = []
        conds = [SMALL_CONDS[0], SMALL_CONDS[1], SMALL_CONDS[0], SMALL_CONDS[1]]
        source = TableSource(cache_dir=tmp_path, warn=notes.append)
        tables = source.tables(10, conds)
        assert notes == [
            f"cache miss: enumerating L=10 under condition [{c.serial()}]" for c in conds[:2]
        ]
        assert tables[0] is tables[2] and tables[1] is tables[3]
        assert len(_cache_files(tmp_path)) == 2

    def test_all_hits_build_nothing(self, tmp_path, monkeypatch):
        built = TableSource(cache_dir=tmp_path).tables(10, SMALL_CONDS)

        def no_build(*args, **kwargs):
            raise AssertionError("a cached table was built again")

        monkeypatch.setattr(cache, "build_table", no_build)
        notes = []
        again = TableSource(cache_dir=tmp_path, warn=notes.append).tables(10, SMALL_CONDS)
        assert again == built
        assert notes == []


class TestKernelContract:
    """The benchmark's tracer wraps ``_pykernel.walk`` and reads the
    condition kind from its fourth positional argument."""

    def test_backend_name(self):
        assert backend_name() == "py"

    def test_walk_takes_seven_positional_arguments(self):
        params = list(inspect.signature(_pykernel.walk).parameters.values())
        assert [p.name for p in params] == [
            "L", "max_steps", "max_output", "cond_kind", "cond_bits", "book_codes", "book_elems"
        ]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)

    def test_a_model_walk_builds_no_book(self):
        """The walk takes the model's pairs in (length, codeword) order; the
        codeword map and its prefix set are built by SFDECODE alone."""
        cond = Condition.of_model(MIXED_BOOK)
        args = walk_args(10, cond, Budgets())
        pairs = sorted(MIXED_BOOK.codebook_pairs(), key=lambda p: (len(p[0]), p[0]))
        assert list(zip(args[5], args[6])) == pairs
        build_table(10, cond)
        assert (cond._book, cond._book_prefixes) == (None, None)
        assert run("1110" + "0" + "100", cond).output == "0110"
        assert "" in cond._book_prefixes

    @pytest.mark.parametrize(
        "cond, kind",
        [
            (Condition.none(), _pykernel.COND_NONE),
            (Condition.string("01"), _pykernel.COND_STR),
            (Condition.of_model(MIXED_BOOK), _pykernel.COND_MODEL),
        ],
        ids=["none", "str", "model"],
    )
    def test_condition_kind_is_argument_three(self, cond, kind):
        args = walk_args(10, cond, Budgets())
        assert len(args) == 7 and args[3] == kind
        assert {0: "none", 1: "str", 2: "model"}[kind] == cond.kind


def _reseal(path) -> None:
    """Rewrite the sha256 header line of a table file to match the header
    lines before it and the stored body, as a writer would after editing
    them."""
    path.write_bytes(resealed(path.read_bytes()))


def _rewrite(path, edit, reseal: bool = False) -> None:
    """Replace a table file by the one whose text, its body inflated
    (``plain_text``), is ``edit(text)``: the body deflated again, and the file
    resealed if asked."""
    path.write_bytes(stored(edit(plain_text(path.read_bytes()))))
    if reseal:
        _reseal(path)


def _edit_index(path, edit, reseal: bool = True) -> None:
    """Replace the index entries [n, records, bytes, mass] of a table file by
    ``edit(entries)``, and reseal the file unless told not to, as a writer of
    a wrong index would."""

    def edit_text(text):
        lines = text.split("\n")
        assert lines[7].startswith("index ")
        entries = [list(map(int, e.split(","))) for e in lines[7].split()[1:]]
        edit(entries)
        lines[7] = " ".join(["index", *(",".join(map(str, e)) for e in entries)])
        return "\n".join(lines)

    _rewrite(path, edit_text, reseal)


def _format1_text(table: ComplexityTable) -> str:
    """The file the format-1 writer made: the five preamble lines, then one
    ``output K witness mass`` record per output."""
    head = [
        f"machine {table.machine_version}",
        f"L {table.L}",
        f"T {table.budgets.max_steps}",
        f"O {table.budgets.max_output}",
        f"condition {table.cond_fingerprint}",
    ]
    records = [
        f"{x or '-'} {e.k} {e.witness} {enumeration._dyadic_text(e.m_num, table.L)}"
        for x, e in ((x, table.entries[x]) for x in table.sorted_outputs())
    ]
    return "\n".join(head + records) + "\n"


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        t = build_table(10, Condition.string("11"))
        path = tmp_path / "t.table"
        export_table(t, path)
        back = import_table(path)
        assert back == t
        # the file stores the length histogram, so the imported table has the built one
        assert back.count_by_length() == t.count_by_length()
        assert back.halting_count() == t.halting_count() == sum(t.count_by_length()) > 0
        # and the file form is a fixed point
        path2 = tmp_path / "t2.table"
        export_table(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_contents(self, tmp_path):
        t = build_table(6)
        path = tmp_path / "t.table"
        export_table(t, path)
        text = plain_text(path.read_bytes())
        head = text.splitlines()[:9]
        assert head[0] == "machine tpm1-v1"
        assert head[1] == "L 6"
        assert head[2] == "T 100000"
        assert head[3] == "O 4096"
        assert head[4] == f"condition {Condition.none().fingerprint()}"
        assert head[5] == f"format {TABLE_FORMAT}" == "format 4"
        assert head[6] == "hist 0 0 0 1 0 2 0"
        # '' (1 record of 12 bytes, mass 8/64), then '0' and '1' (2 of 12, 2/64 each):
        # 2 = 2^1 records of output length 1 are a dense segment, with no outputs
        assert head[7] == "index 0,1,12,8 1,2,24,4"
        body = text.split("\n", 9)[9]
        assert body == "- 100 1/2^3\n00100 1/2^5\n01100 1/2^5\n"
        # the file stores the body as one zlib stream at the fastest level
        deflated = path.read_bytes().split(b"\n", 9)[9]
        assert deflated == zlib.compress(body.encode(), zlib.Z_BEST_SPEED)
        # the digest seals the eight header lines before it as well as the
        # stored body
        sealed = "".join(line + "\n" for line in head[:8]).encode() + deflated
        assert head[8] == f"sha256 {hashlib.sha256(sealed).hexdigest()}"

    def test_version_mismatch(self, tmp_path):
        t = build_table(6)
        path = tmp_path / "t.table"
        export_table(t, path)
        _rewrite(path, lambda text: text.replace("tpm1-v1", "tpm1-v0"))
        with pytest.raises(TableVersionError):
            import_table(path)

    def test_out_of_range_budgets_header_is_rebuilt(self, tmp_path):
        table, _ = load_or_build(8, cache_dir=tmp_path)
        path = table_path(tmp_path, 8, Budgets(), Condition.none().fingerprint())
        _rewrite(path, lambda text: text.replace("\nT 100000\n", "\nT -5\n"))
        with pytest.raises(TableFormatError, match="budgets"):
            import_table(path)
        again, built = load_or_build(8, cache_dir=tmp_path)
        assert built and again == table

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
        _rewrite(path, lambda text: text + "0110 5\n")
        with pytest.raises(TableFormatError):
            import_table(path)

    def test_witness_length_must_equal_k(self, tmp_path):
        # the file stores no K: an imported K is its witness's length, and a
        # witness edited to another length moves K with it
        path = tmp_path / "t.table"
        t = build_table(8)
        export_table(t, path)
        back = import_table(path)
        assert all(back.k_of(x) == len(back.witness_of(x)) == e.k for x, e in t.entries.items())
        lines = plain_text(path.read_bytes()).split("\n", 9)
        # "01" is in the dense segment of output length 2, which seal writes
        # as export does
        records = full_records(t)
        assert "\n01 0001100 1/2^7\n" in records and "\n0001100 1/2^7\n" in lines[9]
        assert plain_text(seal(lines[:5], records)).split("\n", 9)[9] == lines[9]
        body = records.replace("\n01 0001100 1/2^7\n", "\n01 000110000 1/2^7\n")
        path.write_bytes(seal(lines[:5], body))
        assert "\n000110000 1/2^7\n" in plain_text(path.read_bytes())
        assert import_table(path).k_of("01") == 9

    def test_overfull_mass_rejected(self, tmp_path):
        path = tmp_path / "t.table"
        preamble = [
            "machine tpm1-v1",
            "L 6",
            "T 100000",
            "O 4096",
            f"condition {Condition.none().fingerprint()}",
        ]
        path.write_bytes(seal(preamble, "- 100 3/2^1\n"))
        with pytest.raises(TableFormatError, match="Kraft sum exceeds 1"):
            import_table(path)

    @pytest.mark.parametrize(
        "L, record, bad_record, x",
        [
            # the segment of output length 6 at L=14 holds 16 of the 64 6-bit strings
            (14, "000000 0000001100100 1/2^13", "0a0000 0000001100100 1/2^13", "000000"),
            (14, "000000 0000001100100 1/2^13", "000000 00a0001100100 1/2^13", "000000"),
            # the segment of output length 2 at L=8 holds all four: the record of "01"
            (8, "0001100 1/2^7", "00a1100 1/2^7", "01"),
        ],
        ids=["output", "witness", "dense-witness"],
    )
    def test_non_bit_character_rejected(self, tmp_path, L, record, bad_record, x):
        path = tmp_path / "t.table"
        export_table(build_table(L), path)
        assert f"\n{record}\n" in plain_text(path.read_bytes())
        _rewrite(path, lambda text: text.replace(f"\n{record}\n", f"\n{bad_record}\n"), reseal=True)
        table = import_table(path)
        assert table.k_of("0") == 5
        with pytest.raises(TableFormatError, match="malformed record"):
            table.k_of(x)

    def test_undecodable_cache_file_is_rebuilt(self, tmp_path):
        table, built = load_or_build(8, cache_dir=tmp_path)
        assert built
        path = table_path(tmp_path, 8, Budgets(), Condition.none().fingerprint())
        assert "\n- 100 " in plain_text(path.read_bytes())
        _rewrite(path, lambda text: text.replace("\n- 100 ", "\né 100 ", 1))
        with pytest.raises(TableFormatError):
            import_table(path)
        again, built = load_or_build(8, cache_dir=tmp_path)
        assert built and again == table
        assert import_table(path) == table

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
    def test_failed_export_leaves_no_temp_file(self, tmp_path, monkeypatch, error):
        def partial_export(table, path):
            path.write_bytes(b"machine tpm1-v1\nL 8\n")
            raise error

        monkeypatch.setattr(cache, "export_table", partial_export)
        with pytest.raises(type(error)):
            load_or_build(8, cache_dir=tmp_path)
        assert list(tmp_path.rglob("*.tmp")) == []
        monkeypatch.undo()
        table, built = load_or_build(8, cache_dir=tmp_path)
        assert built
        path = table_path(tmp_path, 8, Budgets(), Condition.none().fingerprint())
        assert import_table(path) == table
        assert load_or_build(8, cache_dir=tmp_path) == (table, False)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # two bytes in UTF-8 for the two of "- ": the index's byte count holds
            ("\n- 100 ", "\né100 ", "table body is not ASCII text"),
            ("\nL 8\n", "\nL é8\n", "table file header is not ASCII text"),
        ],
        ids=["body", "header"],
    )
    def test_undecodable_sealed_file_is_rebuilt(self, tmp_path, old, new, message):
        # sealed around the edit, so that only the ASCII checks can catch it
        table, _ = load_or_build(8, cache_dir=tmp_path)
        path = table_path(tmp_path, 8, Budgets(), Condition.none().fingerprint())
        _rewrite(path, lambda text: text.replace(old, new, 1), reseal=True)
        with pytest.raises(TableFormatError, match=message):
            import_table(path)
        again, built = load_or_build(8, cache_dir=tmp_path)
        assert built and again == table == import_table(path)


class TestCacheFormat:
    """The format is in the cache file's name, so a file of another format
    is a plain miss."""

    def test_old_format_files_are_misses(self, tmp_path):
        conds = SMALL_CONDS[:2]
        budgets = Budgets()
        for cond in conds:
            # the name and the contents the format-1 cache gave this table
            old_name = (
                f"tpm1-v1_L10_T{budgets.max_steps}_O{budgets.max_output}"
                f"_{cond.fingerprint()[:16]}.table"
            )
            (tmp_path / old_name).write_text(_format1_text(build_table(10, cond)))
        notes = []
        tables = TableSource(cache_dir=tmp_path, warn=notes.append).tables(10, conds)
        assert len(notes) == 2 and all(n.startswith("cache miss") for n in notes)
        for cond, table in zip(conds, tables):
            assert table == build_table(10, cond)
            assert import_table(table_path(tmp_path, 10, budgets, cond.fingerprint())) == table

    def test_format1_file_under_the_new_name_is_rebuilt(self, tmp_path):
        cond = Condition.string("0110")
        path = table_path(tmp_path, 10, Budgets(), cond.fingerprint())
        assert f"_F{TABLE_FORMAT}_" in path.name
        built = build_table(10, cond)
        path.write_text(_format1_text(built))
        with pytest.raises(TableFormatError, match=f"format {TABLE_FORMAT}"):
            import_table(path)
        notes = []
        table, was_built = load_or_build(10, cond, cache_dir=tmp_path, warn=notes.append)
        assert was_built and table == built
        assert notes == [f"cache miss: enumerating L=10 under condition [{cond.serial()}]"]
        assert import_table(path) == built

    def test_format3_file_is_ignored_and_rebuilt_as_format4(self, tmp_path):
        cond = Condition.string("0110")
        path = table_path(tmp_path, 10, Budgets(), cond.fingerprint())
        old = path.with_name(path.name.replace("_F4_", "_F3_"))
        assert "_F4_" in path.name and old != path
        built = build_table(10, cond)
        # the format-3 file of this table: its body stored as it is, and
        # sealed over that text
        export_table(built, path)
        text = plain_text(path.read_bytes()).replace("\nformat 4\n", "\nformat 3\n")
        path.unlink()
        old.write_bytes(resealed(text.encode()))
        pristine = old.read_bytes()
        notes = []
        table, was_built = load_or_build(10, cond, cache_dir=tmp_path, warn=notes.append)
        assert was_built and table == built and len(notes) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([old.name, path.name])
        assert old.read_bytes() == pristine
        assert import_table(path) == built
        # under the new name, it fails at open
        path.write_bytes(pristine)
        with pytest.raises(TableFormatError, match="format 4"):
            import_table(path)


@pytest.fixture(
    scope="module",
    params=[(16, None), (14, uniform_condition(Hamming(4, 2)))],
    ids=["plain-L16", "model-L14"],
)
def sealed(request, tmp_path_factory):
    """(built table, path of its export): a plain table and one under a
    model condition."""
    L, cond = request.param
    table = build_table(L, cond)
    path = tmp_path_factory.mktemp("sealed") / "t.table"
    export_table(table, path)
    return table, path


@pytest.fixture()
def parsed(monkeypatch):
    """The output length of every segment parsed, in order."""
    lengths = []
    parse = enumeration._parse_segment

    def recording(text, n, *rest):
        lengths.append(n)
        return parse(text, n, *rest)

    monkeypatch.setattr(enumeration, "_parse_segment", recording)
    return lengths


def _lookups(table: ComplexityTable, x: str):
    return table.k_of(x), table.witness_of(x), table.m_of(x), x in table


class TestLazyRead:
    def test_lookups_match_the_built_table(self, sealed):
        table, path = sealed
        fresh = import_table(path)
        for x in table.sorted_outputs():
            assert _lookups(fresh, x) == _lookups(table, x)

    def test_absent_strings(self, sealed, parsed):
        table, path = sealed
        lengths = sorted({len(x) for x in table.entries})
        # a length in the index that not every string of it reaches, and
        # one past the longest output
        n = next(n for n in lengths if sum(len(x) == n for x in table.entries) < 2**n)
        absent = next(
            x for x in (format(i, f"0{n}b") for i in range(2**n)) if x not in table.entries
        )
        beyond = "0" * (lengths[-1] + 1)
        fresh = import_table(path)
        for x in (absent, beyond):
            assert _lookups(fresh, x) == _lookups(table, x) == (None, None, Fraction(0), False)
        assert parsed == [n]

    def test_a_lookup_parses_only_its_own_length(self, sealed, parsed):
        table, path = sealed
        for n in sorted({len(x) for x in table.entries}):
            fresh = import_table(path)
            x = next(x for x in table.sorted_outputs() if len(x) == n)
            parsed.clear()
            assert fresh.k_of(x) == table.k_of(x)
            assert fresh.m_of(x) == table.m_of(x)
            assert parsed == [n]

    @pytest.mark.parametrize(
        "read",
        [
            lambda t: t.entries,
            lambda t: t.sorted_outputs(),
            lambda t: t.kraft_sum(),
            len,
        ],
        ids=["entries", "sorted_outputs", "kraft_sum", "len"],
    )
    def test_whole_table_reads_parse_every_length(self, sealed, parsed, read):
        table, path = sealed
        fresh = import_table(path)
        assert parsed == []
        assert read(fresh) == read(table)
        assert parsed == sorted({len(x) for x in table.entries})

    def test_equality_parses_every_length(self, sealed, parsed):
        table, path = sealed
        assert import_table(path) == table
        assert parsed == sorted({len(x) for x in table.entries})

    def test_reexport_is_byte_identical(self, sealed, tmp_path):
        table, path = sealed
        again = tmp_path / "again.table"
        export_table(import_table(path), again)
        assert again.read_bytes() == path.read_bytes()


def test_the_file_text_is_dropped_once_every_segment_is_parsed(sealed):
    table, path = sealed
    fresh = import_table(path)
    lengths = sorted({len(x) for x in table.entries})
    for n in lengths[:-1]:
        fresh.k_of("0" * n)
        assert fresh._text
    fresh.k_of("0" * lengths[-1])
    assert fresh._text == b""
    assert fresh == table  # answered from the parsed segments
    whole = import_table(path)
    assert whole.sorted_outputs() == table.sorted_outputs()
    assert whole._text == b""


class TestSealedFile:
    """Tampering: caught at open by the digest or the index checks, or at the
    first read of the segment it touches."""

    @pytest.mark.parametrize(
        "old, new",
        [
            # the record of "01", in the dense segment of output length 2
            ("\n0001100 1/2^7\n", "\n0001101 1/2^7\n"),
            ("\n0001100 1/2^7\n", "\n0001100 3/2^8\n"),
            # header lines that pass every other check at open: a unit of
            # mass moved between two index entries, and two programs of
            # length 3 moved to four of length 5 in the histogram
            ("\nindex 0,1,12,36 1,2,24,16 2,4,56,8\n", "\nindex 0,1,12,36 1,2,24,15 2,4,56,9\n"),
            ("\nhist 0 0 0 1 0 2 0 6 0\n", "\nhist 0 0 0 0 0 6 0 6 0\n"),
        ],
        ids=["witness", "mass", "index", "hist"],
    )
    def test_one_record_edit_fails_the_digest(self, tmp_path, old, new):
        table, built = load_or_build(8, cache_dir=tmp_path)
        path = table_path(tmp_path, 8, Budgets(), Condition.none().fingerprint())
        pristine = path.read_bytes()
        assert old in plain_text(pristine) and stored(plain_text(pristine)) == pristine
        _rewrite(path, lambda text: text.replace(old, new))
        with pytest.raises(TableFormatError, match="sha256"):
            import_table(path)
        notes = []
        again, built = load_or_build(8, cache_dir=tmp_path, warn=notes.append)
        assert built and again == table and len(notes) == 1
        assert path.read_bytes() == pristine

    @pytest.mark.parametrize(
        "entry, field, delta, message",
        [
            pytest.param(-1, 3, 1 << 8, "Kraft sum exceeds 1", id="masses-over-one"),
            pytest.param(-1, 3, -1, "histogram", id="masses-off-the-histogram"),
            pytest.param(0, 2, 1, "byte counts", id="bytes-past-the-body"),
            # more bytes than zlib's bound on one read can count
            pytest.param(0, 2, 1 << 64, "byte counts", id="bytes-2^64"),
            # the longest output length is 2, and O is 4096
            pytest.param(-1, 0, 4095, "length 4097 exceeds the output budget O=4096", id="length-above-O"),
            pytest.param(-1, 0, 5_000_000_000 - 2, "length 5000000000 exceeds", id="length-5000000000"),
        ],
    )
    def test_index_fails_at_open(self, tmp_path, entry, field, delta, message):
        path = tmp_path / "t.table"
        export_table(build_table(8), path)

        def edit(entries):
            entries[entry][field] += delta

        _edit_index(path, edit)
        with pytest.raises(TableFormatError, match=message):
            import_table(path)

    @pytest.mark.parametrize(
        "field, n",
        [
            ("count", 7),
            ("count", 5),
            ("mass", 7),
            ("mass", 5),
            ("boundary", 7),
        ],
        ids=["count", "dense-count", "mass", "dense-mass", "boundary"],
    )
    def test_segment_disagreeing_with_its_index_fails_on_first_lookup(self, tmp_path, field, n):
        # At L=16 the segments of output lengths 5 and 6 are dense (all 32
        # and 64 strings), and those of 7 and 8 are not (32 of 128 and 256).
        table = build_table(16)
        path = tmp_path / "t.table"
        export_table(table, path)

        def tamper(entries):
            a, b = entries[n], entries[n + 1]  # output lengths n and n + 1
            assert a[0] == n and b[0] == n + 1
            if field == "count":
                a[1] += 1
            elif field == "mass":  # the sum over the index is unchanged
                a[3] += 1
                b[3] -= 1
            else:  # the first record of length n + 1 moves into the length-n segment
                x = next(x for x in table.sorted_outputs() if len(x) == n + 1)
                e = table.entries[x]
                size = len(f"{x} {e.witness} {enumeration._dyadic_text(e.m_num, 16)}\n")
                a[1:] = [a[1] + 1, a[2] + size, a[3] + e.m_num]
                b[1:] = [b[1] - 1, b[2] - size, b[3] - e.m_num]

        _edit_index(path, tamper)
        fresh = import_table(path)
        assert fresh.k_of("0") == table.k_of("0")
        message = f"in the segment of output length {n}" if field == "boundary" else "index entry"
        x = next(x for x in table.sorted_outputs() if len(x) == n)
        with pytest.raises(TableFormatError, match=message):
            fresh.k_of(x)
        with pytest.raises(TableFormatError):
            fresh.entries
        with pytest.raises(TableFormatError):
            naive_import_table(path)

    @pytest.mark.parametrize(
        "n, old, new, records, message",
        [
            # an output column in a dense segment: the record of "01"
            (2, "\n0001100 45/2^12\n", "\n01 0001100 45/2^12\n", 0, "malformed record"),
            # that record dropped, with the count and byte count to match
            (2, "\n0001100 45/2^12\n", "\n", -1, "malformed record"),
            # a count edited to 2^n, with no record added; the dense-count case
            # above edits one away from 2^n
            (6, "", "", 64 - 16, "index entry"),
        ],
        ids=["output-column", "dropped-record", "count-to-2^n"],
    )
    def test_dense_segment_tampering_fails_on_first_lookup(
        self, tmp_path, n, old, new, records, message
    ):
        # At L=14 the segments of output lengths 1 to 5 are dense, and that
        # of 6 holds 16 of the 64 6-bit strings.
        table = build_table(14)
        path = tmp_path / "t.table"
        export_table(table, path)
        if old:
            assert plain_text(path.read_bytes()).count(old) == 1
            _rewrite(path, lambda text: text.replace(old, new))

        def tamper(entries):
            assert entries[n][0] == n
            entries[n][1] += records
            entries[n][2] += len(new) - len(old)

        _edit_index(path, tamper)
        fresh = import_table(path)
        assert fresh.k_of("0") == table.k_of("0")
        x = next(x for x in table.sorted_outputs() if len(x) == n)
        with pytest.raises(TableFormatError, match=message):
            fresh.k_of(x)
        with pytest.raises(TableFormatError):
            naive_import_table(path)


    def test_a_failed_segment_fails_on_every_read(self, tmp_path):
        # The body is let go before the last unparsed segment is parsed, so
        # that segment, failing, must fail again without it. Here the empty
        # output's segment holds one record but claims none and no mass, with
        # the histogram to match, and is read last: read again from no text,
        # it would pass as empty.
        path = tmp_path / "t.table"
        export_table(build_table(6), path)
        _rewrite(path, lambda text: text.replace("\nhist 0 0 0 1 0 2 0\n", "\nhist 0 0 0 0 0 2 0\n"))

        def tamper(entries):
            assert entries[0] == [0, 1, 12, 8]
            entries[0][1::2] = [0, 0]

        _edit_index(path, tamper)
        table = import_table(path)
        assert table.k_of("0") == 5
        for read in (lambda: table.k_of(""), lambda: table.k_of(""), lambda: table.entries):
            with pytest.raises(TableFormatError, match="length 0 disagrees with its index entry"):
                read()


def _stored_body(path) -> tuple[bytes, bytes]:
    """A table file split into its nine header lines and its stored body."""
    data = path.read_bytes()
    body = data.split(b"\n", 9)[9]
    return data[: len(data) - len(body)], body


class TestCompressedBody:
    """The stored body must be one zlib stream that inflates to exactly the
    index's byte count, with nothing after it. Each file here is resealed, so
    that only these checks can catch it."""

    def test_body_that_is_no_zlib_stream(self, small_export, tmp_path):
        # the records stored as they are, as format 3 stored them
        path = tmp_path / "t.table"
        path.write_bytes(resealed(plain_text(small_export.read_bytes()).encode()))
        with pytest.raises(TableFormatError, match="not a zlib stream"):
            import_table(path)
        with pytest.raises(TableFormatError):
            naive_import_table(path)

    @pytest.mark.parametrize(
        "kept",
        [lambda n: n - 1, lambda n: n - 4, lambda n: n // 2, lambda n: 2],
        ids=["checksum-byte", "checksum", "half", "stream-header"],
    )
    def test_truncated_stream(self, small_export, tmp_path, kept):
        # the stream cut short, down to its two-byte zlib header; its last
        # four bytes are the checksum of the inflated body
        head, body = _stored_body(small_export)
        path = tmp_path / "t.table"
        path.write_bytes(resealed(head + body[: kept(len(body))]))
        with pytest.raises(TableFormatError, match="truncated table body"):
            import_table(path)
        with pytest.raises(TableFormatError):
            naive_import_table(path)

    @pytest.mark.parametrize(
        "extra", [b"\0", b"x", zlib.compress(b"")], ids=["zero-byte", "letter", "second-stream"]
    )
    def test_bytes_after_the_stream(self, small_export, tmp_path, extra):
        head, body = _stored_body(small_export)
        path = tmp_path / "t.table"
        path.write_bytes(resealed(head + body + extra))
        with pytest.raises(TableFormatError, match="bytes after the end"):
            import_table(path)
        with pytest.raises(TableFormatError):
            naive_import_table(path)

    def test_stream_past_the_index_total_is_refused_unread(self, small_export, tmp_path):
        # the records, then 16 MiB more that no index entry counts: refused
        # having inflated one byte past the index's total, not 16 MiB
        head, body = _stored_body(small_export)
        path = tmp_path / "t.table"
        path.write_bytes(resealed(head + zlib.compress(zlib.decompress(body) + b"0" * (1 << 24), 9)))
        tracemalloc.start()
        try:
            with pytest.raises(TableFormatError, match="byte counts"):
                import_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("level", [0, 6, 9])
    def test_any_compression_level_is_read(self, small_export, tmp_path, level):
        head, body = _stored_body(small_export)
        path = tmp_path / "t.table"
        path.write_bytes(resealed(head + zlib.compress(zlib.decompress(body), level)))
        assert path.read_bytes() != small_export.read_bytes()
        assert import_table(path) == import_table(small_export) == naive_import_table(path)


_ROUND_TRIP_CONDS = [
    Condition.none(),
    Condition.string("0110"),
    Condition.string("1"),
    uniform_condition(Hamming(4, 2)),
    uniform_condition(Singleton("011")),
    Condition.of_model(MIXED_BOOK),
]


class TestDenseSegments:
    """A segment of output length n >= 1 with 2^n records stores no outputs."""

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.integers(3, 16),
        O=st.integers(0, 8),
        cond=st.sampled_from(_ROUND_TRIP_CONDS),
    )
    @example(L=10, O=3, cond=Condition.none())  # every segment past '-' dense
    @example(L=16, O=8, cond=Condition.none())  # dense up to 6 bits, then sparse
    @example(L=12, O=8, cond=uniform_condition(Hamming(4, 2)))  # dense up to 4 bits, then sparse
    @example(L=4, O=8, cond=Condition.none())  # the empty output alone, never dense
    def test_round_trip_against_the_oracle(self, tmp_path_factory, L, O, cond):
        table = build_table(L, cond, Budgets(max_output=O))
        path = tmp_path_factory.mktemp("round-trip") / "t.table"
        export_table(table, path)
        assert import_table(path) == table == naive_import_table(path)
        # seal, which names a dense run by its outputs, writes the same
        # index and body as export, which names it by its record count
        lines = plain_text(path.read_bytes()).split("\n", 9)
        sealed = plain_text(seal(lines[:5], full_records(table))).split("\n", 9)
        assert (sealed[7], sealed[9]) == (lines[7], lines[9])

    def test_dense_segments_hold_only_their_columns(self, tmp_path):
        """Built or read, a dense segment is a witness column and a mass
        column indexed by int(x, 2): no output key, no Entry and no dict;
        every other segment maps its outputs to Entries."""
        for cond in (Condition.none(), Condition.string("01")):
            built = build_table(12, cond)
            export_table(built, tmp_path / "t.table")
            read = import_table(tmp_path / "t.table")
            for table in (built, read):
                segments = table._all()
                assert [n for n, seg in segments.items() if type(seg) is enumeration._Dense] == [
                    1, 2, 3, 4,
                ]
                for n, seg in segments.items():
                    if type(seg) is enumeration._Dense:
                        assert not hasattr(seg, "__dict__")
                        assert [type(c) for c in gc.get_referents(seg) if c is not type(seg)] == [
                            list, list,
                        ]
                        assert len(seg.wits) == len(seg.masses) == 2**n
                        assert {type(w) for w in seg.wits} == {str}
                        assert {type(m) for m in seg.masses} == {int}
                        x = format(2**n - 2, f"0{n}b")
                        assert table.witness_of(x) == seg.wits[2**n - 2]
                    else:
                        assert {type(e) for e in seg.values()} == {Entry}

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(3, 16),
        O=st.integers(0, 8),
        cond=st.sampled_from(_ROUND_TRIP_CONDS),
    )
    @example(L=16, O=8, cond=Condition.none())  # the empty output, dense, then sparse
    @example(L=14, O=6, cond=Condition.string("0110"))
    @example(L=12, O=8, cond=uniform_condition(Hamming(4, 2)))
    @example(L=4, O=8, cond=Condition.none())  # the empty output alone
    def test_built_and_read_tables_agree(self, tmp_path_factory, L, O, cond):
        built = build_table(L, cond, Budgets(max_output=O))
        path = tmp_path_factory.mktemp("agree") / "t.table"
        export_table(built, path)
        outs = built.sorted_outputs()
        present = set(outs)
        # A string missing from a sparse length, one longer than O, and
        # strings that int(x, 2) would read but are no bit strings.
        missing = [
            x
            for n in sorted(set(map(len, outs)))
            for x in (format(i, f"0{n}b") for i in range(2**n))
            if n and x not in present
        ][:1]
        absent = missing + ["0" * (O + 1), "0b1", "-1", " 1", "2"]
        read = import_table(path)
        for x in outs + absent:
            assert _lookups(read, x) == _lookups(built, x)
        for x in absent:
            assert _lookups(read, x) == (None, None, Fraction(0), False)
        queries = absent + outs[::-1] + outs[:3]
        assert read.ks_of(queries) == built.ks_of(queries) == [built.k_of(x) for x in queries]
        assert outs == sorted(built.entries, key=lambda x: (len(x), x))
        for whole in (
            len,
            ComplexityTable.sorted_outputs,
            lambda t: t.entries,
            ComplexityTable.kraft_sum,
            ComplexityTable.count_by_length,
        ):
            assert whole(import_table(path)) == whole(built)
        assert import_table(path) == built == read


# Record edits for the import fuzz test: a field replaced, dropped or
# doubled; a separator, numerator or exponent replaced; a line dropped,
# doubled or inserted.
_EDITS = ["replace", "drop", "dup", "sep", "num", "exp", "drop_line", "dup_line", "insert_line"]
_TOKENS = [
    "-", "", "+5", "1_0", "-1", "\t", "  ", "1/2^3/2^4", "a",
    "0", "05", "7", "100", "2/2^3", "1/2^0", "1/2^8", "1/2^9", "9" * 5000,
]
# What the per-line parser tolerates and export_table never writes: other
# whitespace between or around fields, and signs or underscores in numbers.
_NON_CANONICAL = re.compile(r"[\t+_]|  |^ | $", re.M)


def _edited(records: list[str], edit: str, i: int, j: int, token: str) -> list[str]:
    records = list(records)
    i %= len(records)
    fields = records[i].split(" ")
    if edit == "replace":
        fields[j] = token
    elif edit == "drop":
        del fields[j]
    elif edit == "dup":
        fields.insert(j, fields[j])
    elif edit in ("num", "exp"):
        num, exp = fields[2].split("/2^")
        fields[2] = f"{token}/2^{exp}" if edit == "num" else f"{num}/2^{token}"
    if edit == "sep":
        records[i] = " ".join(fields[: j % 2 + 1]) + token + " ".join(fields[j % 2 + 1 :])
    elif edit == "drop_line":
        del records[i]
    elif edit == "dup_line":
        records.insert(i, records[i])
    elif edit == "insert_line":
        records.insert(i, token)
    else:
        records[i] = " ".join(fields)
    return records


def _import_like_oracle(path) -> ComplexityTable | None:
    """import_table(path) and a read of every segment, checked against the
    per-line parser: a file the oracle rejects is rejected, a file both
    accept gives the same table, and a file only the oracle accepts is one
    export_table never writes."""
    try:
        expected = naive_import_table(path)
    except TableFormatError:
        with pytest.raises(TableFormatError):
            import_table(path).entries
        return None
    try:
        table = import_table(path)
        table.entries
    except TableFormatError:
        assert _NON_CANONICAL.search(plain_text(path.read_bytes()))
        return None
    assert table == expected
    assert table.count_by_length() == expected.count_by_length()
    fresh = import_table(path)
    for x, e in expected.entries.items():
        assert (fresh.k_of(x), fresh.witness_of(x), fresh.m_of(x)) == (
            e.k, e.witness, Fraction(e.m_num, 1 << expected.L)
        )
    return table


_L8_PREAMBLE = [
    "machine tpm1-v1",
    "L 8",
    "T 100000",
    "O 4096",
    f"condition {Condition.none().fingerprint()}",
]


def _l8_file(tmp_path, body: str):
    """An unconditioned L=8 table file with this record text, sealed."""
    path = tmp_path / "t.table"
    path.write_bytes(seal(_L8_PREAMBLE, body))
    return path


@pytest.fixture(scope="module")
def small_export(tmp_path_factory):
    path = tmp_path_factory.mktemp("bulk-import") / "t.table"
    export_table(build_table(8), path)
    return path


class TestBulkImport:
    @settings(max_examples=300, deadline=None)
    @given(
        edit=st.sampled_from(_EDITS),
        i=st.integers(0, 100),
        j=st.integers(0, 2),
        token=st.sampled_from(_TOKENS),
    )
    def test_edited_record_against_oracle(self, small_export, edit, i, j, token):
        lines = plain_text(small_export.read_bytes()).splitlines()
        path = small_export.with_name("edited.table")
        # edited with every output written out, then re-sealed, so that the
        # edit reaches the record parsers; seal writes a run that still holds
        # every n-bit string in lex order as a dense segment
        records = _edited(full_records(import_table(small_export)).splitlines(), edit, i, j, token)
        path.write_bytes(seal(lines[:5], "\n".join(records) + "\n"))
        _import_like_oracle(path)

    @pytest.mark.parametrize(
        "body, entries",
        [
            pytest.param("", {}, id="header-only"),
            pytest.param(
                "- 100 1/2^3\n01 0001100 1/2^7",
                {"": Entry(3, "100", 1 << 5), "01": Entry(7, "0001100", 1 << 1)},
                id="no-final-newline",
            ),
            pytest.param("- 100 1/2^3\n", {"": Entry(3, "100", 1 << 5)}, id="dash-output"),
            # K is the witness's length, and no program is empty: both parsers reject it
            pytest.param("- - 1/2^0\n", None, id="dash-witness"),
        ],
    )
    def test_edge_files(self, tmp_path, body, entries):
        table = _import_like_oracle(_l8_file(tmp_path, body))
        assert (table.entries if table is not None else None) == entries

    # The unnamed cases are format-1 records, ``output K witness mass``, kept
    # as written before the K column went so that their ids stay; the test
    # drops a numeric K to make the format-2 record. The named cases are
    # format-2 records whose format-1 versions put the fault in K.
    @pytest.mark.parametrize(
        "body, message",
        [
            ("- 3 100 1/2^9\n", "mass out of range"),
            ("- 3 100 0/2^3\n", "mass out of range"),
            ("- 3 100 1/2^3\n- 3 100 1/2^3\n", "duplicate output"),
            pytest.param(
                "- 100 +1/2^3\n", "malformed record: '- 100 \\+1/2\\^3'", id="signed-numerator"
            ),
            ("- 3 100 1/2^3 \n", "malformed record"),
            ("- 3 100 1/2^3\n\n", "malformed record: ''"),
            pytest.param(
                "- 100 " + "9" * 5000 + "/2^3\n", "number too long", id="long-numerator"
            ),
        ],
    )
    def test_rejected_records(self, tmp_path, body, message):
        body = re.sub(r"(?m)^(\S+) [0-9]+ (?=\S+ \S)", r"\1 ", body)
        table = import_table(_l8_file(tmp_path, body))
        with pytest.raises(TableFormatError, match=message):
            table.k_of("")

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_gc_state_is_restored(self, small_export, tmp_path, enabled):
        bad = tmp_path / "bad.table"
        lines = plain_text(small_export.read_bytes()).splitlines()
        bad.write_bytes(seal(lines[:5], full_records(import_table(small_export)) + "0110 5\n"))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            import_table(small_export).entries
            assert gc.isenabled() is enabled
            with pytest.raises(TableFormatError):
                import_table(bad).entries
            assert gc.isenabled() is enabled
            build_table(8)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
