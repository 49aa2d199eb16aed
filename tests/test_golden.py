"""The byte-identity gates: every recorded ``structfn`` digest, every
recorded digest of the model-command grid and every ``$ algstat`` sample
in README.md, run through ``cli.main`` on a temporary cache.

README samples follow one rule for elisions: a line that is ``...`` matches
any run of lines, none included, and a token (a run of characters between
single spaces) that ends in ``...`` matches any token it is a prefix of."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from algstat.cache import ENV_CACHE_DIR
from algstat.cli import EXIT_OK, main
from golden_digests import (
    GRID_RECORD,
    MODEL_GRID,
    SAMPLE,
    STRUCTFN_RECORD,
    model_digest,
    recorded,
    structfn_digest,
)

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="ascii"))
RECORDED = recorded(STRUCTFN_RECORD)
GRID = recorded(GRID_RECORD)


@pytest.fixture(scope="module")
def golden_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("x", sorted(EXPECTED["structfn"]))
def test_structfn_matches_the_benchmark_digest(x, golden_cache):
    assert structfn_digest(x, golden_cache) == EXPECTED["structfn"][x]


def test_long_sample_is_recorded_whole():
    assert sorted(RECORDED) == sorted(SAMPLE)


@pytest.mark.parametrize("x", SAMPLE)
def test_structfn_matches_the_long_sample_digest(x, golden_cache):
    """Lengths 10 and 12, past the 8 bits of the benchmark's digests; to
    re-record, see ``tests/golden_digests.py``."""
    assert structfn_digest(x, golden_cache) == RECORDED[x]


def test_model_grid_is_recorded_whole():
    assert sorted(GRID) == sorted(MODEL_GRID)


def test_model_commands_match_the_recorded_grid(golden_cache):
    """``probstat``, ``suffstat`` and ``bernoulli`` over the grid of
    ``tests/golden_digests.py``: each stdout, or error line, as recorded."""
    wrong = {}
    for command in MODEL_GRID:
        digest = model_digest(command, golden_cache)
        if digest != GRID[command]:
            wrong[command] = (GRID[command], digest)
    assert wrong == {}


# -- README samples -------------------------------------------------------------


def readme_samples(text: str) -> list[tuple[str, list[str]]]:
    """(command, output lines) of every ``$ `` line in the ``text`` code
    blocks of ``text``, in order. A sample's output runs to the next ``$ ``
    line or the end of its block, less trailing blank lines."""
    samples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"^```text\n(.*?)^```$", text, re.M | re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                samples.append((line[2:], []))
            elif samples:
                samples[-1][1].append(line)
    return [(command, "\n".join(out).rstrip("\n").split("\n")) for command, out in samples]


def elided(lines: list[str]) -> re.Pattern:
    """The pattern of the stdout that ``lines`` show, under the elision rule
    of the module docstring."""
    parts = []
    for line in lines:
        if line == "...":
            parts.append(r"(?:.*\n)*?")
            continue
        tokens = [
            re.escape(t[:-3]) + r"\S*" if t.endswith("...") else re.escape(t)
            for t in line.split(" ")
        ]
        parts.append(" ".join(tokens) + r"\n")
    return re.compile("".join(parts))


@pytest.mark.parametrize(
    "lines, out, matches",
    [
        (["a", "...", "d"], "a\nb\nc\nd\n", True),
        (["a", "...", "b"], "a\nb\n", True),
        (["a", "..."], "a\n", True),
        (["a", "...", "d"], "a\nb\nc\n", False),
        (["x=12... y"], "x=1234 y\n", True),
        (["x=12... y"], "x=1234 z\n", False),
        (["x=12... y"], "x=13 y\n", False),
        (["a b"], "a  b\n", False),
        (["a"], "a\nb\n", False),
    ],
)
def test_elision_rule(lines, out, matches):
    assert bool(elided(lines).fullmatch(out)) == matches


def test_readme_samples_print_what_readme_shows(tmp_path, monkeypatch):
    """Run in README order on one cache, as a reader who types them would:
    ``cat FILE`` writes the lines it shows, and ``algstat ...`` must exit 0
    and print what the sample shows."""
    samples = readme_samples((ROOT / "README.md").read_text(encoding="utf-8"))
    assert sum(command.startswith("algstat ") for command, _ in samples) == 12
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "cache"))
    wrong = []
    for command, lines in samples:
        argv = shlex.split(command)
        if argv[0] == "cat":
            [name] = argv[1:]
            Path(name).write_text("".join(line + "\n" for line in lines), encoding="ascii")
            continue
        assert argv[0] == "algstat", command
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv[1:])
        if code != EXIT_OK or not elided(lines).fullmatch(out.getvalue()):
            wrong.append((command, code, out.getvalue()))
    assert wrong == []
