"""The import path: a one-table command runs only the table core, and the
package root still re-exports every public name."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import algstat
from algstat import build_table, export_table
from algstat.cache import load_or_build
from algstat.machine import Condition
from algstat.models_set import Hamming, uniform_condition

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = [
    "algstat.constants",
    "algstat.infolaws",
    "algstat.models_prob",
    "algstat.models_set",
    "algstat.skstats",
]

# The walker: registered like LAZY, run by the first build.
WALKER = ["algstat._pykernel"]

# Modules that no start-up path may import: ``dataclasses`` generates code
# for every class it decorates, and it pulls in ``inspect``.
SLOW = ["dataclasses", "inspect"]

# Runs one command in a fresh interpreter, checks that it never imported
# ``algstat.kernel`` (no command takes a path into the machine but the
# walker's), then prints which lazy modules and which walker modules have
# run, whether a process pool's modules were imported, which SLOW modules
# were loaded, whether hashlib (which maps OpenSSL) was imported and whether
# fractions was, as the last stdout line.
PROBE = f"""
import json, sys, types
from algstat.cli import main
rc = main(sys.argv[1:])
assert "algstat.kernel" not in sys.modules
ran = [n for n in {LAZY!r} if type(sys.modules[n]) is types.ModuleType]
walker = [n for n in {WALKER!r} if type(sys.modules[n]) is types.ModuleType]
slow = [n for n in {SLOW!r} if n in sys.modules]
pool = any(n in sys.modules for n in ("concurrent.futures.process", "multiprocessing"))
hashlib = any(n in sys.modules for n in ("hashlib", "_hashlib"))
fractions = "fractions" in sys.modules
print(json.dumps({{"rc": rc, "ran": ran, "walker": walker, "pool": pool, "slow": slow,
                  "hashlib": hashlib, "fractions": fractions}}))
"""


def fresh(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


PROBSTAT = ["probstat", "0110", "bern:4,1/4"]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache holding the tables the probed commands read."""
    cache_dir = tmp_path_factory.mktemp("import-path-cache")
    for cond in (None, Condition.string("01")):
        load_or_build(12, cond, cache_dir=cache_dir)
    proc = fresh("-m", "algstat.cli", *PROBSTAT, "--max-len", "12", "--cache-dir", str(cache_dir))
    assert proc.returncode == 0, proc.stderr
    return str(cache_dir)


# The warm queries that make a Fraction, and so import fractions.
FRACTION_MAKERS = {"sk", "probstat"}


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["k", "0110"], []),
        (["k", "1", "--cond", "01"], []),
        (["mi", "-", "0"], []),
        (["sk", "5"], ["algstat.skstats"]),
        (PROBSTAT, ["algstat.models_prob", "algstat.models_set"]),
        (["suffstat", "0110"], ["algstat.models_set"]),
    ],
)
def test_commands_run_only_the_modules_they_use(warm_cache, argv, ran):
    """No warm query runs the walker, and the one-table queries (``k``,
    ``k --cond``, ``mi``) make no Fraction, so they import no fractions
    (nor decimal)."""
    flags = [] if argv[0] == "suffstat" else ["--max-len", "12", "--cache-dir", warm_cache]
    proc = fresh("-c", PROBE, *argv, *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {
        "rc": 0, "ran": ran, "walker": [], "pool": False, "slow": [],
        "hashlib": False, "fractions": argv[0] in FRACTION_MAKERS,
    }


@pytest.mark.parametrize(
    "argv, ran",
    [
        pytest.param(["laws"], LAZY, id="laws"),
        pytest.param(
            ["structfn", "0110", "--workers", "2"],
            ["algstat.models_prob", "algstat.models_set"],
            id="structfn",
        ),
    ],
)
def test_cold_commands_walk_here_and_load_no_slow_module(tmp_path, argv, ran):
    """A cold ``laws`` runs every analysis module, and it and a cold
    ``structfn`` at ``--workers 2`` run the walker and walk every table in
    this process: no process pool's modules load, nor does any SLOW module
    or hashlib."""
    proc = fresh("-c", PROBE, *argv, "--cache-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {
        "rc": 0, "ran": ran, "walker": WALKER, "pool": False, "slow": [],
        "hashlib": False, "fractions": True,
    }


@pytest.mark.parametrize("module", ["algstat", "algstat.cli"])
def test_import_loads_no_slow_module(module):
    proc = fresh("-c", f"import sys, {module}; print([n for n in {SLOW!r} if n in sys.modules])")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("module", ["algstat.cli", "algstat.machine"])
def test_import_takes_no_digest(module):
    """Importing the package loads no hash module, built-in or hashlib;
    the first digest taken does."""
    hashes = ("_sha2", "_sha256", "hashlib", "_hashlib")
    proc = fresh("-c", f"import sys, {module}; print([n for n in {hashes!r} if n in sys.modules])")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# Takes every kind of digest in a fresh interpreter where CPython's built-in
# SHA-256 modules cannot be imported, and prints the constructor's module,
# the three kinds of condition fingerprint and the hex of an exported table.
FALLBACK_PROBE = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from algstat import build_table, export_table, import_table, machine
from algstat.machine import Condition
from algstat.models_set import Hamming, uniform_condition
conds = [Condition.none(), Condition.string("0110"), uniform_condition(Hamming(4, 2))]
path = sys.argv[1]
export_table(build_table(12, conds[1]), path)
assert import_table(path).k_of("0110") is not None
print(json.dumps({
    "module": type(machine.sha256()).__module__,
    "fingerprints": [c.fingerprint() for c in conds],
    "table": open(path, "rb").read().hex(),
}))
"""


def test_hashlib_fallback_gives_the_same_digests(tmp_path):
    proc = fresh("-c", FALLBACK_PROBE, str(tmp_path / "fallback.table"))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["module"] in ("_hashlib", "hashlib")
    conds = [Condition.none(), Condition.string("0110"), uniform_condition(Hamming(4, 2))]
    assert probe["fingerprints"] == [c.fingerprint() for c in conds]
    # fixed digests: every cache file name and seal depends on them
    assert probe["fingerprints"][0] == (
        "140bedbf9c3f6d56a9846d2ba7088798683f4da0c248231336e6a05679e4fdfe"
    )
    here = tmp_path / "here.table"
    export_table(build_table(12, conds[1]), here)
    assert bytes.fromhex(probe["table"]) == here.read_bytes()


def test_error_path_loads_the_exceptions_it_names(warm_cache):
    proc = fresh("-m", "algstat.cli", "k", "012", "--max-len", "12", "--cache-dir", warm_cache)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "algstat: error: not a bit string: '012'\n"


def test_root_reexports_every_public_name():
    namespace: dict = {}
    exec("from algstat import *", namespace)
    assert set(algstat.__all__) <= set(namespace)
    assert set(algstat.__all__) <= set(dir(algstat))
    for name in algstat.__all__:
        assert getattr(algstat, name) is namespace[name]
    assert algstat.laws_audit is algstat.infolaws.laws_audit
    assert algstat.ModelOpts is sys.modules["algstat.models_set"].ModelOpts
    assert not hasattr(algstat, "no_such_name")
