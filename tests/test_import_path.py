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
from algstat.condition import Condition
from algstat.distlang import uniform_condition
from algstat.setlang import Hamming

SRC = Path(__file__).resolve().parents[1] / "src"

# The table core: what ``import algstat.cli`` runs.
CORE = [
    "algstat",
    "algstat._record",
    "algstat.bits",
    "algstat.cache",
    "algstat.cli",
    "algstat.complexity",
    "algstat.condition",
    "algstat.enumeration",
]

# Registered in ``sys.modules`` by the package, run on the first read of a name.
LAZY = [
    "algstat.constants",
    "algstat.distlang",
    "algstat.infolaws",
    "algstat.machine",
    "algstat.models_prob",
    "algstat.models_set",
    "algstat.setlang",
    "algstat.skstats",
]

# The walker: registered like LAZY, run by the first build.
WALKER = ["algstat._pykernel"]

# Imported by no command: kept for the benchmark's import probe.
PROBE_ONLY = ["algstat.kernel"]

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
COND_SET = ["k", "0110", "--cond-set", "ham:4,2"]
# The table-reading queries probed warm, each with its exit code.
PROBED = [
    (["k", "0110"], 0),
    (["k", "1", "--cond", "01"], 0),
    (COND_SET, 0),
    (["mi", "-", "0"], 0),
    (["mi", "0110101", "1"], 1),
    (["sk", "5"], 0),
    (PROBSTAT, 0),
]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache holding the tables the probed commands read, filled by
    running each of them once: ``k`` and ``mi`` read tables cut to the
    strings they look up, which only the command itself names."""
    cache_dir = tmp_path_factory.mktemp("import-path-cache")
    for argv, code in PROBED:
        flags = ["--max-len", "12", "--cache-dir", str(cache_dir)]
        proc = fresh("-m", "algstat.cli", *argv, *flags)
        assert proc.returncode == code, proc.stderr
    return str(cache_dir)


# The warm queries that make a Fraction, and so import fractions.
FRACTION_MAKERS = {"probstat"}


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["k", "0110"], []),
        (["k", "1", "--cond", "01"], []),
        (COND_SET, ["algstat.distlang", "algstat.setlang"]),
        (["mi", "-", "0"], []),
        (["sk", "5"], ["algstat.skstats"]),
        (
            PROBSTAT,
            ["algstat.distlang", "algstat.models_prob", "algstat.models_set", "algstat.setlang"],
        ),
        (["suffstat", "0110"], ["algstat.models_set", "algstat.setlang"]),
    ],
)
def test_commands_run_only_the_modules_they_use(warm_cache, argv, ran):
    """No warm query runs the walker, no query but ``laws`` runs the
    single-program interpreter, and the one-table queries (``k``, ``k
    --cond``, ``mi``, ``sk``) make no Fraction, so they import no fractions
    (nor decimal). ``k --cond-set`` makes its condition from the two
    grammars alone, and its codebook's masses are Fractions. ``suffstat``
    reads set models but makes no condition of one, so it runs no
    ``distlang``."""
    flags = [] if argv[0] == "suffstat" else ["--max-len", "12", "--cache-dir", warm_cache]
    proc = fresh("-c", PROBE, *argv, *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {
        "rc": 0, "ran": ran, "walker": [], "pool": False, "slow": [],
        "hashlib": False, "fractions": argv[0] in FRACTION_MAKERS or argv == COND_SET,
    }


# A warm ``laws`` reads set and distribution models (the standard joints,
# the identity audit's weight classes) and runs programs, but computes no
# structure function or model deficiency.
LAWS_RAN = [
    "algstat.constants",
    "algstat.distlang",
    "algstat.infolaws",
    "algstat.machine",
    "algstat.setlang",
    "algstat.skstats",
]


@pytest.mark.parametrize(
    "argv, ran",
    [
        pytest.param(["laws"], LAWS_RAN, id="laws"),
        pytest.param(
            ["structfn", "0110", "--workers", "2"],
            ["algstat.distlang", "algstat.models_set", "algstat.setlang"],
            id="structfn",
        ),
    ],
)
def test_cold_commands_walk_here_and_load_no_slow_module(tmp_path, argv, ran):
    """A cold ``laws`` and a cold ``structfn`` at ``--workers 2`` run the
    walker and walk every table in this process: no process pool's modules
    load, nor does any SLOW module or hashlib. Warm, they run the same
    modules but the walker. Neither runs ``models_prob``, and ``laws``
    runs no ``models_set`` either."""
    for walker in (WALKER, []):
        proc = fresh("-c", PROBE, *argv, "--cache-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout.splitlines()[-1])
        assert probe == {
            "rc": 0, "ran": ran, "walker": walker, "pool": False, "slow": [],
            "hashlib": False, "fractions": True,
        }


def test_every_module_is_on_one_known_path():
    """Each source file is listed once: in the table core, the lazy
    modules, the walker or the probe-only list. So a new module cannot
    land on the eager path unnoticed, and ``import algstat.cli`` runs the
    table core and nothing else."""
    files = sorted(p.stem for p in (SRC / "algstat").glob("*.py"))
    names = ["algstat" if f == "__init__" else f"algstat.{f}" for f in files]
    listed = CORE + LAZY + WALKER + PROBE_ONLY
    assert sorted(listed) == sorted(names)
    code = (
        "import sys, types, algstat.cli; "
        "print(sorted(n for n, m in sys.modules.items() "
        "if n.split('.')[0] == 'algstat' and type(m) is types.ModuleType))"
    )
    proc = fresh("-c", code)
    assert (proc.returncode, proc.stdout) == (0, f"{sorted(CORE)!r}\n"), proc.stderr


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
from algstat import build_table, condition, export_table, import_table
from algstat.condition import Condition
from algstat.distlang import uniform_condition
from algstat.setlang import Hamming
conds = [Condition.none(), Condition.string("0110"), uniform_condition(Hamming(4, 2))]
path = sys.argv[1]
export_table(build_table(12, conds[1]), path)
assert import_table(path).k_of("0110") is not None
print(json.dumps({
    "module": type(condition.sha256()).__module__,
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


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["k", "012"], "algstat: error: not a bit string: '012'\n"),
        (
            ["mi", "0110101", "1"],
            "algstat: error: 0110101 has no program within the table's cap L=12;"
            " enlarge it (see `algstat enumerate --max-len`)\n",
        ),
    ],
)
def test_error_exit_runs_no_lazy_module(warm_cache, argv, stderr):
    """The CLI's error handler names only table-core classes: the input
    errors of the lazy modules are ValueErrors. So an exit-1 query runs
    no module its command does not."""
    proc = fresh("-c", PROBE, *argv, "--max-len", "12", "--cache-dir", warm_cache)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert (probe["rc"], probe["ran"], probe["walker"]) == (1, [], [])


# Replays a k answer in a fresh interpreter as the benchmark's output check
# does, importing Condition and run from algstat.machine.
REPLAY = """
import sys
from algstat.bits import text_to_bits
from algstat.machine import Condition, run
x, witness, cond = sys.argv[1:]
outcome = run(text_to_bits(witness), Condition.string(text_to_bits(cond)) if cond else None)
print(outcome.halted, outcome.output == text_to_bits(x), type(Condition.none()).__module__)
"""


@pytest.mark.parametrize("x, cond", [("0110", []), ("1", ["--cond", "01"])], ids=["none", "cond"])
def test_machine_replays_a_k_witness(warm_cache, x, cond):
    """``algstat.machine`` still serves the interface names beside ``run``."""
    proc = fresh("-m", "algstat.cli", "k", x, *cond, "--max-len", "12", "--cache-dir", warm_cache)
    assert proc.returncode == 0, proc.stderr
    witness = proc.stdout.split("witness=")[1].strip()
    replay = fresh("-c", REPLAY, x, witness, cond[1] if cond else "")
    assert (replay.returncode, replay.stdout) == (0, "True True algstat.condition\n"), replay.stderr


def test_root_reexports_every_public_name():
    namespace: dict = {}
    exec("from algstat import *", namespace)
    assert set(algstat.__all__) <= set(namespace)
    assert set(algstat.__all__) <= set(dir(algstat))
    for name in algstat.__all__:
        assert getattr(algstat, name) is namespace[name]
    assert algstat.laws_audit is algstat.infolaws.laws_audit
    assert algstat.structfn is sys.modules["algstat.models_set"].structfn
    assert not hasattr(algstat, "no_such_name")
