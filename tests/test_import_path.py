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
from algstat.cache import load_or_build
from algstat.machine import Condition

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = [
    "algstat.constants",
    "algstat.infolaws",
    "algstat.models_prob",
    "algstat.models_set",
    "algstat.skstats",
]

# Modules that no start-up path may import: ``dataclasses`` generates code
# for every class it decorates, and it pulls in ``inspect``.
SLOW = ["dataclasses", "inspect"]

# Runs one command in a fresh interpreter, then prints which lazy modules
# have run, whether a process pool's modules were imported, which SLOW
# modules were loaded and whether the kernel's state walk was, as the last
# stdout line.
PROBE = f"""
import json, sys, types
from algstat.cli import main
rc = main(sys.argv[1:])
ran = [n for n in {LAZY!r} if type(sys.modules[n]) is types.ModuleType]
slow = [n for n in {SLOW!r} if n in sys.modules]
pool = any(n in sys.modules for n in ("concurrent.futures.process", "multiprocessing"))
walked = "algstat._statewalk" in sys.modules
print(json.dumps({{"rc": rc, "ran": ran, "pool": pool, "slow": slow, "walked": walked}}))
"""


def fresh(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache holding the tables the probed commands read."""
    cache_dir = tmp_path_factory.mktemp("import-path-cache")
    for cond in (None, Condition.string("01")):
        load_or_build(12, cond, cache_dir=cache_dir)
    return str(cache_dir)


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["k", "0110"], []),
        (["k", "1", "--cond", "01"], []),
        (["mi", "-", "0"], []),
        (["sk", "5"], ["algstat.skstats"]),
    ],
)
def test_commands_run_only_the_modules_they_use(warm_cache, argv, ran):
    proc = fresh("-c", PROBE, *argv, "--max-len", "12", "--cache-dir", warm_cache)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {"rc": 0, "ran": ran, "pool": False, "slow": [], "walked": False}


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
    ``structfn`` at ``--workers 2`` walk every table in this process: no
    process pool's modules load, nor does any SLOW module."""
    proc = fresh("-c", PROBE, *argv, "--cache-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {"rc": 0, "ran": ran, "pool": False, "slow": [], "walked": True}


@pytest.mark.parametrize("module", ["algstat", "algstat.cli"])
def test_import_loads_no_slow_module(module):
    proc = fresh("-c", f"import sys, {module}; print([n for n in {SLOW!r} if n in sys.modules])")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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
