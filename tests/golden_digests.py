"""The recorded digests of the golden gates, and the script that re-records
them. ``tests/test_golden.py`` checks both files.

``structfn_long.json`` holds the sha256 of ``algstat structfn X`` stdout for
every string of ``SAMPLE``: every 64th 10-bit string and two 12-bit ones,
lengths that the 8-bit digests of ``perfbench/expected.json`` do not reach.

``model_grid.json`` holds, for every command of ``MODEL_GRID``, the sha256 of
its stdout, or its error line when it exits 1: ``probstat`` over uniform,
Bernoulli, table, list and union distributions, ``suffstat`` at three betas
and ``bernoulli`` at three lengths.

Run from the repository root to print each key with its recorded and its
current digest; ``--write`` records the current ones::

    PYTHONPATH=src python tests/golden_digests.py [--write]

A change that re-records says in CHANGES.md which digests changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
STRUCTFN_RECORD = HERE / "structfn_long.json"
GRID_RECORD = HERE / "model_grid.json"
SAMPLE = [format(v, "010b") for v in range(0, 1 << 10, 64)] + ["011010011001", "000000111111"]


def _model_grid() -> list[str]:
    """The model commands, each a space-separated argv."""
    strings = [format(v, f"0{n}b") for n in (2, 4, 6) for v in range(1 << n)]
    grid = []
    for x in strings:
        n, ones = len(x), x.count("1")
        for dist in (
            f"bern:{n},1/4",
            f"bern:{n},1/2",
            f"bern:{n},2/3",
            f"unif(all:{n})",
            f"unif(ham:{n},{ones})",
            f"unif(cyl:{x[0]}/{n})",
        ):
            grid.append(f"probstat {x} {dist}")
    for dist in (
        "table{0:1/3,1:1/3,00:1/6,0110:1/8}",
        "unif(list{0,1,0110,111})",
        "unif(union(cyl:0/4,ham:4,2))",
    ):
        grid.extend(f"probstat {x} {dist}" for x in ("0110", "1", "00", "0101"))
    grid.extend(f"suffstat {x} --beta {beta}" for x in strings for beta in (0, 2, 5))
    grid.extend(f"bernoulli {n}" for n in (4, 6, 8))
    return grid


MODEL_GRID = _model_grid()


def run_digest(argv: list[str]) -> str:
    """The sha256 of the stdout of ``algstat ARGV``, read through
    ``cli.main``, or ``exit 1: `` and its error line when it exits 1."""
    from algstat.cli import EXIT_OK, EXIT_USAGE, main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_USAGE and out.getvalue() == "":
        return f"exit 1: {err.getvalue().rstrip()}"
    if code != EXIT_OK:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue()}")
    return hashlib.sha256(out.getvalue().encode("ascii")).hexdigest()


def structfn_digest(x: str, cache_dir: str) -> str:
    return run_digest(["structfn", x, "--cache-dir", cache_dir])


def model_digest(command: str, cache_dir: str) -> str:
    argv = command.split(" ")
    # suffstat reads no table, so it takes no cache flag
    return run_digest(argv if argv[0] == "suffstat" else [*argv, "--cache-dir", cache_dir])


def recorded(path: Path) -> dict[str, str]:
    return json.loads(path.read_text(encoding="ascii")) if path.exists() else {}


GATES = [
    (STRUCTFN_RECORD, SAMPLE, structfn_digest),
    (GRID_RECORD, MODEL_GRID, model_digest),
]


def main(argv: list[str]) -> int:
    same = True
    with tempfile.TemporaryDirectory() as cache_dir:
        for path, keys, digest in GATES:
            old = recorded(path)
            new = {}
            for key in keys:
                new[key] = digest(key, cache_dir)
                mark = "" if old.get(key) == new[key] else "  CHANGED"
                print(f"{key} {old.get(key, '-')} {new[key]}{mark}")
            same = same and old == new
            if "--write" in argv:
                path.write_text(json.dumps(new, indent=1) + "\n", encoding="ascii")
                print(f"wrote {path.name}")
    return 0 if "--write" in argv or same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
