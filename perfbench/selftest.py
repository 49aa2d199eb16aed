#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks that an untraced and a traced run emit exactly the metrics
BENCHMARK.json names, that every output check passes on correct output,
that a wrong recorded digest is counted as a failed call, and that the
benchmark exits non-zero without a result where there are no sources.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
TINY = [
    ["structfn", "0110", "--max-len", "12", "--alpha-max", "13"],
    ["k", "0110", "--max-len", "12"],
    ["k", "01", "--cond", "11", "--max-len", "12"],
    ["mi", "0", "00"],
    ["suffstat", "0101"],
]


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    wl = workloads.Workload("tiny", TINY)
    line, detail = run.run(wl, seed=0, seconds=0, trace=False)
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    names = [m["name"] for m in BENCH["end_to_end"]]
    check(sorted(line["metrics"]) == sorted(names), "every end_to_end metric is emitted")
    check(all(line["metrics"][n]["value"] > 0 for n in names), "no end_to_end metric is 0")
    check(line["correct"] and line["failed"] == 0, f"correct output passes {detail['failures']}")

    line, detail = run.run(wl, seed=0, seconds=0, trace=True)
    names = [m["name"] for m in BENCH["per_layer"]]
    check(sorted(line["metrics"]) == sorted(names), "every per_layer metric is emitted")
    check(line["correct"], f"traced run passes its cross-checks {detail['failures']}")
    check(line["metrics"]["enumeration.build_calls"]["value"] > 0, "the traced run sees builds")

    wrong = workloads.Workload("tiny", TINY[:1], {" ".join(TINY[0]): "0" * 64})
    line, detail = run.run(wrong, seed=0, seconds=0, trace=False)
    check(not line["correct"] and line["failed"] == line["attempted"] == 2 * run.MIN_REPS
          and detail["fail_frac"] == 1.0, "a wrong digest fails every cold and warm call")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "laws", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "no sources: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
