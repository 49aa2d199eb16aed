#!/usr/bin/env python3
"""End-to-end benchmark of the `algstat` command line.

    python3 perfbench/run.py --workload {laws,structfn,queries} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it needs nothing beyond the standard
library and the sources under src/. Every CLI call is a child process
started from this one driver process, one at a time, with PYTHONPATH=src,
ALGSTAT_KERNEL=py and a fresh private cache given through both --cache-dir
and ALGSTAT_CACHE_DIR, so the user's cache is never read or written.

A repetition runs the workload's calls once on an empty cache (the cold
pass) and once more on the cache that pass filled (the warm pass). There
are at least two repetitions, and more start until --seconds have passed.
Each call's output is checked (see workloads.check_output); a call that
exits non-zero or fails a check counts as failed.

--trace 0 prints the end-to-end metrics: cold_s and warm_s (median wall
seconds of a pass), setup_s (median wall seconds of a fresh interpreter
importing algstat.cli), peak_rss_mb (largest ru_maxrss of any CLI child)
and cache_mb (bytes in the cache after the cold pass).

--trace 1 measures untraced repetitions as above, then runs one more
repetition through trace_child.py and prints the per-layer metrics of
layers.py, with the traced wall time minus the untraced median as
trace.overhead_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (every sample, per-call
latency percentiles, the machine) is written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
MIN_REPS = 2  # so that cold_s and warm_s are never a single sample
_IMPORT_PROBE = (
    "import json, algstat.cli, algstat.kernel as k; "
    "print(json.dumps({'backend': k.backend_name(), 'file': algstat.cli.__file__}))"
)


@dataclass
class Call:
    argv: list[str]
    wall_s: float
    cpu_s: float  # user + system seconds of the child and the children it waited for
    rc: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    record: dict | None = None  # spans of a traced call
    failed: bool = False


@dataclass
class Rep:
    cold: list[Call]
    warm: list[Call]
    cache_bytes: int
    cache_files: int

    @property
    def cold_s(self) -> float:
        return sum(c.wall_s for c in self.cold)

    @property
    def warm_s(self) -> float:
        return sum(c.wall_s for c in self.warm)

    @property
    def cold_cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.cold)

    @property
    def warm_cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.warm)


@dataclass
class Runner:
    work: Path
    calls: list[Call] = field(default_factory=list)  # every CLI call made
    failures: list[str] = field(default_factory=list)
    peak_rss_kb: int = 0
    _n: int = 0

    def _path(self, suffix: str) -> Path:
        self._n += 1
        return self.work / f"{self._n}.{suffix}"

    def spawn(self, cmd: list[str], env: dict) -> Call:
        """Run one child to completion; its rusage comes from os.wait4."""
        out_path, err_path = self._path("out"), self._path("err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            # A session of its own, so that an interrupted run can stop the
            # child together with any pool workers it started.
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, start_new_session=True)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(cmd, wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                    out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss)
        out_path.unlink()
        err_path.unlink()
        return call

    def cli(self, argv: list[str], cache: Path, traced: bool = False) -> Call:
        env = dict(os.environ, PYTHONPATH=str(SRC), ALGSTAT_KERNEL="py",
                   ALGSTAT_CACHE_DIR=str(cache))
        full = argv if argv[0] == "suffstat" else [*argv, "--cache-dir", str(cache)]
        if traced:
            spans = self._path("json")
            call = self.spawn([sys.executable, str(HERE / "trace_child.py"), str(spans), *full], env)
            if spans.exists():
                call.record = json.loads(spans.read_text(encoding="ascii"))
                call.record["command"] = argv[0]
                spans.unlink()
        else:
            call = self.spawn([sys.executable, "-m", "algstat.cli", *full], env)
            self.peak_rss_kb = max(self.peak_rss_kb, call.maxrss_kb)
        call.argv = argv
        self.calls.append(call)
        return call

    def fail(self, call: Call, why: str) -> None:
        tail = call.stderr.decode("ascii", "replace").strip().splitlines()[-1:]
        self.failures.append(f"{' '.join(call.argv)}: {why}" + (f" ({tail[0]})" if tail else ""))
        call.failed = True

    def rep(self, wl: workloads.Workload, traced: bool = False) -> Rep:
        cache = self._path("cache")
        cache.mkdir()
        cold = [self.cli(argv, cache, traced) for argv in wl.calls]
        files = [p for p in cache.iterdir() if p.is_file()]
        cache_bytes = sum(p.stat().st_size for p in files)
        warm = [self.cli(argv, cache, traced) for argv in wl.calls]
        shutil.rmtree(cache)
        for c, w in zip(cold, warm):
            digest = wl.digest.get(" ".join(c.argv))
            for call in (c, w):
                if call.rc != 0:
                    self.fail(call, f"exit status {call.rc}")
                    continue
                if traced and call.record is None:
                    self.fail(call, "the traced child wrote no spans")
                    continue
                why = workloads.check_output(call.argv, call.stdout, digest)
                if why:
                    self.fail(call, why)
            if c.rc == 0 and w.rc == 0 and c.stdout != w.stdout:
                self.fail(w, "warm stdout differs from cold stdout")
        return Rep(cold, warm, cache_bytes, len(files))


def setup(runner: Runner) -> tuple[list[float], dict]:
    """Time fresh interpreters importing algstat.cli; the first one, which
    may compile bytecode, is not timed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), ALGSTAT_KERNEL="py")
    times, probe = [], {}
    for i in range(SETUP_REPEATS + 1):
        call = runner.spawn([sys.executable, "-c", _IMPORT_PROBE], env)
        if call.rc != 0:
            raise RuntimeError(f"importing algstat.cli failed: {call.stderr.decode()[-500:]}")
        probe = json.loads(call.stdout)
        if i:
            times.append(call.wall_s)
    return times, probe


def summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            break
    return out


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs. Steal is time the hypervisor gave
    to other guests; it inflates wall times without showing in load."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="ascii").strip() if target.is_file() else ref
    return ref


def measure(runner: Runner, wl: workloads.Workload, seconds: float) -> list[Rep]:
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(runner.rep(wl))
    return reps


def _pool_note(wl: workloads.Workload) -> str | None:
    for argv in wl.calls:
        if "--workers" in argv and argv[argv.index("--workers") + 1] != "1":
            return ("kernel.walk spans in pool worker processes are not recorded; "
                    "enumeration.build_self_s includes the walks done there")
    return None


def run(wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result line and the full record."""
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work)
    load_before, ticks_before = os.getloadavg(), cpu_ticks()
    try:
        setup_times, probe = setup(runner)
        reps = measure(runner, wl, seconds)
        traced = runner.rep(wl, traced=True) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after, ticks_after = os.getloadavg(), cpu_ticks()
    steal_frac = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal_frac = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])

    flags = []
    if probe["backend"] != "py":
        flags.append(f"kernel backend is {probe['backend']!r}, not the pure-Python 'py'")
    if not Path(probe["file"]).resolve().is_relative_to(SRC.resolve()):
        flags.append(f"algstat was imported from {probe['file']}, not from {SRC}")

    if traced is None:
        metrics = {
            "cold_s": (statistics.median(r.cold_s for r in reps), "s"),
            "warm_s": (statistics.median(r.warm_s for r in reps), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (runner.peak_rss_kb * 1024 / 1e6, "MB"),
            "cache_mb": (statistics.median(r.cache_bytes for r in reps) / 1e6, "MB"),
        }
    else:
        records = [[c.record for c in calls if c.record] for calls in (traced.cold, traced.warm)]
        for pass_index, why in layers.cross_check(*records, files_written=traced.cache_files):
            runner.fail((traced.cold, traced.warm)[pass_index][-1], why)
        untraced = statistics.median(r.cold_s + r.warm_s for r in reps)
        overhead = traced.cold_s + traced.warm_s - untraced
        metrics = {
            name: (value, layers.METRICS[name][0])
            for name, value in layers.layer_metrics(*records, overhead).items()
        }

    failed = sum(c.failed for c in runner.calls)
    line = {
        "correct": failed == 0 and not flags,
        "attempted": len(runner.calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "calls": wl.calls,
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
            "cpu_steal_frac": steal_frac,
            "git_commit": git_commit(),
            "backend": probe["backend"],
            "algstat_file": probe["file"],
        },
        "setup_s": setup_times,
        "cold_s": [r.cold_s for r in reps],
        "warm_s": [r.warm_s for r in reps],
        "cold_cpu_s": [r.cold_cpu_s for r in reps],
        "warm_cpu_s": [r.warm_cpu_s for r in reps],
        "cache_bytes": [r.cache_bytes for r in reps],
        "cache_files": [r.cache_files for r in reps],
        "cold_call_s": summary([c.wall_s for r in reps for c in r.cold]),
        "warm_call_s": summary([c.wall_s for r in reps for c in r.warm]),
        "fail_frac": failed / len(runner.calls),
        "failures": runner.failures,
        "flags": flags,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if traced is not None:
        detail["traced_wall_s"] = traced.cold_s + traced.warm_s
        detail["note"] = _pool_note(wl)
    return line, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so that the running
    # child is stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "algstat" / "cli.py").is_file():
        print(f"perfbench: no algstat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the replay checks in workloads.py
    wl = workloads.BUILDERS[args.workload](args.seed)
    line, detail = run(wl, args.seed, args.seconds, bool(args.trace))

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="ascii")
    for failure in detail["failures"] + detail["flags"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if detail.get("note"):
        print(f"perfbench: note: {detail['note']}", file=sys.stderr)
    print(f"perfbench: {len(detail['cold_s'])} repetitions; detail in {path}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
