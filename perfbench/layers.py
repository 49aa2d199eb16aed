"""Per-layer metrics and cross-checks derived from the traced passes.

Each traced call leaves a record ``{"import_s", "main_s", "rc", "spans"}``
(see trace_child.py). A span is ``[name, start, end, parent, attrs]``; its
self time is its duration minus the durations of its direct child spans,
which never overlap because every call runs on one thread. Every ``_s``
metric is the total over the cold and the warm pass, except ``cli.import_s``,
the median import time of one interpreter. A layer that a workload never
calls reads 0.
"""

from __future__ import annotations

import statistics

KINDS = ("none", "str", "model")
COMMANDS = ("laws", "structfn", "k", "mi", "probstat", "sk", "suffstat")
# Spans whose total and self time are reported as "<layer>.<function>_s" and
# "<layer>.<function>_self_s".
SELF_TIMED = (
    "complexity.soi_audit",
    "infolaws.nonincrease_audit",
    "infolaws.expected_mi_audit",
    "infolaws.theta_suff_audit",
    "infolaws.suff_identity_audit",
    "models_set.structfn",
)
TIMED = (
    "skstats.xr_bound_check",
    "skstats.slice_bound_check",
    "skstats.logn_gap",
    "skstats.sk_csv",
    "infolaws.laws_audit",
    "models_set.enumerate_models",
    "models_prob.deficiency_p",
    "models_prob.suffstat_p",
)

# name -> (unit, better); the order is the order BENCHMARK.json lists them in.
METRICS: dict[str, tuple[str, str]] = {}
for _kind in KINDS:
    METRICS[f"kernel.walk_s.{_kind}"] = ("s", "lower")
    METRICS[f"kernel.programs.{_kind}"] = ("count", "lower")
    METRICS[f"kernel.programs_per_s.{_kind}"] = ("1/s", "higher")
METRICS.update({
    "enumeration.build_calls": ("count", "lower"),
    "enumeration.build_s": ("s", "lower"),
    "enumeration.build_self_s": ("s", "lower"),
    "enumeration.export_s": ("s", "lower"),
    "enumeration.export_mb_per_s": ("MB/s", "higher"),
    "enumeration.import_s": ("s", "lower"),
    "enumeration.import_mb_per_s": ("MB/s", "higher"),
    "enumeration.import_over_rebuild": ("ratio", "lower"),
    "cache.lookups": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.bytes_written": ("B", "lower"),
    "cache.bytes_read": ("B", "lower"),
    "skstats.outputs": ("count", "lower"),
})
for _name in TIMED:
    METRICS[f"{_name}_s"] = ("s", "lower")
for _name in SELF_TIMED:
    METRICS[f"{_name}_s"] = ("s", "lower")
    METRICS[f"{_name}_self_s"] = ("s", "lower")
METRICS.update({
    "models_set.models": ("count", "lower"),
    "models_set.deficiency_calls": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
})
for _cmd in COMMANDS:
    METRICS[f"cli.main_s.{_cmd}"] = ("s", "lower")
METRICS["trace.overhead_s"] = ("s", "lower")


class _Spans:
    """Totals over the spans of a set of traced calls."""

    def __init__(self, records: list[dict]):
        self.spans = []  # (name, seconds, self seconds, attrs)
        for rec in records:
            spans = rec["spans"]
            child_s = [0.0] * len(spans)
            for name, start, end, parent, attrs in spans:
                if parent >= 0:
                    child_s[parent] += end - start
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                self.spans.append((name, end - start, end - start - child_s[i], attrs))

    def select(self, name: str, **attrs) -> list[tuple]:
        return [
            s for s in self.spans
            if s[0] == name and all(s[3].get(k) == v for k, v in attrs.items())
        ]

    def total(self, name: str, **attrs) -> float:
        return sum(s[1] for s in self.select(name, **attrs))

    def self_total(self, name: str) -> float:
        return sum(s[2] for s in self.select(name))

    def count(self, name: str, **attrs) -> int:
        return len(self.select(name, **attrs))

    def attr_sum(self, name: str, attr: str, **attrs) -> int:
        return sum(s[3][attr] for s in self.select(name, **attrs))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cache_counts(records: list[dict]) -> dict[str, int]:
    """lookups, hits and misses over some traced calls. A miss is a lookup
    that built a table; a hit is one that returned an existing table. The
    two are read from different facts so that their sum checks the count."""
    sp = _Spans(records)
    return {
        "lookups": sp.count("cache.load_or_build"),
        "hits": sp.count("cache.load_or_build", built=False),
        "misses": sp.count("enumeration.build_table"),
    }


def cross_check(cold: list[dict], warm: list[dict], files_written: int) -> list[tuple[int, str]]:
    """The cache and span invariants of one cold/warm pair of traced passes,
    as (0 for the cold pass or 1 for the warm one, what is wrong)."""
    problems = []
    c, w = cache_counts(cold), cache_counts(warm)
    if c["misses"] != files_written:
        problems.append((0, f"{c['misses']} cache misses but {files_written} files written"))
    if w["misses"] != 0:
        problems.append((1, f"{w['misses']} cache misses on the warm pass"))
    for index, counts in enumerate((c, w)):
        if counts["hits"] + counts["misses"] != counts["lookups"]:
            problems.append((index, f"cache hits + misses != lookups: {counts}"))
    return problems


def layer_metrics(cold: list[dict], warm: list[dict], overhead_s: float) -> dict[str, float]:
    both = _Spans(cold + warm)
    out: dict[str, float] = {}
    for kind in KINDS:
        walk_s = both.total("kernel.walk", kind=kind)
        programs = both.attr_sum("enumeration.build_table", "programs", kind=kind)
        out[f"kernel.walk_s.{kind}"] = walk_s
        out[f"kernel.programs.{kind}"] = programs
        out[f"kernel.programs_per_s.{kind}"] = _ratio(programs, walk_s)

    export_s = both.total("enumeration.export_table")
    import_s = both.total("enumeration.import_table")
    written = both.attr_sum("enumeration.export_table", "bytes")
    read = both.attr_sum("enumeration.import_table", "bytes")
    out["enumeration.build_calls"] = both.count("enumeration.build_table")
    out["enumeration.build_s"] = both.total("enumeration.build_table")
    out["enumeration.build_self_s"] = both.self_total("enumeration.build_table")
    out["enumeration.export_s"] = export_s
    out["enumeration.export_mb_per_s"] = _ratio(written / 1e6, export_s)
    out["enumeration.import_s"] = import_s
    out["enumeration.import_mb_per_s"] = _ratio(read / 1e6, import_s)
    # Seconds per byte of importing a table (warm pass) over seconds per byte
    # of building it (cold pass): the warm pass reads the files the cold pass
    # wrote, some of them more than once.
    cold_sp, warm_sp = _Spans(cold), _Spans(warm)
    out["enumeration.import_over_rebuild"] = _ratio(
        _ratio(warm_sp.total("enumeration.import_table"), warm_sp.attr_sum("enumeration.import_table", "bytes")),
        _ratio(cold_sp.total("enumeration.build_table"), cold_sp.attr_sum("enumeration.export_table", "bytes")),
    )

    counts = cache_counts(cold + warm)
    out["cache.lookups"] = counts["lookups"]
    out["cache.hits"] = counts["hits"]
    out["cache.misses"] = counts["misses"]
    out["cache.hit_ratio"] = _ratio(counts["hits"], counts["lookups"])
    out["cache.bytes_written"] = written
    out["cache.bytes_read"] = read

    out["skstats.outputs"] = sum(
        both.attr_sum(name, "outputs") for name in TIMED if name.startswith("skstats.")
    )
    for name in TIMED:
        out[f"{name}_s"] = both.total(name)
    for name in SELF_TIMED:
        out[f"{name}_s"] = both.total(name)
        out[f"{name}_self_s"] = both.self_total(name)
    out["models_set.models"] = both.attr_sum("models_set.enumerate_models", "models")
    out["models_set.deficiency_calls"] = both.count("models_set.deficiency")

    out["cli.import_s"] = statistics.median(r["import_s"] for r in cold + warm)
    for cmd in COMMANDS:
        out[f"cli.main_s.{cmd}"] = sum(r["main_s"] for r in cold + warm if r["command"] == cmd)
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in METRICS}
