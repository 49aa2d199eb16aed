"""Run one `algstat` command in-process with a span around every call into
the public functions each layer exposes.

    python3 perfbench/trace_child.py SPANS.json ARGV...

The CLI output goes to stdout as usual. The spans stay in memory until the
command returns and are then written to SPANS.json together with the import
time and the exit code. The wrappers replace the functions at every module
attribute that holds them, so calls made through a name imported into
another module (``cli.load_or_build``, ``cache.build_table``, ...) are seen
too. Spans opened in worker processes of the intra-table pool are not
recorded: those processes are forked and their memory is lost with them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, function). The span is named "<layer>.<function>", where the layer
# is the module name without the package, and "kernel" for the pure-Python
# kernel that ALGSTAT_KERNEL=py selects.
TARGETS = [
    ("algstat._pykernel", "walk"),
    ("algstat.enumeration", "build_table"),
    ("algstat.enumeration", "export_table"),
    ("algstat.enumeration", "import_table"),
    ("algstat.cache", "load_or_build"),
    ("algstat.skstats", "xr_bound_check"),
    ("algstat.skstats", "slice_bound_check"),
    ("algstat.skstats", "logn_gap"),
    ("algstat.skstats", "sk_csv"),
    ("algstat.complexity", "soi_audit"),
    ("algstat.infolaws", "laws_audit"),
    ("algstat.infolaws", "nonincrease_audit"),
    ("algstat.infolaws", "expected_mi_audit"),
    ("algstat.infolaws", "theta_suff_audit"),
    ("algstat.infolaws", "suff_identity_audit"),
    ("algstat.models_set", "structfn"),
    ("algstat.models_set", "enumerate_models"),
    ("algstat.models_set", "deficiency"),
    ("algstat.models_prob", "deficiency_p"),
    ("algstat.models_prob", "suffstat_p"),
]

_KERNEL_KINDS = {0: "none", 1: "str", 2: "model"}


def _span_name(module: str, func: str) -> str:
    layer = "kernel" if module == "algstat._pykernel" else module.split(".")[-1]
    return f"{layer}.{func}"


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counts read at the boundary, after the span has ended."""
    if name == "kernel.walk":
        return {"kind": _KERNEL_KINDS[args[3]]}
    if name == "enumeration.build_table":
        cond = args[1] if len(args) > 1 else kwargs.get("cond")
        return {
            "kind": "none" if cond is None else cond.kind,
            "programs": result.halting_count(),
        }
    if name == "enumeration.export_table":
        return {"bytes": os.path.getsize(args[1])}
    if name == "enumeration.import_table":
        return {"bytes": os.path.getsize(args[0])}
    if name == "cache.load_or_build":
        return {"built": result[1]}
    if name.startswith("skstats."):
        return {"outputs": len(args[0])}
    if name == "models_set.enumerate_models":
        return {"models": len(result)}
    return {}


class Tracer:
    """Spans as [name, start, end, parent index or -1, attrs], in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[4] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "algstat" and m]
        for module_name, func in TARGETS:
            original = getattr(sys.modules[module_name], func)
            wrapped = self.wrap(_span_name(module_name, func), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import algstat.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    record = {"import_s": import_s, "main_s": main_s, "rc": rc, "spans": tracer.spans}
    with open(spans_path, "w", encoding="ascii") as f:
        json.dump(record, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
