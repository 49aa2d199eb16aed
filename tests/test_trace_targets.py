"""The names that the benchmark's tracer wraps still exist: a traced run
wraps each (module, function) of ``perfbench/trace_child.py``'s ``TARGETS``
by attribute after ``import algstat.cli``, and stops with an error at a
name that is gone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def traced_targets() -> list[tuple[str, str]]:
    """``TARGETS`` read from the tracer's source, without running it."""
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    [value] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    return ast.literal_eval(value)


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert ("algstat.models_prob", "deficiency_p") in targets
    import algstat.cli  # noqa: F401

    missing = [
        (module, func)
        for module, func in targets
        if not callable(getattr(sys.modules.get(module), func, None))
    ]
    assert missing == []
