"""Frozen audit constants.

The machine's information laws hold only up to machine-dependent additive
constants. Audits *measure* those constants; the measured values from a
blessed run are frozen into a text file (one ``name value`` line per
audit, integer bit counts) and later runs regress against them with a +1
bit tolerance. Nothing here asserts a theoretical value.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import NamedTuple

REGRESSION_TOLERANCE_BITS = 1


class ConstantsError(ValueError):
    """A malformed constants file."""


def packaged_constants_text() -> str:
    return resources.files("algstat").joinpath("data/constants.txt").read_text("ascii")


def parse_constants(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConstantsError(f"constants line {lineno}: expected 'name value', got {raw!r}")
        name, value = parts
        if name in out:
            raise ConstantsError(f"constants line {lineno}: duplicate name {name!r}")
        try:
            out[name] = int(value)
        except ValueError:
            raise ConstantsError(f"constants line {lineno}: non-integer value {value!r}") from None
    return out


def load_constants(path: str | Path | None = None) -> dict[str, int]:
    """Read frozen constants from ``path`` or the packaged file."""
    if path is None:
        return parse_constants(packaged_constants_text())
    return parse_constants(Path(path).read_text("ascii"))


def format_constants(values: dict[str, int]) -> str:
    lines = ["# measured audit slacks (bits), frozen from a blessed run"]
    lines.extend(f"{name} {values[name]}" for name in sorted(values))
    return "\n".join(lines) + "\n"


def save_constants(values: dict[str, int], path: str | Path) -> None:
    Path(path).write_text(format_constants(values), encoding="ascii")


class RegressionLine(NamedTuple):
    name: str
    measured: int
    frozen: int | None
    ok: bool


def regression_check(measured: dict[str, int], frozen: dict[str, int]) -> list[RegressionLine]:
    """Compare measured slacks to frozen ones. A missing frozen entry
    fails (the audit was never blessed); measured may exceed frozen by at
    most ``REGRESSION_TOLERANCE_BITS`` (1) bits."""
    lines = []
    for name in sorted(measured):
        have = frozen.get(name)
        ok = have is not None and measured[name] <= have + REGRESSION_TOLERANCE_BITS
        lines.append(RegressionLine(name, measured[name], have, ok))
    return lines
