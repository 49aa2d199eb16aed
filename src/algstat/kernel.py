"""Kept only for ``backend_name``, which the benchmark's import probe reads."""


def backend_name() -> str:
    """Name of the enumeration kernel; there is one, the pure-Python walk."""
    return "py"
