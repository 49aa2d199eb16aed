"""The recorded ``structfn`` digests of a sample of long strings.

``structfn_long.json`` holds the sha256 of ``algstat structfn X`` stdout for
every string of ``SAMPLE``: every 64th 10-bit string and two 12-bit ones,
lengths that the 8-bit digests of ``perfbench/expected.json`` do not reach.
``tests/test_golden.py`` checks them.

Run from the repository root to print each string with its recorded and its
current digest; ``--write`` records the current ones::

    PYTHONPATH=src python tests/structfn_digests.py [--write]

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

RECORD = Path(__file__).resolve().parent / "structfn_long.json"
SAMPLE = [format(v, "010b") for v in range(0, 1 << 10, 64)] + ["011010011001", "000000111111"]


def structfn_digest(x: str, cache_dir: str) -> str:
    """The sha256 of ``structfn x`` stdout, read through ``cli.main``."""
    from algstat.cli import EXIT_OK, main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["structfn", x, "--cache-dir", cache_dir])
    if code != EXIT_OK:
        raise RuntimeError(f"structfn {x} exited {code}")
    return hashlib.sha256(out.getvalue().encode("ascii")).hexdigest()


def recorded() -> dict[str, str]:
    return json.loads(RECORD.read_text(encoding="ascii")) if RECORD.exists() else {}


def main(argv: list[str]) -> int:
    old = recorded()
    new = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        for x in SAMPLE:
            new[x] = structfn_digest(x, cache_dir)
            mark = "" if old.get(x) == new[x] else "  CHANGED"
            print(f"{x} {old.get(x, '-')} {new[x]}{mark}")
    if "--write" in argv:
        RECORD.write_text(json.dumps(new, indent=1) + "\n", encoding="ascii")
        print(f"wrote {RECORD.name}")
    return 0 if "--write" in argv or old == new else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
