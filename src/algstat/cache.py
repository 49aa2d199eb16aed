"""On-disk cache of complexity tables, keyed by build parameters.

File names carry machine version, file format, caps and the condition
fingerprint, so incompatible tables can never be loaded by accident, and a
file of an older format is a plain cache miss. A file stores every field
of a built table, its length histogram included, and is sealed with a
SHA-256 of its records; ``import_table`` checks it when it opens the file
and parses each output length's records when they are first read.

An analysis that knows the longest string it will look up in a table asks
for that table through ``TableSource.capped``, so the table is built under
an output budget no larger than that length. The slice is exact: every
opcode only appends to the output, so a halting program whose output has
at most n bits never holds more than n, and the table built under
``Budgets(T, n)`` holds exactly the outputs of length <= n of the
``Budgets(T, O)`` table, each with the same K, witness and mass. The
``laws`` audits cap their deep table at the longest pair they read and
their conditional tables at the longest string they read them at;
``structfn`` and ``deficiency`` cap each model's tables at its longest
member.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from . import _pykernel
from .enumeration import (
    TABLE_FORMAT,
    ComplexityTable,
    TableError,
    build_table,
    export_table,
    import_table,
)
from .kernel import walk_args
from .machine import MACHINE_VERSION, Budgets, Condition

ENV_CACHE_DIR = "ALGSTAT_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "algstat"


def table_path(cache_dir: str | Path, L: int, budgets: Budgets, fingerprint: str) -> Path:
    name = (
        f"{MACHINE_VERSION}_F{TABLE_FORMAT}_L{L}_T{budgets.max_steps}"
        f"_O{budgets.max_output}_{fingerprint[:16]}.table"
    )
    return Path(cache_dir) / name


def load_or_build(
    L: int,
    cond: Condition | None = None,
    budgets: Budgets | None = None,
    cache_dir: str | Path | None = None,
    warn: Callable[[str], None] | None = None,
    walked: Callable[[], tuple[dict[str, list], list[int]]] | None = None,
) -> tuple[ComplexityTable, bool]:
    """Fetch a table from the cache or build and cache it.

    Returns (table, was_built). ``warn`` is called with a message when a
    cold-cache build starts. A cache file that fails the checks
    ``import_table`` makes on opening it (an edited body fails its digest)
    is rebuilt and overwritten, never trusted; a record error that only a
    segment's parse finds raises ``TableFormatError`` at the first lookup
    that reads it. ``walked`` is passed on to ``build_table`` when the table
    has to be built.
    """
    cond = cond if cond is not None else Condition.none()
    budgets = budgets if budgets is not None else Budgets()
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    fingerprint = cond.fingerprint()
    path = table_path(cache_dir, L, budgets, fingerprint)
    if path.exists():
        try:
            table = import_table(path)
        except TableError:
            table = None
        if (
            table is not None
            and table.L == L
            and table.budgets == budgets
            and table.cond_fingerprint == fingerprint
        ):
            return table, False
    if warn is not None:
        warn(f"cache miss: enumerating L={L} under condition [{cond.serial()}]")
    table = build_table(L, cond, budgets, walked=walked)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    export_table(table, tmp)
    os.replace(tmp, path)
    return table, True


@dataclass(frozen=True)
class TableSource:
    """Where the tables an analysis reads come from: the budgets they are
    built under, the cache directory they live in (``None`` resolves the
    default on each lookup, as ``load_or_build`` does), how many processes
    walk cache misses, and where ``cache miss`` notes go."""

    budgets: Budgets = Budgets()
    workers: int = 1
    cache_dir: str | Path | None = None
    warn: Callable[[str], None] | None = None

    def capped(self, n: int) -> TableSource:
        """This source with the output budget lowered to n when it is larger.

        For an analysis that looks up no string longer than n bits: the
        tables it gets are exactly the full ones restricted to outputs of
        at most n bits (see the module docstring)."""
        if n >= self.budgets.max_output:
            return self
        return replace(self, budgets=replace(self.budgets, max_output=n))

    def table(self, L: int, cond: Condition | None = None) -> ComplexityTable:
        """``load_or_build`` under this source's settings; returns only the table."""
        table, _ = load_or_build(L, cond, self.budgets, self.cache_dir, self.warn)
        return table

    def tables(self, L: int, conds: Sequence[Condition]) -> list[ComplexityTable]:
        """``load_or_build`` for many conditions at one cap; the tables come
        back in the order of ``conds``.

        Each distinct condition is looked up once, in order, so the ``cache
        miss`` notes come out in condition order. When workers > 1 and more
        than one distinct condition has no cache file, the kernel walks of
        those tables run in a pool of that many processes while this process
        imports the cached tables and tabulates and exports the built ones.
        A single table is never split, so the result does not depend on
        ``workers``. The pool uses the platform's default start method; where
        that is not ``fork`` (macOS, Windows, and Linux from Python 3.14 on),
        a script that passes workers > 1 needs the usual
        ``if __name__ == "__main__":`` guard.
        """
        cache_dir = Path(self.cache_dir) if self.cache_dir is not None else default_cache_dir()
        unique: dict[str, Condition] = {}
        for cond in conds:
            unique.setdefault(cond.fingerprint(), cond)
        absent = [fp for fp in unique if not table_path(cache_dir, L, self.budgets, fp).exists()]
        tables: dict[str, ComplexityTable] = {}
        if self.workers > 1 and len(absent) > 1:
            # Imported only when a pool starts: it pulls in multiprocessing,
            # which a one-table call never needs.
            from concurrent.futures import ProcessPoolExecutor

            workers = min(self.workers, len(absent))
            with ProcessPoolExecutor(workers) as pool:
                # Submitted lazily: at most `workers` walks run or wait ahead of
                # the table being made here, which bounds the results held at once.
                submitted = (
                    (fp, pool.submit(_pykernel.walk, *walk_args(L, unique[fp], self.budgets)))
                    for fp in absent
                )
                walks = dict(itertools.islice(submitted, workers))
                for fp, cond in unique.items():
                    walk = walks.pop(fp, None)
                    walked = None
                    if walk is not None:
                        walks.update(itertools.islice(submitted, 1))
                        walked = walk.result
                    tables[fp], _ = load_or_build(
                        L, cond, self.budgets, cache_dir, self.warn, walked
                    )
        else:
            for fp, cond in unique.items():
                tables[fp], _ = load_or_build(L, cond, self.budgets, cache_dir, self.warn)
        return [tables[cond.fingerprint()] for cond in conds]
