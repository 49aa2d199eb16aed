"""On-disk cache of complexity tables, keyed by build parameters.

File names carry machine version, file format, caps and the condition
fingerprint, so incompatible tables can never be loaded by accident, and a
file of an older format is a plain cache miss. A file stores every field
of a built table, its length histogram included, and is sealed with a
SHA-256 of its header and its stored, compressed records; ``import_table``
checks it when it opens the file, before it inflates the records, and
parses each output length's records when they are first read.

Every reader that knows the longest string it will look up in a table asks
for that table through ``TableSource.capped``, so the table is built under
an output budget no larger than that length: ``k`` and ``k_cond`` at |x|,
``mi`` at |pair(x, y)|, the analyses at their longest lookup. The slice
is exact: every opcode only appends to the output, so a halting program
whose output has at most n bits never holds more than n, and the table
built under ``Budgets(T, n)`` holds exactly the outputs of length <= n of
the ``Budgets(T, O)`` table, each with the same K, witness and mass.

The output budget also bounds what a walk reads of a string condition c.
No opcode shortens the buffer, and COPYIN appends exactly the m bits it
advances the input pointer by, so pointer <= |buffer| <= O in every state
a walk reaches: a halting program reads only c[:O], and a COPYIN that
would read past bit O also overruns the output budget. The table under c
thus has the same halting programs, outputs, lengths and steps as the
table under c[:O], for every step budget. ``TableSource.tables`` and
``k_tables`` therefore cut each string condition to its first O bits
before naming, looking up or walking its table, and a ``cache miss``
note and a file name show the cut condition. ``load_or_build`` and
``TableSource.table`` keep the condition they are given.

An analysis that reads only K and witnesses, of strings of at most n bits,
asks through ``TableSource.k_tables``, which also derives the program-length
cap from n and the condition (``k_cap``): 2n+3, the length of an emit-only
program of an n-bit string, or under a model condition, whose readers look
up only members, 7 plus the longest codeword when that is less (see there).
One rule thus caps the tables of ``structfn``, ``deficiency``,
``nonstoch_scan``, ``deficiency_p``, ``bernoulli``, the ``laws`` deep table
and the conditional tables of its audits.

A source whose ``max_len`` is set (``--max-len``) builds every table it
hands out at that cap instead: the fixed cap given to ``table``/``tables``
and the one ``k_tables`` derives alike. A string with no program within it
is then Absent, never given a wrong K.

Every cache miss is walked in the calling process, one table at a time.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .enumeration import (
    TABLE_FORMAT,
    ComplexityTable,
    TableError,
    build_table,
    export_table,
    import_table,
)
from .condition import MACHINE_VERSION, Budgets, Condition

ENV_CACHE_DIR = "ALGSTAT_CACHE_DIR"
# The largest cap ``TableSource.k_tables`` derives: that of the ``laws``
# deep table, which reads strings of up to 13 bits.
AUDIT_MAX_LEN = 29


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
) -> tuple[ComplexityTable, bool]:
    """Fetch a table from the cache or build and cache it.

    Returns (table, was_built). ``warn`` is called with a message when a
    cold-cache build starts. A cache file that fails the checks
    ``import_table`` makes on opening it (an edited body fails its digest)
    is rebuilt and overwritten, never trusted; a record error that only a
    segment's parse finds raises ``TableFormatError`` at the first lookup
    that reads it.
    """
    cond = cond if cond is not None else Condition.none()
    budgets = budgets if budgets is not None else Budgets()
    fingerprint = cond.fingerprint()
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
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
    table = build_table(L, cond, budgets)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        export_table(table, tmp)
        os.replace(tmp, path)
    except BaseException:
        # a full disk or an interrupt mid-write leaves no partial file behind
        tmp.unlink(missing_ok=True)
        raise
    return table, True


class TableSource(NamedTuple):
    """Where the tables an analysis reads come from: the budgets they are
    built under, the cache directory they live in (``None`` resolves the
    default on each lookup, as ``load_or_build`` does), where ``cache miss``
    notes go, and the program-length cap that, when set, replaces the cap of
    every table it hands out."""

    budgets: Budgets = Budgets()
    cache_dir: str | Path | None = None
    warn: Callable[[str], None] | None = None
    max_len: int | None = None

    def program_cap(self, L: int) -> int:
        """The program-length cap of a table asked for at L: ``max_len``
        when it is set, else L."""
        return L if self.max_len is None else self.max_len

    def capped(self, n: int) -> TableSource:
        """This source with the output budget lowered to n when it is larger.

        For an analysis that looks up no string longer than n bits: the
        tables it gets are exactly the full ones restricted to outputs of
        at most n bits (see the module docstring)."""
        if n >= self.budgets.max_output:
            return self
        return self._replace(budgets=Budgets(self.budgets.max_steps, n))

    def k_tables(self, n: int, conds: Sequence[Condition]) -> list[ComplexityTable]:
        """The tables, one per condition in ``conds``, of a reader that looks
        up only K and witnesses, of strings of at most n bits: built under an
        output budget of n (``capped``) and, unless ``max_len`` is set, the
        program-length cap ``k_cap`` derives from n and the condition.

        That cap is exact. A table holds a string only with a program within
        its cap, so it gives any string it holds the K and witness of every
        deeper cap; the derived cap is one within which every string the
        reader looks up has a program. Under any condition ``tpm1-v1``
        prints an n-bit string with n EMITs and a HALT, in 2n+3 bits. Under
        a model condition SFDECODE, the member's codeword and a HALT print
        a member in 7 bits plus its codeword, so a model-conditioned reader,
        which looks up only the model's members, needs no cap beyond 7 plus
        the longest codeword. (Under a step budget below either program's
        run a string may instead be Absent, never given a wrong K.)
        Masses and halting counts grow with the cap, so their readers keep
        a fixed one and the full output budget: ``xr``, the ``laws`` level
        table, ``enumerate``. ``sk k`` reads the table at program cap k,
        whose outputs are exactly S^k. The readers of one string (``k``,
        ``k --cond``, ``k_cond``, ``mi``) keep a fixed program cap, which
        finds a long compressible string without the far longer walk of
        2n+3, but fetch through ``capped`` and ``tables`` like every
        reader: one small table per output length and cut condition.

        A derived cap above AUDIT_MAX_LEN (2n+3 with n > 13, under a string
        or no condition) raises ValueError before any table is built. A set
        ``max_len``, as ``--max-len`` gives, is used as it is; a string with
        no program within it is Absent.
        """
        caps = [k_cap(n, cond) for cond in conds]
        if self.max_len is None and max(caps, default=0) > AUDIT_MAX_LEN:
            raise ValueError(
                f"strings of {n} bits need tables with a program-length cap of "
                f"L={max(caps)}, above the largest derived cap L={AUDIT_MAX_LEN}; pass "
                f"--max-len (TableSource.max_len in the library) to build them anyway"
            )
        return self.capped(n)._tables(list(zip(caps, conds)))

    def table(self, L: int, cond: Condition | None = None) -> ComplexityTable:
        """``load_or_build`` under this source's settings, at the cap
        ``program_cap(L)``; returns only the table."""
        return self._load(self.program_cap(L), cond if cond is not None else Condition.none())

    def tables(self, L: int, conds: Sequence[Condition]) -> list[ComplexityTable]:
        """``load_or_build`` for many conditions at one cap,
        ``program_cap(L)``; the tables come back in the order of ``conds``.

        Each distinct condition, a string condition cut to its first O bits
        (see ``_tables``), is looked up once, in order, and each cache miss
        is walked in this process, so the ``cache miss`` notes come out in
        condition order.
        """
        return self._tables([(L, cond) for cond in conds])

    def _tables(self, jobs: Sequence[tuple[int, Condition]]) -> list[ComplexityTable]:
        """``tables`` with a cap per condition: one table per (cap, condition),
        each cap replaced by ``program_cap``.

        A string condition is cut to its first O bits, all that a walk under
        output budget O can read (see the module docstring), before its table
        is named, looked up or walked: conditions with the same O-bit prefix
        share one table, one file and one ``cache miss`` note."""
        O = self.budgets.max_output
        tables: dict[tuple[int, str], ComplexityTable] = {}
        found = []
        for L, cond in jobs:
            if cond.kind == Condition.STR_KIND and len(cond.bits) > O:
                cond = Condition.string(cond.bits[:O])
            key = (self.program_cap(L), cond.fingerprint())
            if key not in tables:
                tables[key] = self._load(key[0], cond)
            found.append(tables[key])
        return found

    def _load(self, L: int, cond: Condition) -> ComplexityTable:
        """``load_or_build`` of one table under this source's settings: the
        one step through which a source fetches every table it hands out."""
        table, _ = load_or_build(L, cond, self.budgets, self.cache_dir, self.warn)
        return table


def k_cap(n: int, cond: Condition) -> int:
    """The program-length cap ``TableSource.k_tables`` derives for lookups
    of strings of at most n bits under ``cond``: 2n+3, or under a model
    condition the least of that and 7 plus the longest codeword."""
    if cond.kind != Condition.MODEL_KIND:
        return 2 * n + 3
    return min(2 * n + 3, 7 + cond.model.max_codeword_len())
