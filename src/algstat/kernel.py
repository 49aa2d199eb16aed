"""The kernel's calling convention.

``compile_condition`` flattens a Condition into the plain
arguments that ``algstat._pykernel.walk`` and ``traverse`` take;
``walk_args`` adds the length cap and the budgets.
"""

from __future__ import annotations

from . import _pykernel
from .machine import Budgets, Condition


def backend_name() -> str:
    """Name of the enumeration kernel; there is one, the pure-Python walk."""
    return "py"


def compile_condition(cond: Condition) -> tuple[int, str, tuple[str, ...], tuple[str, ...]]:
    """Flatten a Condition into (cond_kind, cond_bits, book_codes,
    book_elems), with the codebook sorted by codeword length."""
    if cond.kind == Condition.NONE_KIND:
        return _pykernel.COND_NONE, "", (), ()
    if cond.kind == Condition.STR_KIND:
        return _pykernel.COND_STR, cond.bits, (), ()
    pairs = sorted(cond.model.codebook_pairs(), key=lambda kv: (len(kv[0]), kv[0]))
    codes = tuple(cw for cw, _ in pairs)
    elems = tuple(elem for _, elem in pairs)
    return _pykernel.COND_MODEL, "", codes, elems


def walk_args(L: int, cond: Condition, budgets: Budgets) -> tuple:
    """The positional arguments of ``_pykernel.walk`` for one table; those
    of ``_pykernel.traverse`` less its callback."""
    return (L, budgets.max_steps, budgets.max_output, *compile_condition(cond))
