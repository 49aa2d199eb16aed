"""The enumeration kernel.

``traverse`` walks the opcode decode tree once from the root and hands
every halting program up to a length cap to a callback. ``walk`` uses it
to tabulate the programs per output and by length;
``enumeration.enumerate_halting`` uses it to list them.
``algstat.kernel.compile_condition`` flattens a Condition into the
arguments both take.

Soundness of the pruning: steps, buffer length and input pointer are
monotone along a branch, so a token whose own budget check fails here is
exactly a token on which the machine would fail, and no halting program
passes through it. The same monotonicity makes an output budget of n an
exact slice: the walk under ``max_output=n`` finds exactly the halting
programs whose output has at most n bits, which is why an analysis may
ask for a table only up to the longest string it reads
(``cache.TableSource.capped``). The codebook comes sorted by codeword
length, so once one SFDECODE codeword overruns the length cap or the step
budget, every later one does too; the output check depends on the
element, whose lengths are not sorted, so it skips a codeword rather than
ending the scan.
"""

from __future__ import annotations

from typing import Callable

_COMPL = str.maketrans("01", "10")

# cond_kind values
COND_NONE = 0
COND_STR = 1
COND_MODEL = 2


def traverse(
    L: int,
    max_steps: int,
    max_output: int,
    cond_kind: int,
    cond_bits: str,
    book_codes: tuple[str, ...],
    book_elems: tuple[str, ...],
    halt: Callable[[str, str, int], None],
) -> None:
    """Call ``halt(program, output, steps)`` once for every halting
    program p with l(p) <= L, in decode-tree order. ``book_codes`` must be
    sorted by length, as compile_condition does."""
    cond_len = len(cond_bits)
    book = tuple(zip(book_codes, book_elems))

    def rec(cur: str, steps: int, buf: str, ptr: int) -> None:
        cur_len = len(cur)
        buf_len = len(buf)

        # HALT
        if cur_len + 3 <= L and steps + 1 <= max_steps:
            halt(cur + "100", buf, steps + 1)

        # EMIT0 / EMIT1 (non-HALT tokens need 3 more bits for the HALT)
        if cur_len + 5 <= L and steps + 1 <= max_steps and buf_len + 1 <= max_output:
            rec(cur + "00", steps + 1, buf + "0", ptr)
            rec(cur + "01", steps + 1, buf + "1", ptr)

        # COPYIN
        if cond_kind == COND_STR and cur_len + 8 <= L:
            for cc, m in (("00", 1), ("01", 2), ("10", 4), ("11", 8)):
                if ptr + m <= cond_len and steps + m <= max_steps and buf_len + m <= max_output:
                    rec(cur + "101" + cc, steps + m, buf + cond_bits[ptr : ptr + m], ptr + m)

        # DOUBLE / FLIP
        if cur_len + 7 <= L and 2 * buf_len <= max_output:
            cost = buf_len if buf_len > 1 else 1
            if steps + cost <= max_steps:
                rec(cur + "1100", steps + cost, buf + buf, ptr)
                rec(cur + "1101", steps + cost, buf + buf.translate(_COMPL), ptr)

        # SFDECODE
        if cond_kind == COND_MODEL:
            for cw, elem in book:
                cw_len = len(cw)
                if cur_len + 7 + cw_len > L or steps + cw_len > max_steps:
                    break
                if buf_len + len(elem) <= max_output:
                    rec(cur + "1110" + cw, steps + cw_len, buf + elem, ptr)

    rec("", 0, "", 0)


def walk(
    L: int,
    max_steps: int,
    max_output: int,
    cond_kind: int,
    cond_bits: str,
    book_codes: tuple[str, ...],
    book_elems: tuple[str, ...],
) -> tuple[dict[str, list], list[int]]:
    """Tabulate the halting programs p with l(p) <= L.

    Returns (entries, hist): entries maps output -> [K, witness, m_num]
    with m_num = sum over that output's programs of 2**(L - l(p)), and
    hist[l] counts the halting programs of length l over all outputs.
    """
    entries: dict[str, list] = {}
    hist = [0] * (L + 1)
    get = entries.get

    def halt(p: str, out: str, steps: int) -> None:
        total = len(p)
        hist[total] += 1
        e = get(out)
        if e is None:
            entries[out] = [total, p, 1 << (L - total)]
        else:
            if total < e[0] or (total == e[0] and p < e[1]):
                e[0] = total
                e[1] = p
            e[2] += 1 << (L - total)

    traverse(L, max_steps, max_output, cond_kind, cond_bits, book_codes, book_elems, halt)
    return entries, hist
