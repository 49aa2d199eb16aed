"""The enumeration kernel.

Walks the opcode decode tree once from the root and records every halting
program up to a length cap. ``walk`` tabulates the programs per output;
``collect`` lists them one by one. ``algstat.kernel.compile_condition``
flattens a Condition into the arguments both take.

Soundness of the pruning: steps, buffer length and input pointer are
monotone along a branch, so a token whose own budget check fails here is
exactly a token on which the machine would fail, and no halting program
passes through it. The codebook comes sorted by codeword length, so once
one SFDECODE codeword overruns the length cap or the step budget, every
later one does too; the output check depends on the element, whose
lengths are not sorted, so it skips a codeword rather than ending the
scan.
"""

from __future__ import annotations

_COMPL = str.maketrans("01", "10")

# cond_kind values
COND_NONE = 0
COND_STR = 1
COND_MODEL = 2


def walk(
    L: int,
    max_steps: int,
    max_output: int,
    cond_kind: int,
    cond_bits: str,
    book_codes: tuple[str, ...],
    book_elems: tuple[str, ...],
):
    """Enumerate halting programs p with l(p) <= L.

    Returns entries mapping output -> [K, witness, m_num, by_length]
    with m_num = sum over that output's programs of 2**(L - l(p)) and
    by_length a dict counting that output's halting programs by length.
    ``book_codes`` must be sorted by length, as compile_condition does.
    """
    entries: dict[str, list] = {}
    cond_len = len(cond_bits)
    book = tuple(zip(book_codes, book_elems))

    def rec(cur: str, steps: int, buf: str, ptr: int) -> None:
        cur_len = len(cur)
        buf_len = len(buf)

        # HALT
        total = cur_len + 3
        if total <= L and steps + 1 <= max_steps:
            p = cur + "100"
            e = entries.get(buf)
            if e is None:
                entries[buf] = [total, p, 1 << (L - total), {total: 1}]
            else:
                if total < e[0] or (total == e[0] and p < e[1]):
                    e[0] = total
                    e[1] = p
                e[2] += 1 << (L - total)
                bl = e[3]
                bl[total] = bl.get(total, 0) + 1

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
    return entries


def collect(
    L: int,
    max_steps: int,
    max_output: int,
    cond_kind: int,
    cond_bits: str,
    book_codes: tuple[str, ...],
    book_elems: tuple[str, ...],
):
    """All halting programs with l(p) <= L as (program, output, steps),
    sorted by (length, lexicographic). ``book_codes`` must be sorted by
    length, as for ``walk``."""
    progs: list[tuple[str, str, int]] = []
    cond_len = len(cond_bits)
    book = tuple(zip(book_codes, book_elems))

    def rec(cur: str, steps: int, buf: str, ptr: int) -> None:
        cur_len = len(cur)
        buf_len = len(buf)
        if cur_len + 3 <= L and steps + 1 <= max_steps:
            progs.append((cur + "100", buf, steps + 1))
        if cur_len + 5 <= L and steps + 1 <= max_steps and buf_len + 1 <= max_output:
            rec(cur + "00", steps + 1, buf + "0", ptr)
            rec(cur + "01", steps + 1, buf + "1", ptr)
        if cond_kind == COND_STR and cur_len + 8 <= L:
            for cc, m in (("00", 1), ("01", 2), ("10", 4), ("11", 8)):
                if ptr + m <= cond_len and steps + m <= max_steps and buf_len + m <= max_output:
                    rec(cur + "101" + cc, steps + m, buf + cond_bits[ptr : ptr + m], ptr + m)
        if cur_len + 7 <= L and 2 * buf_len <= max_output:
            cost = buf_len if buf_len > 1 else 1
            if steps + cost <= max_steps:
                rec(cur + "1100", steps + cost, buf + buf, ptr)
                rec(cur + "1101", steps + cost, buf + buf.translate(_COMPL), ptr)
        if cond_kind == COND_MODEL:
            for cw, elem in book:
                if cur_len + 7 + len(cw) > L or steps + len(cw) > max_steps:
                    break
                if buf_len + len(elem) <= max_output:
                    rec(cur + "1110" + cw, steps + len(cw), buf + elem, ptr)

    rec("", 0, "", 0)
    progs.sort(key=lambda t: (len(t[0]), t[0]))
    return progs
