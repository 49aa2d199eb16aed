"""The enumeration kernel.

``walk`` tabulates a table by walking the machine's states (the walk
itself is in ``_statewalk``); ``traverse`` lists the halting programs one
by one, for ``enumeration.enumerate_halting``.
``algstat.kernel.compile_condition`` flattens a Condition into the
arguments both take.

The state graph. After a prefix of whole tokens the machine is in a state:
its buffer, its input pointer and, when the step budget can bind, the steps
it has used. What a program does next depends only on the state, so ``walk``
visits each state once, however many prefixes reach it. The budget can bind
only if ``(L//2) * max(8, O, L) + 1 > T``: a program of at most L bits runs
at most L//2 tokens besides its HALT, and none costs more than 8 steps (a
COPYIN), O (a DOUBLE or FLIP within the output budget) or L (an SFDECODE
codeword). Otherwise, as at T = 100000, steps are not part of the state.

The counts. For a state, an int R packs the number of prefixes of each
length l <= top = L - 3 that reach it, in field top - l of width W = L + 1
(a count is at most 2**l, so a field never carries into the next). A token
of t bits maps R to ``R >> t*W``: each count moves t fields down, and the
prefixes too long for a HALT to follow drop off. HALT ends each prefix of
length l in a program of length l + 3, so the state's mass numerator is the
sum of count * 2**(top - l), and since 2**W = 2 modulo 2**W - 2 and the mass
is below 2**L, it is ``R % (2**W - 2)``. The highest nonzero field gives the
shortest prefix, so K is top minus that field plus 3, which is also the
length of the witness: the least prefix of least length, kept as each count
is pushed on, followed by HALT's ``100``. The histogram is the sum of the
R values of the states that may halt, unpacked once.

The order. Every token but two lengthens the buffer or adds steps, so the
states are walked in buckets of equal (buffer length, pointer, steps), in
that order, and a bucket is complete when its turn comes. The two are
DOUBLE or FLIP of the empty buffer and SFDECODE of an empty element, which
without step tracking (or with a codeword of no bits) lead back to the same
state: those self-loops are closed by iterating R to a fixed point.

The condition-free part. The states that no COPYIN or SFDECODE has reached
are those of the unconditioned walk under the same (L, T, O), with pointer
0. ``_statewalk._condition_free`` computes them once into a small memo,
and a string- or model-conditioned walk copies their table and walks on
only from each condition-reading token: COPYIN or SFDECODE from any state,
and every token from a state a condition-reading token has reached. Counts
add, so a state that both parts reach (under a model the pointer stays 0)
is read out as the sum of its two parts. An unconditioned walk is neither
memoized nor copied; it reads out each bucket as it is walked and then
drops it.

Soundness of the pruning: steps, buffer length and input pointer are
monotone along a branch, so a token whose own budget check fails here is
exactly a token on which the machine would fail, and no halting program
passes through it. The same monotonicity makes an output budget of n an
exact slice: the walk under ``max_output=n`` finds exactly the halting
programs whose output has at most n bits, which is why an analysis may
ask for a table only up to the longest string it reads
(``cache.TableSource.capped``). Nor does a walk read a string condition
past bit O: no opcode shortens the buffer and COPYIN appends exactly the
m bits it advances the pointer by, so pointer <= |buffer| <= O in every
state, and a COPYIN that passes ``ptr + m <= len(c)`` but would read past
bit O fails ``n + m <= O``. The walk under c equals the walk under c[:O]
for every L and T (``cache.TableSource.tables`` keys tables by the cut
condition). The codebook comes sorted by codeword length, so once one
SFDECODE codeword overruns the length cap or the step budget, every later
one does too; the output check depends on the element, whose lengths are
not sorted, so it skips a codeword rather than ending the scan.
"""

from __future__ import annotations

from typing import Callable

_COMPL = str.maketrans("01", "10")

# cond_kind values
COND_NONE = 0
COND_STR = 1
COND_MODEL = 2

_COPY_CODES = (("00", 1), ("01", 2), ("10", 4), ("11", 8))

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
            for cc, m in _COPY_CODES:
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
    Every call returns lists of its own.
    """
    # The state walk is compiled by the first walk: a command whose tables
    # are all cached never walks, and its start-up skips that module.
    from . import _statewalk

    return _statewalk.walk(
        L, max_steps, max_output, cond_kind, cond_bits, book_codes, book_elems
    )
