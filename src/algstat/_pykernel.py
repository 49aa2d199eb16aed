"""The enumeration kernel, the package's one path into the machine.

``walk`` tabulates a table by walking the machine's states;
``compile_condition`` flattens a Condition into the plain arguments it
takes, and ``walk_args`` adds the length cap and the budgets. The package
registers this module lazily, so a command whose tables are all cached
never runs it.

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
0. ``_condition_free`` computes them once into a small memo,
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

import heapq
from functools import lru_cache

from .condition import Budgets, Condition

_COMPL = str.maketrans("01", "10")

# cond_kind values
COND_NONE = 0
COND_STR = 1
COND_MODEL = 2

_COPY_CODES = (("00", 1), ("01", 2), ("10", 4), ("11", 8))

# A bucket is (buffer length, input pointer, steps); its states map a buffer
# to [R, least prefix of least length, 0]. The third slot lets a read-out
# state's list become its output's [K, witness, m_num] without a resize.
Bucket = tuple[int, int, int]
States = dict[str, list]


def compile_condition(cond: Condition) -> tuple[int, str, tuple[str, ...], tuple[str, ...]]:
    """Flatten a Condition into (cond_kind, cond_bits, book_codes,
    book_elems), with the codebook sorted by codeword length."""
    if cond.kind == Condition.NONE_KIND:
        return COND_NONE, "", (), ()
    if cond.kind == Condition.STR_KIND:
        return COND_STR, cond.bits, (), ()
    pairs = sorted(cond.model.codebook_pairs(), key=lambda kv: (len(kv[0]), kv[0]))
    codes = tuple(cw for cw, _ in pairs)
    elems = tuple(elem for _, elem in pairs)
    return COND_MODEL, "", codes, elems


def walk_args(L: int, cond: Condition, budgets: Budgets) -> tuple:
    """The positional arguments of ``walk`` for one table."""
    return (L, budgets.max_steps, budgets.max_output, *compile_condition(cond))


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
    if cond_kind == COND_NONE:
        entries: dict[str, list] = {}
        total = _walk(L, max_steps, max_output, COND_NONE, "", (), {}, entries, None)
    else:
        free_entries, free_total, free = _condition_free(L, max_steps, max_output)
        entries = dict(zip(free_entries, map(list, free_entries.values())))
        book = tuple(zip(book_codes, book_elems))
        total = free_total + _walk(
            L, max_steps, max_output, cond_kind, cond_bits, book, free, entries, None
        )
    W = L + 1
    mask = (1 << W) - 1
    hist = [0] * (L + 1)
    for length in range(3, L + 1):
        hist[length] = (total >> (L - length) * W) & mask
    return entries, hist


@lru_cache(maxsize=8)
def _condition_free(L: int, max_steps: int, max_output: int) -> tuple[dict, int, dict]:
    """The states that no COPYIN or SFDECODE reaches, shared by every
    conditioned walk under (L, T, O): their entries, the sum of the R
    values read out, and their buckets. Callers copy the entries and only
    read the buckets."""
    entries: dict[str, list] = {}
    buckets: dict[Bucket, States] = {}
    total = _walk(L, max_steps, max_output, COND_NONE, "", (), {}, entries, buckets)
    return entries, total, buckets


def _walk(
    L: int,
    max_steps: int,
    max_output: int,
    cond_kind: int,
    cond_bits: str,
    book: tuple[tuple[str, str], ...],
    free: dict[Bucket, States],
    entries: dict[str, list],
    kept: dict[Bucket, States] | None,
) -> int:
    """Walk the buckets in order, adding the programs that HALT ends to
    ``entries``; return the sum of the R values read out.

    With ``free`` empty this is the walk from the empty state with no
    condition-reading token; ``kept``, when given, receives its buckets.
    Otherwise ``free`` holds those buckets, which are only read: the walk
    pushes the condition-reading tokens from them, and every token from the
    states those reach, and reads out only the counts of prefixes that hold
    a condition-reading token.
    """
    W = L + 1
    mod = (1 << W) - 2
    track = (L // 2) * max(8, max_output, L) + 1 > max_steps
    empty_loop = not track  # DOUBLE and FLIP of the empty buffer loop back
    # SFDECODE of an empty element loops back too, unless it costs steps.
    read_loops = [
        ((4 + len(cw)) * W, "1110" + cw) for cw, elem in book if not elem and not (track and cw)
    ]
    cond_len = len(cond_bits)
    pending: dict[Bucket, States] = {}
    if free:
        heap = sorted(free)
    else:
        pending[0, 0, 0] = {"": [1 << (L - 3) * W, "", 0]}
        heap = [(0, 0, 0)]
    total = 0

    def states_at(bucket: Bucket) -> States:
        states = pending.get(bucket)
        if states is None:
            states = pending[bucket] = {}
            if bucket not in free:
                heapq.heappush(heap, bucket)
        return states

    while heap:
        here = heapq.heappop(heap)
        n, ptr, s = here
        states = pending.pop(here, None)
        fixed = free.get(here)

        # Self-loops: seed them from the condition-free states, then close.
        loops = [4 * W, 4 * W] if n == 0 and empty_loop else []
        if read_loops:
            if fixed:
                if states is None:
                    states = {}
                _spread(fixed, [(shift, tok, states, "") for shift, tok in read_loops])
            loops += [shift for shift, _ in read_loops]
        if loops and states:
            for e in states.values():
                start = R = e[0]
                while True:
                    nxt = start + sum(R >> shift for shift in loops)
                    if nxt == R:
                        break
                    R = nxt
                e[0] = R

        # A move of t bits is taken only from a state with a prefix of at most
        # top - t bits, that is when its R is longer than the shift t*W.
        span = max(states.values())[0].bit_length() if states else 0
        reach = max(span, max(fixed.values())[0].bit_length() if fixed else 0)
        # The moves from here as (shift, token, bucket, suffix), in increasing
        # shift; ``reads`` are the condition-reading ones.
        moves = []
        if 2 * W < span and n < max_output and not (track and s >= max_steps):
            to = (n + 1, ptr, s + 1 if track else 0)
            moves += [(2 * W, "00", to, "0"), (2 * W, "01", to, "1")]
        cost = n or 1
        if 4 * W < span and 2 * n <= max_output and not (n == 0 and empty_loop):
            if not (track and s + cost > max_steps):
                to = (2 * n, ptr, s + cost if track else 0)
                moves += [(4 * W, "1100", to, _DOUBLE), (4 * W, "1101", to, _FLIP)]
        reads = []
        if cond_kind == COND_STR:
            if 5 * W < reach:
                for cc, m in _COPY_CODES:
                    if ptr + m > cond_len or n + m > max_output or track and s + m > max_steps:
                        continue
                    to = (n + m, ptr + m, s + m if track else 0)
                    reads.append((5 * W, "101" + cc, to, cond_bits[ptr : ptr + m]))
        elif cond_kind == COND_MODEL:
            for cw, elem in book:
                shift = (4 + len(cw)) * W
                if shift >= reach or (track and s + len(cw) > max_steps):
                    break
                if elem and n + len(elem) <= max_output or not elem and track and cw:
                    to = (n + len(elem), 0, s + len(cw) if track else 0)
                    reads.append((shift, "1110" + cw, to, elem))

        if states:
            halts = not (track and s >= max_steps)
            total += _spread(
                states,
                [(sh, tok, states_at(to), suf) for sh, tok, to, suf in moves + reads],
                entries if halts else None,
                mod,
                kept is None,
            )
            if kept is not None:
                kept[here] = states
        if fixed and reads:
            _spread(fixed, [(sh, tok, states_at(to), suf) for sh, tok, to, suf in reads])
    return total


# Suffix markers of DOUBLE and FLIP, whose appended bits depend on the buffer.
_DOUBLE = object()
_FLIP = object()


def _spread(
    states: States,
    moves: list[tuple[int, str, States, object]],
    entries: dict[str, list] | None = None,
    mod: int = 0,
    spent: bool = False,
) -> int:
    """Push every state's counts along ``moves``, which are sorted by shift,
    keeping each target's least prefix of least length. When ``entries`` is
    given, also add the programs that HALT ends in each state, whose mass is
    R % ``mod``, and return the sum of the R values; otherwise return 0.
    When ``spent``, no one reads ``states`` again, and a state's list may
    become its output's entry, so the walk holds no more than the table."""
    total = 0
    get = entries.get if entries is not None else None
    for buf, state in states.items():
        R, w, _ = state
        if get is not None:
            total += R
            k = len(w) + 3
            e = get(buf)
            if e is None:
                if spent:
                    state[0] = k
                    state[1] = w + "100"
                    state[2] = R % mod
                    entries[buf] = state
                else:
                    entries[buf] = [k, w + "100", R % mod]
            else:
                e[2] += R % mod
                if k < e[0] or (k == e[0] and w + "100" < e[1]):
                    e[0] = k
                    e[1] = w + "100"
        for shift, tok, target, suffix in moves:
            r = R >> shift
            if not r:
                break
            if suffix is _DOUBLE:
                key = buf + buf
            elif suffix is _FLIP:
                key = buf + buf.translate(_COMPL)
            else:
                key = buf + suffix
            e = target.get(key)
            if e is None:
                target[key] = [r, w + tok, 0]
            else:
                e[0] += r
                c = w + tok
                old = e[1]
                if len(c) < len(old) or (len(c) == len(old) and c < old):
                    e[1] = c
    return total
