"""SetLang: the prefix-free language that describes finite-set models.

A description plays the role of the model S: its *code length* is the
model complexity (description-level, no second machine layer), its
denotation is a nonempty finite set of bit strings. This module holds the
grammar alone: the six shapes, their code and its decoder, and the
textual syntax. ``models_set`` computes over the descriptions.

Grammar (tags chosen prefix-free):

    00  Singleton(x)        std(x)
    01  All(n)              bar(b(n))           all strings of length n
    100 Cyl(prefix, n)      std(prefix) bar(b(n))   length-n extensions
    101 Hamming(n, s)       bar(b(n)) bar(b(s))     weight-s length-n
    110 Union(parts)        bar(b(count)) codes...  count >= 2
    111 List(elements)      bar(b(count)) std(e)... count >= 1
"""

from __future__ import annotations

import math
import re
from itertools import combinations
from typing import Iterator

from ._record import Record
from .bits import (
    BitReader,
    CodeError,
    bar_nat,
    bits_to_text,
    ceil_log2,
    check_bits,
    std,
    text_to_bits,
)

# The most members a denotation or a domain materializes.
DENOTE_CAP = 1 << 20


class SetLangError(CodeError):
    """Malformed SetLang code or textual syntax."""


class CapExceeded(ValueError):
    """A denotation is larger than the materialization cap, DENOTE_CAP."""


# -- description AST ---------------------------------------------------------


class SetDesc(Record):
    """Base class; concrete shapes below. Instances are immutable, and two
    of different shapes never compare equal.

    A set is a model as ``distlang.DistDesc`` is, the uniform distribution
    on its members: ``code_len``, ``member`` and ``codeword_len`` are the
    interface the model searches of ``models_set`` read."""

    __slots__ = ()

    @property
    def code(self) -> str:
        return encode(self)

    @property
    def code_len(self) -> int:
        return len(self.code)

    def member(self, x: str) -> bool:
        raise NotImplementedError

    def codeword_len(self, x: str) -> int:
        """ceil(log2 |S|), the length of x's codeword in the uniform code
        on S; raises ValueError unless x is in S."""
        if not self.member(x):
            raise ValueError(f"{bits_to_text(x)} is not in {format_setlang(self)}")
        return ceil_log2(self.size())

    def size(self) -> int:
        raise NotImplementedError

    def denote(self) -> list[str]:
        """Members in canonical (length, lexicographic) order."""
        raise NotImplementedError


class Singleton(SetDesc):
    __slots__ = ("x",)

    def __init__(self, x: str):
        object.__setattr__(self, "x", check_bits(x))

    def member(self, x: str) -> bool:
        return x == self.x

    def size(self) -> int:
        return 1

    def denote(self) -> list[str]:
        return [self.x]


class All(SetDesc):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise SetLangError("All(n) needs n >= 0")
        object.__setattr__(self, "n", n)

    def member(self, x: str) -> bool:
        return len(x) == self.n

    def size(self) -> int:
        return 1 << self.n

    def denote(self) -> list[str]:
        if self.size() > DENOTE_CAP:
            raise CapExceeded(f"|All({self.n})| = 2^{self.n} exceeds cap {DENOTE_CAP}")
        return [format(v, f"0{self.n}b") if self.n else "" for v in range(1 << self.n)]


class Cyl(SetDesc):
    __slots__ = ("prefix", "n")

    def __init__(self, prefix: str, n: int):
        check_bits(prefix)
        if not 0 <= len(prefix) <= n:
            raise SetLangError("Cyl needs l(prefix) <= n")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "n", n)

    def member(self, x: str) -> bool:
        return len(x) == self.n and x.startswith(self.prefix)

    def size(self) -> int:
        return 1 << (self.n - len(self.prefix))

    def denote(self) -> list[str]:
        free = self.n - len(self.prefix)
        if self.size() > DENOTE_CAP:
            raise CapExceeded(f"|Cyl| = 2^{free} exceeds cap {DENOTE_CAP}")
        return [self.prefix + (format(v, f"0{free}b") if free else "") for v in range(1 << free)]


class Hamming(SetDesc):
    __slots__ = ("n", "s")

    def __init__(self, n: int, s: int):
        if not 0 <= s <= n:
            raise SetLangError("Hamming needs 0 <= s <= n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    def member(self, x: str) -> bool:
        return len(x) == self.n and x.count("1") == self.s

    def size(self) -> int:
        return math.comb(self.n, self.s)

    def denote(self) -> list[str]:
        if self.size() > DENOTE_CAP:
            raise CapExceeded(f"|Hamming({self.n},{self.s})| exceeds cap {DENOTE_CAP}")
        out = []
        for ones in combinations(range(self.n), self.s):
            chars = ["0"] * self.n
            for i in ones:
                chars[i] = "1"
            out.append("".join(chars))
        out.sort()
        return out


class UnionSet(SetDesc):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[SetDesc, ...]):
        if len(parts) < 2:
            raise SetLangError("Union needs at least 2 parts")
        object.__setattr__(self, "parts", parts)

    def member(self, x: str) -> bool:
        return any(p.member(x) for p in self.parts)

    def size(self) -> int:
        # inclusion-exclusion over the simple shapes, nested unions opened
        # into their parts, keeps huge structured unions exact without
        # materializing; past 8 shapes it falls back to the capped walk
        parts = tuple(_simple_parts(self))
        if len(parts) <= 8:
            total = 0
            for r in range(1, len(parts) + 1):
                sign = 1 if r % 2 else -1
                for combo in combinations(parts, r):
                    total += sign * _intersection_size(combo)
            return total
        return len(self.denote())

    def denote(self) -> list[str]:
        seen: set[str] = set()
        for p in self.parts:
            seen.update(p.denote())
            if len(seen) > DENOTE_CAP:
                raise CapExceeded(f"union grew past cap {DENOTE_CAP}")
        return sorted(seen, key=lambda s: (len(s), s))


def _simple_parts(union: UnionSet) -> Iterator[SetDesc]:
    """The shapes a union joins, each nested union replaced by its parts:
    every other shape is simple."""
    for p in union.parts:
        if isinstance(p, UnionSet):
            yield from _simple_parts(p)
        else:
            yield p


def _intersection_size(parts: tuple[SetDesc, ...]) -> int:
    """Exact size of the intersection of simple shapes: accumulate the
    implied length / prefix / weight constraints and either count the
    surviving explicit strings or close the count combinatorially."""
    n: int | None = None
    prefix = ""
    weight: int | None = None
    finite: set[str] | None = None
    for p in parts:
        if isinstance(p, Singleton):
            finite = {p.x} if finite is None else finite & {p.x}
        elif isinstance(p, ListSet):
            s = set(p.elems)
            finite = s if finite is None else finite & s
        elif isinstance(p, All):
            if n is not None and n != p.n:
                return 0
            n = p.n
        elif isinstance(p, Cyl):
            if n is not None and n != p.n:
                return 0
            n = p.n
            short, long = sorted((prefix, p.prefix), key=len)
            if not long.startswith(short):
                return 0
            prefix = long
        elif isinstance(p, Hamming):
            if n is not None and n != p.n:
                return 0
            n = p.n
            if weight is not None and weight != p.s:
                return 0
            weight = p.s
        else:
            raise TypeError(f"not a simple shape: {p!r}")
    if finite is not None:
        return sum(
            1
            for x in finite
            if (n is None or len(x) == n)
            and x.startswith(prefix)
            and (weight is None or x.count("1") == weight)
        )
    assert n is not None  # only All/Cyl/Hamming left, and each sets n
    free = n - len(prefix)
    if weight is None:
        return 1 << free
    w_free = weight - prefix.count("1")
    if not 0 <= w_free <= free:
        return 0
    return math.comb(free, w_free)


class ListSet(SetDesc):
    __slots__ = ("elems",)

    def __init__(self, elems: tuple[str, ...]):
        if not elems:
            raise SetLangError("List needs at least 1 element")
        for e in elems:
            check_bits(e)
        object.__setattr__(self, "elems", elems)

    def member(self, x: str) -> bool:
        return x in self.elems

    def size(self) -> int:
        return len(set(self.elems))

    def denote(self) -> list[str]:
        return sorted(set(self.elems), key=lambda s: (len(s), s))


# -- encoding ----------------------------------------------------------------


def encode(desc: SetDesc) -> str:
    if isinstance(desc, Singleton):
        return "00" + std(desc.x)
    if isinstance(desc, All):
        return "01" + bar_nat(desc.n)
    if isinstance(desc, Cyl):
        return "100" + std(desc.prefix) + bar_nat(desc.n)
    if isinstance(desc, Hamming):
        return "101" + bar_nat(desc.n) + bar_nat(desc.s)
    if isinstance(desc, UnionSet):
        return "110" + bar_nat(len(desc.parts)) + "".join(encode(p) for p in desc.parts)
    if isinstance(desc, ListSet):
        return "111" + bar_nat(len(desc.elems)) + "".join(std(e) for e in desc.elems)
    raise TypeError(f"not a set description: {desc!r}")


def _read_desc(r: BitReader) -> SetDesc:
    tag = r.take(2)
    if tag == "00":
        return Singleton(r.read_std())
    if tag == "01":
        return All(r.read_bar_nat())
    tag += r.take(1)
    if tag == "100":
        prefix = r.read_std()
        return Cyl(prefix, r.read_bar_nat())
    if tag == "101":
        n = r.read_bar_nat()
        return Hamming(n, r.read_bar_nat())
    if tag == "110":
        count = r.read_bar_nat()
        if count < 2:
            raise SetLangError("Union count must be >= 2")
        return UnionSet(tuple(_read_desc(r) for _ in range(count)))
    count = r.read_bar_nat()
    if count < 1:
        raise SetLangError("List count must be >= 1")
    return ListSet(tuple(r.read_std() for _ in range(count)))


def decode(bits: str) -> SetDesc:
    r = BitReader(bits)
    try:
        desc = _read_desc(r)
    except CodeError as exc:
        raise SetLangError(f"malformed set code: {exc}") from exc
    if not r.at_end():
        raise SetLangError("trailing bits after set code")
    return desc


# -- textual syntax ----------------------------------------------------------


def format_setlang(desc: SetDesc) -> str:
    if isinstance(desc, Singleton):
        return f"singleton:{bits_to_text(desc.x)}"
    if isinstance(desc, All):
        return f"all:{desc.n}"
    if isinstance(desc, Cyl):
        return f"cyl:{bits_to_text(desc.prefix)}/{desc.n}"
    if isinstance(desc, Hamming):
        return f"ham:{desc.n},{desc.s}"
    if isinstance(desc, UnionSet):
        return "union(" + ",".join(format_setlang(p) for p in desc.parts) + ")"
    if isinstance(desc, ListSet):
        return "list{" + ",".join(bits_to_text(e) for e in desc.elems) + "}"
    raise TypeError(f"not a set description: {desc!r}")


def _split_top(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    # the ham:n,s form carries a bare comma, so rejoin its two halves
    merged: list[str] = []
    for p in parts:
        if merged and re.fullmatch(r"ham:\d+", merged[-1].strip()) and re.fullmatch(
            r"\d+", p.strip()
        ):
            merged[-1] = f"{merged[-1]},{p}"
        else:
            merged.append(p)
    return merged


def parse_setlang(text: str) -> SetDesc:
    text = text.strip()
    try:
        if text.startswith("singleton:"):
            return Singleton(text_to_bits(text[10:]))
        if text.startswith("all:"):
            return All(int(text[4:]))
        if text.startswith("cyl:"):
            prefix_text, _, n_text = text[4:].partition("/")
            return Cyl(text_to_bits(prefix_text), int(n_text))
        if text.startswith("ham:"):
            n_text, _, s_text = text[4:].partition(",")
            return Hamming(int(n_text), int(s_text))
        if text.startswith("union(") and text.endswith(")"):
            return UnionSet(tuple(parse_setlang(p) for p in _split_top(text[6:-1])))
        if text.startswith("list{") and text.endswith("}"):
            return ListSet(tuple(text_to_bits(e.strip()) for e in _split_top(text[5:-1])))
    except (ValueError, CodeError) as exc:
        raise SetLangError(f"bad model syntax {text!r}: {exc}") from exc
    raise SetLangError(f"bad model syntax {text!r}")
