"""Bit strings, the canonical string<->natural bijection and the
self-delimiting codes used everywhere else.

A bit string is a plain ``str`` containing only '0'/'1'; the empty
string is valid and written "-" in files and on the command line.

The numbering enumerates strings in (length, lexicographic) order:
nat_to_bits: 0->'', 1->'0', 2->'1', 3->'00', 4->'01', ...

Codes:
    bar(x)  = 1^len(x) 0 x                 (unary-prefixed, 2*len(x)+1 bits)
    std(x)  = bar(nat_to_bits(len(x))) x   (length-prefixed)
    pair(x, y) = std(x) y                  (y recovered as the remainder)
"""

from __future__ import annotations

EMPTY_MARKER = "-"


class CodeError(ValueError):
    """A bit stream does not parse as the expected code."""


def is_bits(s: str) -> bool:
    # strip() removes every leading and trailing '0'/'1' in one C-level
    # pass, so nothing is left exactly when the string holds no other char
    return isinstance(s, str) and not s.strip("01")


def check_bits(s: str) -> str:
    if not is_bits(s):
        raise CodeError(f"not a bit string: {s!r}")
    return s


def bits_to_text(s: str) -> str:
    """Serialize for files/CLI: the empty string becomes '-'."""
    return s if s else EMPTY_MARKER


def text_to_bits(t: str) -> str:
    """Inverse of bits_to_text."""
    if t == EMPTY_MARKER:
        return ""
    return check_bits(t)


def nat_to_bits(n: int) -> str:
    """n-th string in (length, lex) order; bijective with the naturals."""
    if n < 0:
        raise ValueError("negative natural")
    # n+1 in binary with the leading 1 removed.
    return bin(n + 1)[3:]


def bits_to_nat(s: str) -> int:
    check_bits(s)
    return int("1" + s, 2) - 1


def bar(x: str) -> str:
    check_bits(x)
    return "1" * len(x) + "0" + x


def bar_nat(n: int) -> str:
    return bar(nat_to_bits(n))


def std(x: str) -> str:
    check_bits(x)
    return bar_nat(len(x)) + x


def pair(x: str, y: str) -> str:
    check_bits(y)
    return std(x) + y


def nat_len(n: int) -> int:
    """len(nat_to_bits(n)) without building the string."""
    if n < 0:
        raise ValueError("negative natural")
    return (n + 1).bit_length() - 1


def bar_len(x_len: int) -> int:
    return 2 * x_len + 1


def std_len(x_len: int) -> int:
    return bar_len(nat_len(x_len)) + x_len


def pair_len(x_len: int, y_len: int) -> int:
    return std_len(x_len) + y_len


class BitReader:
    """Sequential reader over a bit string for exact code decoding."""

    def __init__(self, bits: str):
        self.bits = check_bits(bits)
        self.pos = 0

    def remaining(self) -> int:
        return len(self.bits) - self.pos

    def at_end(self) -> bool:
        return self.pos == len(self.bits)

    def take(self, n: int) -> str:
        if self.remaining() < n:
            raise CodeError("bit stream ended early")
        out = self.bits[self.pos : self.pos + n]
        self.pos += n
        return out

    def read_bar(self) -> str:
        ones = 0
        while True:
            if self.at_end():
                raise CodeError("bit stream ended inside a bar() prefix")
            c = self.bits[self.pos]
            self.pos += 1
            if c == "0":
                break
            ones += 1
        return self.take(ones)

    def read_bar_nat(self) -> int:
        return bits_to_nat(self.read_bar())

    def read_std(self) -> str:
        return self.take(self.read_bar_nat())


def unpair(p: str) -> tuple[str, str]:
    r = BitReader(p)
    x = r.read_std()
    return x, p[r.pos :]


def ceil_log2_ratio(num: int, den: int) -> int:
    """Exact ceil(log2(num/den)) for positive integers."""
    if num <= 0 or den <= 0:
        raise ValueError("ratio must be positive")
    # Smallest e with num/den <= 2^e  <=>  num <= den * 2^e.
    e = num.bit_length() - den.bit_length()
    if den << max(e, 0) < num << max(-e, 0):
        e += 1
    return e


def ceil_log2(n: int) -> int:
    """Exact ceil(log2(n)) for positive n."""
    return ceil_log2_ratio(n, 1)


def _fmt_real(v: float) -> str:
    """Deterministic decimal form with documented 1e-9 precision. A real
    that rounds to zero prints ``0`` whatever its sign."""
    text = f"{v:.9f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text
