"""The reference machine: a tiny, total, self-delimiting instruction set.

Machine version "tpm1-v1". A program is a bit string that decodes into a
stream of opcodes whose last token is HALT; because the opcode table is a
prefix code and decoding stops at HALT, the set of halting programs is
prefix-free by construction. There are no loops or jumps, so every run
terminates: the possible outcomes are exactly the RunOutcome statuses.

Opcode table (prefix code):

    00      EMIT0      append '0' to the output buffer          1 step
    01      EMIT1      append '1'                               1 step
    100     HALT       stop; output = buffer                    1 step
    101cc   COPYIN     copy 2^cc bits (cc in 00/01/10/11 ->
                       1/2/4/8) from a Str condition at a
                       sequential pointer                       1 step/bit
    1100    DOUBLE     buffer := buffer + buffer                max(1,|buf|) steps
    1101    FLIP       buffer := buffer + complement(buffer)    max(1,|buf|) steps
    1110    SFDECODE   consume one canonical-codebook codeword
                       from the *program* bits (condition must
                       be a model), append the decoded element  |codeword| steps
    1111    reserved   always Diverged

Failure-mode precedence within one token: decode errors (InvalidPrefix)
before semantic errors (Diverged) before the step budget (OutOfSteps)
before the output budget (OutOfOutput). A stream whose decode reaches
HALT with bits left over is Diverged (it is not a program; halting
programs consume their whole bit string).
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple, Protocol, runtime_checkable

from ._record import Record
from .bits import bits_to_text, check_bits

MACHINE_VERSION = "tpm1-v1"

DEFAULT_MAX_STEPS = 100_000
DEFAULT_MAX_OUTPUT = 4096

_COMPLEMENT = str.maketrans("01", "10")


@functools.cache
def _sha256_constructor():
    # Cached: a module that cannot be imported is not kept in sys.modules,
    # so before Python 3.12 each `from _sha2 import ...` would search
    # sys.path again.
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def sha256(data: bytes | memoryview = b""):
    """A SHA-256 hash object fed ``data``: the one hash behind condition
    fingerprints and table seals. It comes from CPython's own module where
    there is one, as ``random.py`` takes it, imported at the first call:
    the digests are those of ``hashlib``, which maps OpenSSL into the
    process."""
    return _sha256_constructor()(data)


class Op(enum.Enum):
    EMIT0 = "00"
    EMIT1 = "01"
    HALT = "100"
    COPYIN = "101"  # plus two cc bits
    DOUBLE = "1100"
    FLIP = "1101"
    SFDECODE = "1110"
    RESERVED = "1111"


class OpToken(NamedTuple):
    op: Op
    consumed: int
    copy_n: int = 0  # bits copied, COPYIN only


_COPY_COUNTS = {"00": 1, "01": 2, "10": 4, "11": 8}


def opcode_decode(stream: str, offset: int = 0) -> OpToken | None:
    """Decode the opcode token starting at ``offset``.

    Returns None when the remaining bits are a proper prefix of every
    codeword (the stream ends mid-token).
    """
    n = len(stream) - offset
    if n <= 0:
        return None
    b = stream[offset]
    if b == "0":
        if n < 2:
            return None
        return OpToken(Op.EMIT0 if stream[offset + 1] == "0" else Op.EMIT1, 2)
    if n < 2:
        return None
    if stream[offset + 1] == "0":
        if n < 3:
            return None
        if stream[offset + 2] == "0":
            return OpToken(Op.HALT, 3)
        if n < 5:
            return None
        cc = stream[offset + 3 : offset + 5]
        return OpToken(Op.COPYIN, 5, _COPY_COUNTS[cc])
    if n < 4:
        return None
    tail = stream[offset + 2 : offset + 4]
    return OpToken(
        {"00": Op.DOUBLE, "01": Op.FLIP, "10": Op.SFDECODE, "11": Op.RESERVED}[tail],
        4,
    )


@runtime_checkable
class ConditionModel(Protocol):
    """What a model condition must expose to the machine.

    ``code`` is the model's prefix-free description (used for condition
    fingerprints); ``codebook_pairs`` lists (codeword, element) in
    canonical order with the codewords forming a prefix-free code;
    ``max_codeword_len`` is the length of the longest of those codewords
    (0 for an empty book), found without building the book.
    """

    code: str

    def codebook_pairs(self) -> list[tuple[str, str]]: ...

    def max_codeword_len(self) -> int: ...


class Condition:
    """Auxiliary input: nothing, a bit string, or a decodable model."""

    __slots__ = ("kind", "bits", "model", "_book", "_book_prefixes", "_serial")

    NONE_KIND = "none"
    STR_KIND = "str"
    MODEL_KIND = "model"

    def __init__(self, kind: str, bits: str = "", model: ConditionModel | None = None):
        self.kind = kind
        self.bits = bits
        self.model = model
        self._book: dict[str, str] | None = None
        self._book_prefixes: set[str] | None = None
        self._serial: str | None = None

    @classmethod
    def none(cls) -> "Condition":
        return cls(cls.NONE_KIND)

    @classmethod
    def string(cls, bits: str) -> "Condition":
        return cls(cls.STR_KIND, bits=check_bits(bits))

    @classmethod
    def of_model(cls, model: ConditionModel) -> "Condition":
        return cls(cls.MODEL_KIND, model=model)

    def serial(self) -> str:
        """Canonical text form; the fingerprint hashes this."""
        if self._serial is None:
            if self.kind == self.NONE_KIND:
                self._serial = "none"
            elif self.kind == self.STR_KIND:
                self._serial = f"str {bits_to_text(self.bits)}"
            else:
                assert self.model is not None
                self._serial = f"model {bits_to_text(self.model.code)}"
        return self._serial

    def fingerprint(self) -> str:
        return sha256(self.serial().encode("ascii")).hexdigest()

    def sf_book(self) -> tuple[dict[str, str], set[str]]:
        """Codeword->element map plus the set of proper codeword prefixes."""
        if self._book is None:
            assert self.model is not None
            book: dict[str, str] = {}
            prefixes: set[str] = set()
            for cw, elem in self.model.codebook_pairs():
                book[cw] = elem
                for i in range(len(cw)):
                    prefixes.add(cw[:i])
            self._book = book
            self._book_prefixes = prefixes
        return self._book, self._book_prefixes  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Condition({self.serial()!r})"


class Budgets(Record):
    __slots__ = ("max_steps", "max_output")

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS, max_output: int = DEFAULT_MAX_OUTPUT):
        if max_steps < 1 or max_output < 0:
            raise ValueError("budgets must satisfy max_steps >= 1, max_output >= 0")
        object.__setattr__(self, "max_steps", max_steps)
        object.__setattr__(self, "max_output", max_output)


class Status(enum.Enum):
    HALTED = "halted"
    OUT_OF_STEPS = "out-of-steps"
    OUT_OF_OUTPUT = "out-of-output"
    DIVERGED = "diverged"
    INVALID_PREFIX = "invalid-prefix"


class RunOutcome(NamedTuple):
    status: Status
    output: str | None = None
    steps: int = 0
    consumed: int = 0

    @property
    def halted(self) -> bool:
        return self.status is Status.HALTED


def run(program_bits: str, cond: Condition | None = None, budgets: Budgets | None = None) -> RunOutcome:
    """Execute a bit string. Deterministic; never raises on machine-level
    failures (they are encoded in the outcome status)."""
    check_bits(program_bits)
    if cond is None:
        cond = Condition.none()
    if budgets is None:
        budgets = Budgets()
    max_steps, max_output = budgets.max_steps, budgets.max_output

    pos = 0
    steps = 0
    buf: list[str] = []  # chunks; total length tracked separately
    buf_len = 0
    ptr = 0
    n = len(program_bits)

    def fail(status: Status) -> RunOutcome:
        return RunOutcome(status, None, steps, pos)

    while True:
        tok = opcode_decode(program_bits, pos)
        if tok is None:
            return fail(Status.INVALID_PREFIX)
        op = tok.op

        if op is Op.HALT:
            if pos + tok.consumed != n:
                return fail(Status.DIVERGED)
            if steps + 1 > max_steps:
                return fail(Status.OUT_OF_STEPS)
            return RunOutcome(Status.HALTED, "".join(buf), steps + 1, n)

        if op in (Op.EMIT0, Op.EMIT1):
            if steps + 1 > max_steps:
                return fail(Status.OUT_OF_STEPS)
            if buf_len + 1 > max_output:
                return fail(Status.OUT_OF_OUTPUT)
            buf.append("0" if op is Op.EMIT0 else "1")
            buf_len += 1
            steps += 1

        elif op is Op.COPYIN:
            if cond.kind != Condition.STR_KIND:
                return fail(Status.DIVERGED)
            m = tok.copy_n
            if ptr + m > len(cond.bits):
                return fail(Status.DIVERGED)
            if steps + m > max_steps:
                return fail(Status.OUT_OF_STEPS)
            if buf_len + m > max_output:
                return fail(Status.OUT_OF_OUTPUT)
            buf.append(cond.bits[ptr : ptr + m])
            buf_len += m
            ptr += m
            steps += m

        elif op in (Op.DOUBLE, Op.FLIP):
            cost = max(1, buf_len)
            if steps + cost > max_steps:
                return fail(Status.OUT_OF_STEPS)
            if 2 * buf_len > max_output:
                return fail(Status.OUT_OF_OUTPUT)
            whole = "".join(buf)
            buf = [whole, whole if op is Op.DOUBLE else whole.translate(_COMPLEMENT)]
            buf_len *= 2
            steps += cost

        elif op is Op.SFDECODE:
            if cond.kind != Condition.MODEL_KIND:
                return fail(Status.DIVERGED)
            book, prefixes = cond.sf_book()
            rest_start = pos + tok.consumed
            match_cw: str | None = None
            probe_end = rest_start
            while True:
                probe = program_bits[rest_start:probe_end]
                if probe in book:
                    match_cw = probe
                    break
                if probe not in prefixes:
                    # No codeword can extend this probe.
                    return fail(Status.DIVERGED)
                if probe_end >= n:
                    # Stream ends inside a codeword.
                    return fail(Status.INVALID_PREFIX)
                probe_end += 1
            elem = book[match_cw]
            cw_len = len(match_cw)
            if steps + cw_len > max_steps:
                return fail(Status.OUT_OF_STEPS)
            if buf_len + len(elem) > max_output:
                return fail(Status.OUT_OF_OUTPUT)
            buf.append(elem)
            buf_len += len(elem)
            steps += cw_len
            pos += cw_len  # the opcode's 4 bits are added below

        else:  # reserved
            return fail(Status.DIVERGED)

        pos += tok.consumed
