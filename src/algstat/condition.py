"""The machine's interface: what a run is given besides its program.

A run reads a condition (nothing, a bit string, or a model whose
Shannon–Fano codebook the SFDECODE opcode decodes) under step and output
budgets. Tables are keyed by the machine version and a condition's
fingerprint, a SHA-256 of its canonical text. The interpreter that runs a
single program, ``machine.run``, is loaded only by the callers that run one;
everything that builds, caches or reads a table needs only these names.
"""

from __future__ import annotations

import functools
from typing import Protocol, runtime_checkable

from ._record import Record
from .bits import bits_to_text, check_bits

MACHINE_VERSION = "tpm1-v1"

DEFAULT_MAX_STEPS = 100_000
DEFAULT_MAX_OUTPUT = 4096


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
