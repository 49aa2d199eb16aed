"""The base of the library's validating records.

A plain immutable value (a report, a row) is a ``typing.NamedTuple``. A
record that checks its arguments, belongs to a class family or keeps a
field out of its identity derives from ``Record`` instead: its fields are
its class's ``__slots__``, and its own ``__init__`` checks the arguments
and sets each field once through ``object.__setattr__``. Neither kind runs
generated code when its class is made, which matters because every CLI
call creates every class it imports.

Records compare and hash with their class, so two records of different
classes with equal fields stay distinct as dict keys.
"""

from __future__ import annotations


class Record:
    """An immutable record whose fields are its class's ``__slots__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        """The fields that make up the record's identity, in slot order."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values()
