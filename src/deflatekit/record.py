"""``Record``, the value semantics of a frozen dataclass on ``__slots__``.

The codec's small record types (``CompressParams`` and inflate's parse
outcomes and headers) subclass it instead of using
``@dataclass(frozen=True)``: ``dataclasses`` imports ``inspect``, with
``ast``, ``dis`` and ``tokenize``, and generates each class's methods
at import, which would make ``import deflatekit`` several times slower,
and every CLI call pays for the import.  A subclass names its fields in
``__slots__``, in constructor order, and writes its ``__init__`` by
hand, storing each field with ``set_field``.
"""

from __future__ import annotations

# Stores a field past Record.__setattr__; a subclass's __init__ alone uses it.
set_field = object.__setattr__


class Record:
    """Equal by class and fields, hashed on its fields, read-only once built.

    ``repr`` lists the fields by name, as a dataclass's does, and any
    attribute assignment or deletion raises AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copying and pickling rebuild through __init__, which can store fields.
        return type(self), self._values()
