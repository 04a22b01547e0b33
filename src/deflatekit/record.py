"""``Record``, the mixin that makes a named tuple compare as a value.

Each record type (``CompressParams`` and inflate's parse outcomes and
headers) is a ``collections.namedtuple`` subclass with ``Record`` first
in its bases and ``__slots__ = ()``.  The named tuple gives the fields,
defaults, ``repr``, read-only attributes and pickling, at a fraction of
the import cost of ``dataclasses``.  Records iterate, index and order as
tuples do.
"""

from __future__ import annotations


class Record:
    """Equal only to a record of its class with equal fields; hashed as its field tuple."""

    __slots__ = ()

    # False, not NotImplemented: a plain tuple would then compare the fields.
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__
