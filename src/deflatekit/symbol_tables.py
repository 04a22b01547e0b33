"""Codepoint tables for match lengths and distances, and the tokens they code.

Match lengths 3..258 are carried by codepoints 257..285 and distances
1..32768 by codepoints 0..29.  Each codepoint names a base value and a
count of extra bits; the extra bits (packed LSB-first in the stream)
select one value inside the codepoint's range.  Ranges tile their
domain contiguously and without overlap.

Two quirks of the length table:

* codepoint 285 encodes exactly 258 with no extra bits;
* codepoint 284 carries 5 extra bits but only the values 0..30 are
  meaningful (lengths 227..257).  The extra value 31 would alias
  length 258, which must use codepoint 285 instead, so a decoder
  rejects it.

Distance codepoints 30 and 31 exist in the coding alphabet but are
forbidden in actual data.

The tables here are the flat ones the decoder and the block writer
index; the tests hold them to the RFC 1951 spec in ``deflatekit.reference``.

The tokens live here too, which ``tokenize`` emits, the block writer
codes and the decoder yields: ``Literal`` (with ``LITERALS``, one
shared token per byte value), ``BackRef`` <length, distance> and the
``END_OF_BLOCK`` marker.  A backreference copies ``length`` bytes
starting ``distance`` bytes back from the end of the output so far,
one byte at a time, so a length may exceed its distance: the copied
bytes become sources for its own later bytes, which is how short
periodic runs are spelled.  Distances never exceed ``WINDOW_SIZE``.
"""

from __future__ import annotations

import enum

from .errors import InvalidCodepoint, ValueOutOfRange

MIN_MATCH_LENGTH = 3
MAX_MATCH_LENGTH = 258
WINDOW_SIZE = 32768

# (extra_bits, base_length) of length codepoints 257..285, indexed from 0.
LENGTH_CODES = (
    (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10),
    (1, 11), (1, 13), (1, 15), (1, 17), (2, 19), (2, 23), (2, 27), (2, 31),
    (3, 35), (3, 43), (3, 51), (3, 59), (4, 67), (4, 83), (4, 99), (4, 115),
    (5, 131), (5, 163), (5, 195), (5, 227), (0, 258),
)
# (extra_bits, base_distance) of distance codepoints 0..29.
DISTANCE_CODES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 7), (2, 9), (2, 13),
    (3, 17), (3, 25), (4, 33), (4, 49), (5, 65), (5, 97), (6, 129), (6, 193),
    (7, 257), (7, 385), (8, 513), (8, 769), (9, 1025), (9, 1537),
    (10, 2049), (10, 3073), (11, 4097), (11, 6145),
    (12, 8193), (12, 12289), (13, 16385), (13, 24577),
)


# The two-bit BTYPE field of a block header; 3 is reserved.
class BlockType(enum.IntEnum):
    STORED = 0
    STATIC = 1
    DYNAMIC = 2


# Order in which the code-length coding's own code lengths are stored
# in a dynamic block header.
CL_CODE_ORDER = (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)
# (extra_bits, base_count) of code-length symbols 16..18, indexed from 0:
# 16 repeats the previous length 3..6 times, 17 writes 3..10 zeros and
# 18 writes 11..138 zeros.
REPEAT_CODES = ((2, 3), (3, 3), (7, 11))


def length_extra_bits(codepoint: int) -> int:
    """Number of extra bits codepoint 257..285 carries."""
    if not 257 <= codepoint <= 285:
        raise InvalidCodepoint(f"{codepoint} is not a length codepoint")
    return LENGTH_CODES[codepoint - 257][0]


def distance_extra_bits(codepoint: int) -> int:
    """Number of extra bits distance codepoint 0..29 carries."""
    if not 0 <= codepoint <= 29:
        raise InvalidCodepoint(f"{codepoint} is not a usable distance codepoint")
    return DISTANCE_CODES[codepoint][0]


# Match length 3..258 -> (codepoint, extra, extra_bits), each range in
# codepoint order; 284 stops at 257, and 258 is 285's alone.
LENGTH_ENCODING = (None,) * MIN_MATCH_LENGTH + tuple(
    (cp, extra, bits)
    for cp, (bits, base) in enumerate(LENGTH_CODES[:-1], 257)
    for extra in range(min(1 << bits, MAX_MATCH_LENGTH - base))
) + ((285, 0, 0),)
# Distance 1..32768 -> codepoint, as bytes (index 0 unused).
DISTANCE_CODEPOINT = bytes(1) + b"".join(
    bytes([cp]) * (1 << bits) for cp, (bits, _) in enumerate(DISTANCE_CODES)
)


# -- token vocabulary ---------------------------------------------------
#
# Plain __slots__ classes, not named tuples as the codec's records
# (``record.Record``) are: tokens are minted in the innermost codec
# loops, where construction cost is visible.  Treat them as immutable.


class Literal:
    """A single plain byte."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not 0 <= value <= 255:
            raise ValueOutOfRange(f"literal byte {value} not in 0..255")
        self.value = value

    def __eq__(self, other):
        return type(other) is Literal and other.value == self.value

    def __hash__(self):
        return hash((Literal, self.value))

    def __repr__(self):
        return f"Literal({self.value})"


# One shared token per byte value, so a literal costs no construction.
LITERALS = tuple(Literal(v) for v in range(256))


class BackRef:
    """Copy ``length`` bytes from ``distance`` bytes back."""

    __slots__ = ("length", "distance")

    def __init__(self, length: int, distance: int):
        if not 3 <= length <= 258:
            raise ValueOutOfRange(f"match length {length} not in 3..258")
        if not 1 <= distance <= WINDOW_SIZE:
            raise ValueOutOfRange(f"distance {distance} not in 1..{WINDOW_SIZE}")
        self.length = length
        self.distance = distance

    def __eq__(self, other):
        return (
            type(other) is BackRef
            and other.length == self.length
            and other.distance == self.distance
        )

    def __hash__(self):
        return hash((BackRef, self.length, self.distance))

    def __repr__(self):
        return f"BackRef({self.length}, {self.distance})"


class EndOfBlock:
    """Marks the end of one compressed block; produces no bytes."""

    __slots__ = ()

    def __repr__(self):
        return "EndOfBlock()"


END_OF_BLOCK = EndOfBlock()
