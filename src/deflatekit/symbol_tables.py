"""Codepoint tables mapping match lengths and distances to (codepoint, extra bits).

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
"""

from __future__ import annotations

from .errors import InvalidCodepoint, InvalidLengthExtra, ValueOutOfRange

MIN_MATCH_LENGTH = 3
MAX_MATCH_LENGTH = 258
MAX_DISTANCE = 32768

# codepoint -> (extra_bits, base_length)
LENGTH_TABLE: dict[int, tuple[int, int]] = {
    257: (0, 3),
    258: (0, 4),
    259: (0, 5),
    260: (0, 6),
    261: (0, 7),
    262: (0, 8),
    263: (0, 9),
    264: (0, 10),
    265: (1, 11),
    266: (1, 13),
    267: (1, 15),
    268: (1, 17),
    269: (2, 19),
    270: (2, 23),
    271: (2, 27),
    272: (2, 31),
    273: (3, 35),
    274: (3, 43),
    275: (3, 51),
    276: (3, 59),
    277: (4, 67),
    278: (4, 83),
    279: (4, 99),
    280: (4, 115),
    281: (5, 131),
    282: (5, 163),
    283: (5, 195),
    284: (5, 227),
    285: (0, 258),
}

# codepoint -> (extra_bits, base_distance)
DISTANCE_TABLE: dict[int, tuple[int, int]] = {
    0: (0, 1),
    1: (0, 2),
    2: (0, 3),
    3: (0, 4),
    4: (1, 5),
    5: (1, 7),
    6: (2, 9),
    7: (2, 13),
    8: (3, 17),
    9: (3, 25),
    10: (4, 33),
    11: (4, 49),
    12: (5, 65),
    13: (5, 97),
    14: (6, 129),
    15: (6, 193),
    16: (7, 257),
    17: (7, 385),
    18: (8, 513),
    19: (8, 769),
    20: (9, 1025),
    21: (9, 1537),
    22: (10, 2049),
    23: (10, 3073),
    24: (11, 4097),
    25: (11, 6145),
    26: (12, 8193),
    27: (12, 12289),
    28: (13, 16385),
    29: (13, 24577),
}

# Distance codepoints that may appear in a coding but never in data.
FORBIDDEN_DISTANCE_CODEPOINTS = (30, 31)

# Order in which the code-length coding's own code lengths are stored
# in a dynamic block header.
CL_CODE_ORDER = (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)


def length_extra_bits(codepoint: int) -> int:
    """Number of extra bits codepoint 257..285 carries."""
    try:
        return LENGTH_TABLE[codepoint][0]
    except KeyError:
        raise InvalidCodepoint(f"{codepoint} is not a length codepoint") from None


def length_decode(codepoint: int, extra: int) -> int:
    """Match length named by (codepoint, extra)."""
    bits, base = LENGTH_TABLE.get(codepoint, (None, None))
    if base is None:
        raise InvalidCodepoint(f"{codepoint} is not a length codepoint")
    if not 0 <= extra < (1 << bits):
        raise ValueOutOfRange(f"extra value {extra} does not fit in {bits} bits")
    if codepoint == 284 and extra == 31:
        # 227 + 31 would be 258, which codepoint 285 owns.
        raise InvalidLengthExtra("length codepoint 284 with extra value 31")
    return base + extra


def length_encode(length: int) -> tuple[int, int, int]:
    """Encode a match length as (codepoint, extra, extra_bits).

    Always picks the unique codepoint whose range covers the length;
    258 maps to codepoint 285, never to 284 with extra 31.
    """
    if not MIN_MATCH_LENGTH <= length <= MAX_MATCH_LENGTH:
        raise ValueOutOfRange(f"match length {length} not in 3..258")
    if length == MAX_MATCH_LENGTH:
        return 285, 0, 0
    # Ranges tile 3..257 in codepoint order; scan is fine for table size.
    for cp in range(284, 256, -1):
        bits, base = LENGTH_TABLE[cp]
        if base <= length:
            return cp, length - base, bits
    raise AssertionError("unreachable: length ranges tile 3..257")


def distance_extra_bits(codepoint: int) -> int:
    """Number of extra bits distance codepoint 0..29 carries."""
    try:
        return DISTANCE_TABLE[codepoint][0]
    except KeyError:
        raise InvalidCodepoint(f"{codepoint} is not a usable distance codepoint") from None


def distance_decode(codepoint: int, extra: int) -> int:
    """Distance named by (codepoint, extra)."""
    bits, base = DISTANCE_TABLE.get(codepoint, (None, None))
    if base is None:
        raise InvalidCodepoint(f"{codepoint} is not a usable distance codepoint")
    if not 0 <= extra < (1 << bits):
        raise ValueOutOfRange(f"extra value {extra} does not fit in {bits} bits")
    return base + extra


def distance_encode(distance: int) -> tuple[int, int, int]:
    """Encode a distance as (codepoint, extra, extra_bits)."""
    if not 1 <= distance <= MAX_DISTANCE:
        raise ValueOutOfRange(f"distance {distance} not in 1..32768")
    for cp in range(29, -1, -1):
        bits, base = DISTANCE_TABLE[cp]
        if base <= distance:
            return cp, distance - base, bits
    raise AssertionError("unreachable: distance ranges tile 1..32768")


# The tables flattened for the codec's inner loops, built once at
# import; the functions above stay the spec that the tests hold them to.
# (extra_bits, base) of length codepoints 257..285 and distance
# codepoints 0..29, indexed from 0.
LENGTH_CODES = tuple(LENGTH_TABLE[cp] for cp in range(257, 286))
DISTANCE_CODES = tuple(DISTANCE_TABLE[cp] for cp in range(30))
# Match length 3..258 -> (codepoint, extra, extra_bits).
LENGTH_ENCODING = (None,) * MIN_MATCH_LENGTH + tuple(
    length_encode(n) for n in range(MIN_MATCH_LENGTH, MAX_MATCH_LENGTH + 1)
)
# Distance 1..32768 -> codepoint, as bytes (index 0 unused).
DISTANCE_CODEPOINT = bytes(1) + b"".join(
    bytes([cp]) * (1 << bits) for cp, (bits, _) in enumerate(DISTANCE_CODES)
)
