"""Canonical prefix-free codings determined by code-length vectors.

A coding maps every character 0..n-1 of an alphabet to a bit sequence;
the empty sequence marks a character that cannot appear.  The codings
used by deflate are *canonical*: the code-length vector alone pins the
coding down completely.  Canonicity is captured by four rules over the
nonempty codes (lexicographic order on bit sequences, where a proper
prefix sorts before its extensions):

1. prefix-free: no nonempty code is a prefix of another character's code;
2. shorter codes sort lexicographically before (or equal to) longer ones;
3. codes of equal length appear in character order;
4. no gaps: every bit sequence of some code's length that sorts at or
   below that code has a nonempty code as prefix.

Rules 1-4 force each length class to occupy a dense range of values
starting right after the (doubled) end of the previous class: one walk,
``check_lengths``, gives each class its first value (RFC 1951 section
3.2.2's ``next_code``).  Each half of a coding has one builder fed by that
walk.  ``DeflateCoding(lengths, max_len)`` (also named ``build_coding``)
is the decoder's half, the lookup table that one resolver,
``DeflateCoding.entry``, reads; ``canonical_codes`` is the writer's half,
each code's integer value and its bit-reversed stream code.
``FIXED_LIT`` and ``FIXED_DIST`` are the static-block codings.  The
paper's other construction, by sorting the characters
(``build_coding_sorted``), and the four-rule checker are reference models
in ``deflatekit.reference`` that the tests hold this construction to.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, groupby

from .bitio import read_bits
from .errors import FailReason, InflateError, KraftViolation, LengthOverflow, ValueOutOfRange

# Longest code either deflate coding layer allows.
MAX_CODE_LENGTH = 15
# The coding that encodes the dynamic header's code lengths is shallower.
MAX_CL_CODE_LENGTH = 7
# Stream bits a coding's primary table indexes (libdeflate's LITLEN_TABLEBITS).
_TABLE_BITS = 11

# Each byte bit-reversed: masking b's five copies and summing them mod 1023 puts each bit in place.
_REVERSED_BYTE = bytes((b * 0x0202020202 & 0x010884422010) % 1023 for b in range(256))


def check_lengths(lengths: Sequence[int], max_len: int = MAX_CODE_LENGTH) -> tuple[bytes, list]:
    """Check a length vector, then walk its codes in canonical order.

    Raises for a max_len that is no int (a bool is none) or is outside
    1..15, then at the first character whose length is no int or is
    outside 0..max_len, then for a Kraft sum above 1.  A ``bytes`` or
    ``bytearray`` vector, as the codec passes, is screened at C speed;
    any other goes through one loop.  Returns the vector as bytes and its
    classes by length, each ``(length, first value, characters)``, a first
    value being one past the last value before it, shifted left by the
    growth in length."""
    if isinstance(max_len, bool) or not isinstance(max_len, int):
        raise ValueOutOfRange(f"max_len must be an int, not {type(max_len).__name__}")
    if not 1 <= max_len <= MAX_CODE_LENGTH:
        bound = "at least 1" if max_len < 1 else f"at most {MAX_CODE_LENGTH}"
        raise ValueOutOfRange(f"max_len {max_len} must be {bound}")
    # Bytes hold a length above max_len when deleting every length 0..max_len leaves some.
    if not isinstance(lengths, (bytes, bytearray)) or lengths.translate(
            None, bytes(range(max_len + 1))):
        for ch, l in enumerate(lengths):
            if isinstance(l, bool) or not isinstance(l, int):  # bytes() would take a bool as 1
                raise ValueOutOfRange(f"length {l!r} of character {ch} is not an int")
            if not 0 <= l <= max_len:
                error, bound = (ValueOutOfRange, "is negative") if l < 0 else (
                    LengthOverflow, f"exceeds the maximum {max_len}")
                raise error(f"length {l} of character {ch} {bound}")
    packed = bytes(lengths)
    order = sorted(compress(range(len(packed)), packed), key=packed.__getitem__)
    classes = []
    value = width = 0
    for length, chars in groupby(order, packed.__getitem__):
        chars = list(chars)
        value <<= length - width
        width = length
        classes.append((length, value, chars))
        value += len(chars)
    if value > 1 << width:  # value / 2**width is the Kraft sum
        from fractions import Fraction  # only this error message needs it
        kraft = Fraction(value, 1 << width)
        raise KraftViolation(f"code-length vector is over-subscribed: sum of 2**-l is {kraft} > 1")
    return packed, classes


def canonical_codes(lengths: Sequence[int], max_len: int = MAX_CODE_LENGTH) -> tuple:
    """The writer's half of a coding, ``(values, stream_codes)``, checked by
    ``check_lengths``: ``values[ch]`` is ch's code as an integer read
    leftmost bit first, and ``stream_codes[ch]`` is ``(reversed value,
    length)``, which written as an LSB-first field puts the leftmost code
    bit first; ``(0, 0)`` where ch has no code."""
    packed, classes = check_lengths(lengths, max_len)
    values = [0] * len(packed)
    stream_codes = [(0, 0)] * len(packed)
    for length, value, chars in classes:
        for value, ch in enumerate(chars, value):
            values[ch] = value
            # The value reversed over 16 bits, less the 16 - length padding.
            rev = (_REVERSED_BYTE[value & 255] << 8 | _REVERSED_BYTE[value >> 8]) >> (16 - length)
            stream_codes[ch] = (rev, length)
    return tuple(values), tuple(stream_codes)


class DeflateCoding:
    """The decoder's half of the canonical coding of characters 0..n-1 for a length vector.

    The vector is checked by ``check_lengths``; ``lengths[ch]`` is the
    code length of ch (0: no code), and a Kraft sum of at most 1 keeps
    every code within its width.  The constructor builds from the walk
    ``table`` (zlib ``inftrees.c``), which maps each ``table_bits`` =
    min(11, longest code) stream bits, least significant first, to
    ``(symbol << 4) | length`` for the code of at most ``table_bits``
    bits they begin with, else -1.  It doubles as the walk reaches each
    longer length, so an index's low bits still pick a shorter code's
    entry and each code fills one slot.  A dict maps each longer code, as
    ``rev << 4 | length``, to the same packed entry; ``entry`` resolves
    bits already read through both.

    The writer's half is ``canonical_codes`` of the same lengths;
    ``reference.bit_codes`` gives the codes as tuples of bits, and
    ``reference.check_axioms`` screens any such table.  Instances are
    value-like: the lengths fix the codes, so equality is by lengths.
    """

    __slots__ = ("lengths", "table_bits", "table", "_long_codes", "_longest")

    def __init__(self, lengths: Sequence[int], max_len: int = MAX_CODE_LENGTH):
        packed, classes = check_lengths(lengths, max_len)
        self.lengths = tuple(packed)
        # A coding with no codes is legitimate (a block that never uses
        # distances); reads then fail at the read position.
        self._longest = longest = classes[-1][0] if classes else 0
        self.table_bits = bits = min(_TABLE_BITS, longest)
        table = [-1]  # over `level` index bits; doubled as the lengths rise
        self._long_codes = long_codes = {}
        reverse = _REVERSED_BYTE
        level = 0
        for length, value, chars in classes:
            if length <= bits:
                table *= 1 << (length - level)
                level = length
            for ch in chars:  # each value reversed, as in canonical_codes
                rev = (reverse[value & 255] << 8 | reverse[value >> 8]) >> (16 - length)
                if length <= bits:
                    table[rev] = ch << 4 | length
                else:
                    long_codes[rev << 4 | length] = ch << 4 | length
                value += 1
        table *= 1 << (bits - level)
        self.table = table

    def __eq__(self, other) -> bool:
        if isinstance(other, DeflateCoding):
            return self.lengths == other.lengths
        return NotImplemented

    def __hash__(self):
        return hash(self.lengths)

    def __repr__(self) -> str:
        values = canonical_codes(self.lengths)[0]
        shown = {ch: f"{v:0{l}b}" for ch, (v, l) in enumerate(zip(values, self.lengths)) if l}
        return f"DeflateCoding({shown})"

    def entry(self, bits: int, avail: int, bit_pos: int) -> int:
        """The ``(character << 4) | length`` of the code ``bits`` begin with.

        ``bits`` are the stream bits from ``bit_pos`` on, least
        significant first, of which only the low ``avail`` count: the
        table is asked first (bits above ``avail`` may fill its index,
        but a hit counts only if no longer than ``avail``), then the dict
        for each longer prefix up to the longest code.  Raises
        ``InflateError``: END_OF_INPUT at ``bit_pos + avail`` when fewer
        bits than the longest code begin no code, else BAD_CODE at
        ``bit_pos``.
        """
        length = self.table_bits
        entry = self.table[bits & ((1 << length) - 1)]
        stop = min(avail, self._longest)
        while entry < 0 and length < stop:
            length += 1
            entry = self._long_codes.get((bits & ((1 << length) - 1)) << 4 | length, -1)
        if 0 <= entry and entry & 15 <= avail:
            return entry
        if avail < self._longest:
            raise InflateError(FailReason.END_OF_INPUT, bit_pos + avail)
        raise InflateError(FailReason.BAD_CODE, bit_pos)

    def read_symbol(self, data: bytes, bit_pos: int, bit_end: int) -> tuple[int, int]:
        """Decode one code starting at bit_pos; returns (character, next position).

        Reads up to the longest code's bits, never past bit_end, and
        resolves them with ``entry``, whose ``InflateError`` is BAD_CODE
        when they begin no code, END_OF_INPUT when bit_end comes first.
        """
        avail = min(bit_end - bit_pos, self._longest)
        entry = self.entry(read_bits(data, bit_pos, avail, bit_end)[0], avail, bit_pos)
        return entry >> 4, bit_pos + (entry & 15)


# The construction's other name; inflate builds each dynamic block's codings by it.
build_coding = DeflateCoding


# -- the two fixed codings --------------------------------------------

# The static-block literal/length coding over the 288-character alphabet.
FIXED_LIT = DeflateCoding(bytes([8] * 144 + [9] * 112 + [7] * 24 + [8] * 8))
# The static-block distance coding: 32 five-bit codes.
FIXED_DIST = DeflateCoding(bytes([5] * 32))
