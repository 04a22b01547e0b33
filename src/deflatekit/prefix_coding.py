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
starting right after the (doubled) end of the previous class: the one
construction, ``DeflateCoding(lengths, max_len)`` (also named
``build_coding``), assigns them from the characters counted per length
(RFC 1951 section 3.2.2).  A coding reads the stream in one resolver,
``DeflateCoding.entry``, on stream bits already read.

A length vector is a plain sequence of ints, one per character, 0
meaning no code.  The constructor checks it once, so no coding has a
code longer than 15 bits or an over-subscribed vector.  A
``DeflateCoding`` holds the lengths and each code as an integer value,
and this module alone decides how a code sits in the stream: its
``stream_codes`` are the bit-reversed values that its decode lookups
and the block writers use.  ``FIXED_LIT`` and ``FIXED_DIST`` are the
static-block codings.  The paper's other construction, by sorting the
characters (``build_coding_sorted``), and the four-rule checker are
reference models in ``deflatekit.reference`` that the tests hold this
construction to.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress

from .bitio import read_bits
from .errors import (
    BadCode,
    EndOfInput,
    KraftViolation,
    LengthOverflow,
    ValueOutOfRange,
)

# Longest code either deflate coding layer allows.
MAX_CODE_LENGTH = 15
# The coding that encodes the dynamic header's code lengths is shallower.
MAX_CL_CODE_LENGTH = 7
# Stream bits a coding's primary lookup table indexes (zlib's root table).
_TABLE_BITS = 9

Bits = tuple[int, ...]
# Each byte with its bit order reversed.
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def check_lengths(lengths: Sequence[int], max_len: int = MAX_CODE_LENGTH) -> list[int]:
    """Characters per length 0..max_len; raises at the first bad length, then if infeasible."""
    if not 1 <= max_len <= MAX_CODE_LENGTH:
        bound = "at least 1" if max_len < 1 else f"at most {MAX_CODE_LENGTH}"
        raise ValueOutOfRange(f"max_len {max_len} must be {bound}")
    counts = [0] * (max_len + 1)
    for ch, l in enumerate(lengths):
        if not 0 <= l <= max_len:
            if l < 0:
                raise ValueOutOfRange(f"length {l} of character {ch} is negative")
            raise LengthOverflow(f"length {l} of character {ch} exceeds the maximum {max_len}")
        counts[l] += 1
    # The Kraft sum scaled by 2**max_len, on integers: at most 1 means at most 2**max_len.
    scaled = sum(n << (max_len - l) for l, n in enumerate(counts) if l)
    if scaled > 1 << max_len:
        from fractions import Fraction  # only this error message needs it

        kraft = Fraction(scaled, 1 << max_len)
        raise KraftViolation(f"code-length vector is over-subscribed: sum of 2**-l is {kraft} > 1")
    return counts


class DeflateCoding:
    """The canonical prefix-free coding of characters 0..n-1 for a length vector.

    ``check_lengths`` raises for max_len outside 1..15, a length outside
    0..max_len and an over-subscribed vector, and counts the characters
    of each length.  The first code of length l is (the first of l-1 +
    the count of l-1) << 1, RFC 1951 section 3.2.2's ``next_code``.  One
    walk over the coded characters, in character order, gives each the
    next code of its length, its stream code and its lookup entry;
    feasibility (Kraft sum <= 1) keeps every code within its width.

    ``lengths[ch]`` is the code length of ch (0: no code) and
    ``values[ch]`` its code as an integer read leftmost bit first.
    ``stream_codes[ch]`` is ``(reversed value, length)``, the code in
    stream order: written as an LSB-first field it puts the leftmost
    code bit first.  The block writers and the decoder use it.
    ``codes`` and ``coding[ch]`` give each code as a tuple of bits,
    derived once on first use.

    ``table`` (zlib ``inftrees.c``) maps each ``table_bits`` = min(9,
    longest code) stream bits, least significant first, to
    ``(symbol << 4) | length`` for the code of at most ``table_bits``
    bits they begin with, else -1.  A dict maps each longer code, as
    ``rev << 4 | length``, to the same packed entry.  ``entry`` resolves
    bits already read through both; ``read_symbol`` and inflate's token
    loop both decode through it.

    Instances are value-like: the lengths fix the codes, so equality is
    by lengths.  An arbitrary character-to-bits table is screened with
    ``reference.check_axioms``.
    """

    __slots__ = ("lengths", "values", "max_len", "stream_codes", "table_bits", "table",
                 "_long_codes", "_longest", "_codes")

    def __init__(self, lengths: Sequence[int], max_len: int = MAX_CODE_LENGTH):
        self.lengths = lengths = tuple(lengths)
        counts = check_lengths(lengths, max_len)
        self.max_len = max_len
        next_code = [0] * (max_len + 1)
        for length in range(2, max_len + 1):
            next_code[length] = (next_code[length - 1] + counts[length - 1]) << 1
        # A coding with no codes is legitimate (a block that never uses
        # distances); reads then fail at the read position.
        self._longest = max(lengths, default=0)
        self.table_bits = bits = min(_TABLE_BITS, self._longest)
        self.table = table = [-1] * (1 << bits)
        self._long_codes = long_codes = {}
        values = [0] * len(lengths)
        stream_codes = [(0, 0)] * len(lengths)
        reverse = _REVERSED_BYTE
        for ch in compress(range(len(lengths)), lengths):
            length = lengths[ch]
            values[ch] = value = next_code[length]
            next_code[length] = value + 1
            # The value reversed over 16 bits, less the 16 - length padding.
            rev = (reverse[value & 255] << 8 | reverse[value >> 8]) >> (16 - length)
            stream_codes[ch] = (rev, length)
            if length > bits:
                long_codes[rev << 4 | length] = ch << 4 | length
            else:
                # The index ends in the code's stream bits; the rest is free.
                table[rev :: 1 << length] = [ch << 4 | length] * (len(table) >> length)
        self.values = tuple(values)
        self.stream_codes = tuple(stream_codes)
        self._codes: tuple[Bits, ...] | None = None

    @property
    def codes(self) -> tuple[Bits, ...]:
        if self._codes is None:
            self._codes = tuple(
                tuple([(v >> s) & 1 for s in range(l - 1, -1, -1)])
                for v, l in zip(self.values, self.lengths)
            )
        return self._codes

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, ch: int) -> Bits:
        return self.codes[ch]

    def __eq__(self, other) -> bool:
        if isinstance(other, DeflateCoding):
            return self.lengths == other.lengths
        return NotImplemented

    def __hash__(self):
        return hash(self.lengths)

    def __repr__(self) -> str:
        shown = {
            ch: f"{v:0{l}b}" for ch, (v, l) in enumerate(zip(self.values, self.lengths)) if l
        }
        return f"DeflateCoding({shown})"

    def entry(self, bits: int, avail: int, bit_pos: int) -> int:
        """The ``(character << 4) | length`` of the code ``bits`` begin with.

        ``bits`` are the stream bits from ``bit_pos`` on, least
        significant first, of which only the low ``avail`` count: the
        table is asked first (bits above ``avail`` may fill its index,
        but a hit counts only if no longer than ``avail``), then the dict
        for each longer prefix up to the longest code.  Raises
        EndOfInput at ``bit_pos + avail`` when fewer bits than the
        longest code begin no code, else BadCode at ``bit_pos``.
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
            raise EndOfInput(bit_pos + avail, "a prefix code")
        raise BadCode(bit_pos)

    def read_symbol(self, data: bytes, bit_pos: int, bit_end: int) -> tuple[int, int]:
        """Decode one code starting at bit_pos; returns (character, next position).

        Reads up to the longest code's bits, never past bit_end, and
        resolves them with ``entry``: BadCode when they begin no code,
        EndOfInput when bit_end comes first.
        """
        avail = min(bit_end - bit_pos, self._longest)
        entry = self.entry(read_bits(data, bit_pos, avail, bit_end)[0], avail, bit_pos)
        return entry >> 4, bit_pos + (entry & 15)


# The construction's other name; inflate builds each dynamic block's codings by it.
build_coding = DeflateCoding


# -- the two fixed codings --------------------------------------------

# The static-block literal/length coding over the 288-character alphabet.
FIXED_LIT = DeflateCoding([8] * 144 + [9] * 112 + [7] * 24 + [8] * 8)
# The static-block distance coding: 32 five-bit codes.
FIXED_DIST = DeflateCoding([5] * 32)
