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
starting right after the (doubled) end of the previous class, which is
what ``build_coding`` constructs and what the decode table exploits.

A length vector is a plain sequence of ints, one per character, 0
meaning no code; ``build_coding(lengths, max_len)`` is the one place
that checks it and the one production construction.  The paper's
second construction (per-length counting) and the four-rule checker
are reference models in ``deflatekit.reference``, which the tests
compare ``build_coding`` against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

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
# Stream bits a decode table's primary lookup indexes (zlib's root table).
_TABLE_BITS = 9

Bits = tuple[int, ...]


def kraft_sum(lengths: Sequence[int]) -> Fraction:
    """Exact sum of 2**-l over the nonzero entries of the vector."""
    shift = max(lengths, default=0)
    return Fraction(sum(1 << (shift - l) for l in lengths if l > 0), 1 << shift)


def check_lengths(lengths: Sequence[int], max_len: int = MAX_CODE_LENGTH) -> None:
    """Raise unless every length is in 0..max_len and the vector is feasible."""
    if max_len < 1:
        raise ValueOutOfRange(f"max_len {max_len} must be at least 1")
    for ch, l in enumerate(lengths):
        if l < 0:
            raise ValueOutOfRange(f"length {l} of character {ch} is negative")
        if l > max_len:
            raise LengthOverflow(
                f"length {l} of character {ch} exceeds the maximum {max_len}"
            )
    ks = kraft_sum(lengths)
    if ks > 1:
        raise KraftViolation(
            f"code-length vector is over-subscribed: sum of 2**-l is {ks} > 1"
        )


def _int_of_bits(bits: Sequence[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


class DeflateCoding:
    """A total map from characters 0..n-1 to codes; () marks no code.

    Instances are value-like: equality is by code table.  The decode
    index is derived lazily and assumes the coding is canonical (as
    everything ``build_coding`` returns is); an arbitrary table given
    to the constructor can be screened first with
    ``reference.check_axioms``.
    """

    __slots__ = ("codes", "max_len", "_table")

    def __init__(self, codes: Iterable[Sequence[int]], max_len: int = MAX_CODE_LENGTH):
        table = tuple(tuple(c) for c in codes)
        for ch, code in enumerate(table):
            if len(code) > max_len:
                raise LengthOverflow(
                    f"code of character {ch} is longer than the maximum {max_len}"
                )
            for b in code:
                if b not in (0, 1):
                    raise ValueOutOfRange(f"code bit {b!r} of character {ch} is not 0 or 1")
        self.codes = table
        self.max_len = max_len
        self._table = None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, ch: int) -> Bits:
        return self.codes[ch]

    def __eq__(self, other) -> bool:
        if isinstance(other, DeflateCoding):
            return self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash(self.codes)

    def __repr__(self) -> str:
        shown = {ch: "".join(map(str, c)) for ch, c in enumerate(self.codes) if c}
        return f"DeflateCoding({shown})"

    # -- decoding -----------------------------------------------------

    def _decode_table(self) -> "_DecodeTable":
        if self._table is None:
            self._table = _DecodeTable(self.codes)
        return self._table

    def read_symbol(self, data: bytes, bit_pos: int, bit_end: int) -> tuple[int, int]:
        """Decode one code starting at bit_pos; returns (character, next position).

        Raises BadCode when the bits begin no code and EndOfInput when
        bit_end comes first; no bit at or past bit_end is read.
        """
        return self._decode_table().read(data, bit_pos, bit_end)


class _DecodeTable:
    """A primary lookup table over a per-length first-value/limit walk.

    For each code length L the nonempty codes occupy the dense value
    range [first[L], limit[L]), and first[L] is limit[L-1] doubled.  So
    the walk needs no tree: it accumulates bits into a value, which is
    at least first[L] at length L, until the value drops below limit[L];
    past the longest length the bits begin no code (BadCode).

    The primary table (zlib ``inftrees.c``; Moffat & Turpin 1997) has
    2**bits entries, bits = min(9, max_len), indexed by the next
    ``bits`` stream bits, least significant first: ``(symbol << 4) |
    length`` for the code of length <= bits they begin with, else -1.
    ``read`` looks up only when ``bits`` bits remain before ``bit_end``;
    a -1 entry or a shorter tail goes to the walk, so BadCode and
    EndOfInput keep the walk's bit positions and no bit past
    ``bit_end`` is read.
    """

    __slots__ = ("max_len", "limit", "base", "syms", "bits", "table")

    def __init__(self, codes: Sequence[Bits]):
        entries = sorted(
            (len(code), _int_of_bits(code), ch)
            for ch, code in enumerate(codes)
            if code
        )
        # Every character absent is a legitimate coding (e.g. a block that
        # never uses distances); reads then fail at the read position.
        self.max_len = entries[-1][0] if entries else 0
        self.limit = [0] * (self.max_len + 1)
        self.base = [0] * (self.max_len + 1)
        self.syms: list[int] = []
        i = 0
        value = 0
        for length in range(1, self.max_len + 1):
            value <<= 1  # first[length]
            self.base[length] = len(self.syms) - value
            while i < len(entries) and entries[i][0] == length:
                if entries[i][1] != value:
                    raise ValueOutOfRange(
                        "coding is not canonical; decode table unavailable"
                    )
                self.syms.append(entries[i][2])
                value += 1
                i += 1
            self.limit[length] = value
        self.bits = min(_TABLE_BITS, self.max_len)
        self.table = [-1] * (1 << self.bits)
        for ch, code in enumerate(codes):
            if code and len(code) <= self.bits:
                # The first code bit is the first stream bit, so the
                # index ends in the code reversed; the rest is free.
                fill = [(ch << 4) | len(code)] * (len(self.table) >> len(code))
                self.table[_int_of_bits(code[::-1]) :: 1 << len(code)] = fill

    def read(self, data: bytes, bit_pos: int, bit_end: int) -> tuple[int, int]:
        if bit_pos + self.bits <= bit_end:
            entry = self.table[read_bits(data, bit_pos, self.bits, bit_end)[0]]
            if entry >= 0:
                return entry >> 4, bit_pos + (entry & 15)
        value = 0
        pos = bit_pos
        limit = self.limit
        for length in range(1, self.max_len + 1):
            if pos >= bit_end:
                raise EndOfInput(pos, "a prefix code")
            value = (value << 1) | ((data[pos >> 3] >> (pos & 7)) & 1)
            pos += 1
            if value < limit[length]:
                return self.syms[self.base[length] + value], pos
        raise BadCode(bit_pos)


def build_coding(lengths: Sequence[int], max_len: int = MAX_CODE_LENGTH) -> DeflateCoding:
    """Construct the canonical coding for a length vector incrementally.

    Characters are visited sorted by (length, character), zero lengths
    first (they get the empty code).  The first nonzero-length character
    receives the all-zero code of its length; each later one takes the
    binary successor of the previous code, extended with zeros to the
    new length.  Feasibility (Kraft sum <= 1) guarantees the successor
    never overflows its width.  ``check_lengths`` raises for a length
    outside 0..max_len and for an over-subscribed vector.
    """
    check_lengths(lengths, max_len)
    order = sorted(range(len(lengths)), key=lambda ch: (lengths[ch], ch))
    codes: list[Bits] = [()] * len(lengths)
    prev: Optional[Bits] = None
    for ch in order:
        length = lengths[ch]
        if length == 0:
            continue
        if prev is None:
            bits = (0,) * length
        else:
            bits = _successor(prev) + (0,) * (length - len(prev))
        codes[ch] = bits
        prev = bits
    return DeflateCoding(codes, max_len)


def _successor(bits: Bits) -> Bits:
    """The next bit sequence of the same width, numerically one larger."""
    out = list(bits)
    i = len(out) - 1
    while i >= 0 and out[i] == 1:
        out[i] = 0
        i -= 1
    if i < 0:
        # Unreachable after the feasibility gate: the all-ones code can
        # only ever be the last one placed.
        raise KraftViolation("code space exhausted while assigning codes")
    out[i] = 1
    return tuple(out)


# -- the two fixed codings --------------------------------------------

_FIXED_LIT: Optional[DeflateCoding] = None
_FIXED_DIST: Optional[DeflateCoding] = None


def fixed_lit_coding() -> DeflateCoding:
    """The static-block literal/length coding over the 288-character alphabet."""
    global _FIXED_LIT
    if _FIXED_LIT is None:
        lengths = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
        _FIXED_LIT = build_coding(lengths)
    return _FIXED_LIT


def fixed_dist_coding() -> DeflateCoding:
    """The static-block distance coding: 32 five-bit codes."""
    global _FIXED_DIST
    if _FIXED_DIST is None:
        _FIXED_DIST = build_coding([5] * 32)
    return _FIXED_DIST
