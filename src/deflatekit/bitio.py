"""Bit-granular reading and writing over byte buffers.

A deflate stream is a bit sequence laid over bytes least-significant bit
first: absolute bit k lives at bit (k mod 8) of byte (k div 8).  Two
packing orders coexist on top of that sequence and both are provided
here:

* fixed-width integer fields (block lengths, extra bits, header counts)
  are packed with their least significant bit first;
* prefix codes are emitted with their leftmost code bit first.

Fields are read straight off the buffer by ``read_bits``, which takes an
absolute bit position and returns the value with the advanced position,
so two positions can be subtracted to learn exactly how many bits a
parse consumed.  ``BitCursor`` is the bounds-checked (buffer, position)
pair that the public parsers take and return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EndOfInput, ValueOutOfRange

# Widest fixed-width field in the format (stored-block LEN/NLEN).
MAX_FIELD_BITS = 16


@dataclass(frozen=True)
class BitCursor:
    """An immutable read position inside a byte buffer.

    ``bit_pos`` is the absolute bit index; 0 addresses the least
    significant bit of the first byte.  A cursor may sit exactly at the
    end of the buffer, where any further ``read_bits`` raises ``EndOfInput``.
    """

    data: bytes
    bit_pos: int = 0

    def __post_init__(self):
        if not 0 <= self.bit_pos <= 8 * len(self.data):
            raise ValueOutOfRange(
                f"bit_pos {self.bit_pos} outside a {len(self.data)}-byte buffer"
            )


def read_bits(data: bytes, pos: int, n: int, bit_end: int) -> tuple[int, int]:
    """Read an n-bit field packed least-significant bit first at bit ``pos``.

    Returns (value, pos + n).  n is 0 (yields 0 and the unchanged
    position) up to ``MAX_FIELD_BITS``; every caller passes a constant
    or a table width.  Raises ``EndOfInput`` at ``pos`` when the field
    would run past ``bit_end``.
    """
    if pos + n > bit_end:
        raise EndOfInput(pos, f"a {n}-bit field")
    if n == 0:
        return 0, pos
    first = pos >> 3
    nbytes = ((pos & 7) + n + 7) >> 3
    chunk = int.from_bytes(data[first : first + nbytes], "little")
    return (chunk >> (pos & 7)) & ((1 << n) - 1), pos + n


class BitSink:
    """Accumulates bits into a growing byte buffer, LSB of each byte first.

    ``bit_length`` stays exact until the buffer is finalized, so the
    number of meaningful bits is always recoverable even though
    ``to_bytes`` pads the last partial byte with zeros.
    """

    __slots__ = ("_buf", "_bitbuf", "_fill")

    def __init__(self):
        self._buf = bytearray()
        self._bitbuf = 0  # pending bits, LSB first
        self._fill = 0  # how many pending, 0..7

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buf) + self._fill

    def write_bits_lsb(self, value: int, n: int) -> None:
        """Append an n-bit int of any width, LSB first; whole bytes go out at once."""
        if value < 0 or value.bit_length() > n:
            raise ValueOutOfRange(f"value does not fit in {n} bits")
        bits = self._bitbuf | value << self._fill
        fill = self._fill + n
        whole = fill >> 3
        self._buf += bits.to_bytes(whole + 1, "little")[:whole]
        self._bitbuf = bits >> (whole << 3)
        self._fill = fill & 7

    def align_to_byte(self) -> None:
        """Pad the current partial byte (if any) with zero bits."""
        if self._fill:
            self._buf.append(self._bitbuf & 0xFF)
            self._bitbuf = 0
            self._fill = 0

    def write_bytes_aligned(self, data: bytes) -> None:
        """Append whole bytes; the sink must already be byte-aligned."""
        if self._fill:
            raise ValueOutOfRange("sink is not byte-aligned")
        self._buf += data

    def to_bytes(self) -> bytes:
        """Return the buffer with the final partial byte zero-padded.

        The sink itself is left untouched, so writing may continue and
        ``bit_length`` still reports the unpadded count.
        """
        out = bytes(self._buf)
        if self._fill:
            out += bytes([self._bitbuf & 0xFF])
        return out
