"""Bit-granular reading and writing over byte buffers.

A deflate stream is a bit sequence laid over bytes least-significant bit
first: absolute bit k lives at bit (k mod 8) of byte (k div 8).  This
module reads and writes fixed-width integer fields (block lengths, extra
bits, header counts), packed with their least significant bit first.
Prefix codes go leftmost code bit first; ``prefix_coding`` turns each
into such a field, its ``stream_codes``.

Fields are read straight off the buffer by ``read_bits``, which takes an
absolute bit position and returns the value with the advanced position,
so two positions can be subtracted to learn exactly how many bits a
parse consumed.  Bit 0 is the least significant bit of the first byte,
and a position may sit exactly at the end, where any further read
raises an ``InflateError`` of ``FailReason.END_OF_INPUT``.
"""

from __future__ import annotations

from .errors import FailReason, InflateError, ValueOutOfRange

# Widest fixed-width field in the format (stored-block LEN/NLEN).
MAX_FIELD_BITS = 16


def read_bits(data: bytes, pos: int, n: int, bit_end: int) -> tuple[int, int]:
    """Read an n-bit field packed least-significant bit first at bit ``pos``.

    Returns (value, pos + n).  n is 0 (yields 0 and the unchanged
    position) up to ``MAX_FIELD_BITS``.  Raises ``InflateError``
    (END_OF_INPUT) at ``pos`` when the field would run past ``bit_end``.
    """
    if pos + n > bit_end:
        raise InflateError(FailReason.END_OF_INPUT, pos)
    first = pos >> 3
    nbytes = ((pos & 7) + n + 7) >> 3
    chunk = int.from_bytes(data[first : first + nbytes], "little")
    return (chunk >> (pos & 7)) & ((1 << n) - 1), pos + n


def byte_view(data):
    """``data`` as zlib reads a buffer: itself if flat bytes, else a flat view of its
    bytes; a buffer that is not C-contiguous raises BufferError, as in zlib."""
    view = memoryview(data)
    if not view.c_contiguous:
        raise BufferError("buffer is not C-contiguous")
    return data if view.format == "B" and view.ndim == 1 else view.cast("B")


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
