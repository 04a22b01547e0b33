"""Minimal gzip framing around raw deflate streams.

Writing emits a fixed ten-byte header (deflate method, no flags, zero
mtime, unknown OS) and the standard trailer: CRC-32 and length-mod-2^32
of the plaintext, both little-endian.  Reading tolerates the optional
header fields real producers emit (extra, name, comment), verifies the
optional header CRC, and rejects the reserved flag bits.
The trailer is not taken from the end of the file: it starts at the
first byte boundary after the deflate stream's final block, which only
parsing the stream can find, and is checked there.  Only the first
member of a multi-member file is read; anything after its trailer is
ignored with a warning.
"""

from __future__ import annotations

import struct
import warnings
from typing import NamedTuple

from .bitio import BitCursor
from .compress import CompressParams, DEFAULT_PARAMS, deflate
from .errors import BadMagic, TrailerMismatch, UnsupportedMethod
from .inflate import NoParse, parse_deflate

_MAGIC = b"\x1f\x8b"
_METHOD_DEFLATE = 8

_FTEXT = 1
_FHCRC = 2
_FEXTRA = 4
_FNAME = 8
_FCOMMENT = 16
_FRESERVED = 0xE0  # bits 5-7, which RFC 1952 requires a reader to reject


class PlaintextStats(NamedTuple):
    """What the trailer records about the uncompressed data."""

    crc: int
    size: int


# CRC-32 with the reflected polynomial, one table of 256 per-byte steps.
def _make_crc_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _make_crc_table()


def crc32(data: bytes, value: int = 0) -> int:
    """CRC-32 of data, continuing from a previous value for streaming use.

    crc32(a + b) == crc32(b, crc32(a)) for any split, so arbitrarily
    chunked input gives the same checksum as one shot.
    """
    crc = value ^ 0xFFFFFFFF
    table = _CRC_TABLE
    for b in data:
        crc = (crc >> 8) ^ table[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


def gzip_wrap(deflate_bytes: bytes, stats: PlaintextStats) -> bytes:
    """Frame a raw deflate stream as a single-member gzip file."""
    header = _MAGIC + bytes([_METHOD_DEFLATE, 0]) + b"\x00\x00\x00\x00" + b"\x00\xff"
    trailer = struct.pack("<II", stats.crc & 0xFFFFFFFF, stats.size & 0xFFFFFFFF)
    return header + deflate_bytes + trailer


def _parse_header(data: bytes) -> int:
    """Validate the member header; returns the offset where deflate data starts."""
    if len(data) < 10 or data[:2] != _MAGIC:
        raise BadMagic("input does not start with the gzip magic bytes 1f 8b")
    if data[2] != _METHOD_DEFLATE:
        raise UnsupportedMethod(f"compression method {data[2]} is not deflate (8)")
    flags = data[3]
    if flags & _FRESERVED:
        raise BadMagic(f"gzip header sets reserved flag bits {flags & _FRESERVED:#04x}")
    pos = 10
    try:
        if flags & _FEXTRA:
            (xlen,) = struct.unpack_from("<H", data, pos)
            pos += 2 + xlen
        if flags & _FNAME:
            pos = data.index(b"\x00", pos) + 1
        if flags & _FCOMMENT:
            pos = data.index(b"\x00", pos) + 1
        if flags & _FHCRC:
            (stored,) = struct.unpack_from("<H", data, pos)
            if stored != crc32(data[:pos]) & 0xFFFF:
                raise BadMagic("gzip header CRC does not match the header")
            pos += 2
    except (struct.error, ValueError):
        raise BadMagic("gzip header is truncated") from None
    if pos > len(data):
        raise BadMagic("gzip header is truncated")
    return pos


def gzip_compress(data: bytes, params: CompressParams = DEFAULT_PARAMS) -> bytes:
    """Compress plaintext straight into a gzip file."""
    return gzip_wrap(deflate(data, params), PlaintextStats(crc32(data), len(data)))


def gzip_decompress(data: bytes) -> bytes:
    """Decompress the first member of a gzip file, verifying its trailer."""
    start = _parse_header(data)
    outcome = parse_deflate(BitCursor(data, 8 * start))
    if isinstance(outcome, NoParse):
        raise outcome.error()
    plaintext = outcome.value
    trailer_at = (outcome.rest.bit_pos + 7) // 8
    if trailer_at + 8 > len(data):
        raise TrailerMismatch("gzip member has no room for its eight-byte trailer")
    crc, size = struct.unpack_from("<II", data, trailer_at)
    actual_crc = crc32(plaintext)
    if actual_crc != crc:
        raise TrailerMismatch(
            f"plaintext CRC-32 {actual_crc:#010x} does not match the trailer {crc:#010x}"
        )
    if len(plaintext) & 0xFFFFFFFF != size:
        raise TrailerMismatch(
            f"plaintext size {len(plaintext)} does not match the trailer {size} (mod 2**32)"
        )
    if trailer_at + 8 < len(data):
        warnings.warn(
            f"{len(data) - trailer_at - 8} bytes after the first gzip member were ignored",
            stacklevel=2,
        )
    return plaintext
