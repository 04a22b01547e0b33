"""Minimal gzip framing around raw deflate streams.

Writing emits a fixed ten-byte header (deflate method, no flags, zero
mtime, unknown OS) and the standard trailer: CRC-32 and length-mod-2^32
of the plaintext, both little-endian.  Reading tolerates the optional
header fields real producers emit (extra, name, comment), verifies the
optional header CRC, and rejects the reserved flag bits.
The trailer is not taken from the end of the file: it starts at the
first byte boundary after the deflate stream's final block, which only
parsing the stream can find, and is checked there.  A file may hold
several members back to back, as ``cat a.gz b.gz`` makes; they decode
to the concatenation of their plaintexts, as in gzip(1).  After the last
member, zero bytes (tape padding) are ignored silently and any other
bytes with a warning.  Every offset is counted from the file's start, so
a fault in a later member reports its bit within the file.

The CRC-32 is pure Python and works on 64-byte blocks, after
slicing-by-N (Kounavis & Berry) and zlib's braided crc32.c: byte j of
every block is lane j, and ``bytes.translate`` looks a whole lane up in
a byte plane of lane j's table at once (see ``crc32``).
"""

from __future__ import annotations

import struct
import warnings

from .bitio import byte_view
from .compress import CompressParams, DEFAULT_PARAMS, deflate
from .errors import BadMagic, TrailerMismatch, UnsupportedMethod
from .inflate import NoParse, parse_deflate

_MAGIC = b"\x1f\x8b"
_METHOD_DEFLATE = 8

_FHCRC = 2
_FEXTRA = 4
_FNAME = 8
_FCOMMENT = 16
_FRESERVED = 0xE0  # bits 5-7, which RFC 1952 requires a reader to reject


# CRC-32 with the reflected polynomial.  T[k][i] is the register after
# byte i, from a zero register, followed by k zero bytes; _CRC_TABLE is
# T[0], the table of the byte loop.
_POLY = 0xEDB88320
_BLOCK = 64


def _make_crc_table() -> tuple[int, ...]:
    """T[0], by XOR doubling: a byte's entry is the XOR of its bits' entries."""
    bit_entries = [_POLY]  # the entries of bytes 0x80, 0x40, ..., 0x01
    for _ in range(7):
        c = bit_entries[-1]
        bit_entries.append(c >> 1 ^ _POLY if c & 1 else c >> 1)
    table = [0]
    for entry in reversed(bit_entries):
        table += [t ^ entry for t in table]
    return tuple(table)


def _make_lane_tables(
    table: tuple[int, ...],
) -> tuple[list[tuple[bytes, ...]], tuple[tuple[int, ...], ...]]:
    """Byte planes of T[63 - j] for each lane j, and T[63..60] as ints.

    Plane q of T[k] is the 256 bytes ``T[k][i] >> 8*q & 255``.  A zero
    byte takes a register r to ``r >> 8 ^ T[0][r & 255]``, so plane q of
    T[k+1] is T[0]'s plane q looked up through T[k]'s low plane (one
    ``translate``), XOR T[k]'s plane q+1 (one big-int XOR).
    """
    packed = struct.pack("<256I", *table)
    planes = p0, p1, p2, p3 = tuple(packed[q::4] for q in range(4))
    rows = [planes]
    low = p0
    i1, i2, i3 = (int.from_bytes(p, "little") for p in planes[1:])
    for _ in range(_BLOCK - 1):
        n0 = int.from_bytes(low.translate(p0), "little") ^ i1
        i1 = int.from_bytes(low.translate(p1), "little") ^ i2
        i2 = int.from_bytes(low.translate(p2), "little") ^ i3
        top = low.translate(p3)
        i3 = int.from_bytes(top, "little")
        low = n0.to_bytes(256, "little")
        rows.append((low, i1.to_bytes(256, "little"), i2.to_bytes(256, "little"), top))
    steps = []
    for row in rows[-1:-5:-1]:  # T[63], T[62], T[61], T[60]
        entries = bytearray(1024)
        for q, plane in enumerate(row):
            entries[q::4] = plane
        steps.append(struct.unpack("<256I", entries))
    return rows[::-1], tuple(steps)


_CRC_TABLE = _make_crc_table()
_LANE_PLANES, _BLOCK_STEP = _make_lane_tables(_CRC_TABLE)


def crc32(data: bytes, value: int = 0) -> int:
    """CRC-32 of data, continuing from a previous value for streaming use.

    crc32(a + b) == crc32(b, crc32(a)) for any split, so arbitrarily
    chunked input gives the same checksum as one shot.  ``data`` is any
    bytes-like object, read as its bytes (an ``array('I')`` too); of
    ``value`` only the low 32 bits count, as in zlib.

    CRC-32 is linear, so a 64-byte block's effect on a zero register is
    the XOR over its byte positions j of ``T[63 - j][byte j]``.  Lane j,
    the bytes at position j of every block, is one strided slice; one
    ``translate`` per byte plane looks up that lane's bytes in all blocks
    at once, and XORing the lanes as big integers gives one 32-bit word
    per block.  A register r before a block acts as if XORed into its
    first four bytes, so one sequential loop carries the register across
    the blocks with four lookups each, T[63..60] of r's bytes, and the
    byte loop takes the tail of fewer than 64 bytes.  The input is never
    copied whole: each lane is one slice of a 64th of it, and the words
    take 4 bytes per block.
    """
    data = byte_view(data)
    crc = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    blocks = len(data) // _BLOCK
    stop = blocks * _BLOCK
    if blocks:
        x0 = x1 = x2 = x3 = 0
        for j, (p0, p1, p2, p3) in enumerate(_LANE_PLANES):
            lane = bytes(data[j:stop:_BLOCK])  # a no-op on bytes; memoryview has no translate
            x0 ^= int.from_bytes(lane.translate(p0), "little")
            x1 ^= int.from_bytes(lane.translate(p1), "little")
            x2 ^= int.from_bytes(lane.translate(p2), "little")
            x3 ^= int.from_bytes(lane.translate(p3), "little")
        words = bytearray(4 * blocks)
        for q, x in enumerate((x0, x1, x2, x3)):
            words[q::4] = x.to_bytes(blocks, "little")
        s0, s1, s2, s3 = _BLOCK_STEP
        for (word,) in struct.iter_unpack("<I", words):
            crc = s0[crc & 255] ^ s1[crc >> 8 & 255] ^ s2[crc >> 16 & 255] ^ s3[crc >> 24] ^ word
    table = _CRC_TABLE
    for b in data[stop:]:
        crc = (crc >> 8) ^ table[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


def gzip_wrap(deflate_bytes: bytes, crc: int, size: int) -> bytes:
    """Frame a raw deflate stream as a single-member gzip file; the
    trailer records the plaintext's CRC-32 and size, modulo 2**32."""
    header = _MAGIC + bytes([_METHOD_DEFLATE, 0]) + b"\x00\x00\x00\x00" + b"\x00\xff"
    trailer = struct.pack("<II", crc & 0xFFFFFFFF, size & 0xFFFFFFFF)
    return header + deflate_bytes + trailer


def _parse_header(data: bytes, start: int = 0) -> int:
    """Validate the member header at byte ``start``; returns where its deflate data starts."""
    if data[start : start + 2] != _MAGIC:
        raise BadMagic("input does not start with the gzip magic bytes 1f 8b")
    if len(data) < start + 10:
        raise BadMagic("gzip header is truncated")
    method, flags = data[start + 2], data[start + 3]
    if method != _METHOD_DEFLATE:
        raise UnsupportedMethod(f"compression method {method} is not deflate (8)")
    if flags & _FRESERVED:
        raise BadMagic(f"gzip header sets reserved flag bits {flags & _FRESERVED:#04x}")
    pos = start + 10
    try:
        if flags & _FEXTRA:
            (xlen,) = struct.unpack_from("<H", data, pos)
            pos += 2 + xlen
        if flags & (_FNAME | _FCOMMENT):
            data = bytes(data)  # a no-op on bytes; memoryview has no index
        if flags & _FNAME:
            pos = data.index(b"\x00", pos) + 1
        if flags & _FCOMMENT:
            pos = data.index(b"\x00", pos) + 1
        if flags & _FHCRC:
            (stored,) = struct.unpack_from("<H", data, pos)
            if stored != crc32(data[start:pos]) & 0xFFFF:
                raise BadMagic("gzip header CRC does not match the header")
            pos += 2
    except (struct.error, ValueError):
        raise BadMagic("gzip header is truncated") from None
    if pos > len(data):
        raise BadMagic("gzip header is truncated")
    return pos


def gzip_compress(data: bytes, params: CompressParams = DEFAULT_PARAMS) -> bytes:
    """Compress plaintext straight into a gzip file."""
    return gzip_wrap(deflate(data, params), crc32(data), memoryview(data).nbytes)


def gzip_decompress(data: bytes) -> bytes:
    """Decompress every member of a gzip file, verifying each trailer."""
    data = byte_view(data)
    parts = []
    end = 0
    while not parts or data[end : end + 2] == _MAGIC:
        start = _parse_header(data, end)
        outcome = parse_deflate(data, 8 * start)
        if isinstance(outcome, NoParse):
            raise outcome.error()
        plaintext = outcome.value
        trailer_at = start + (outcome.consumed_bits + 7) // 8
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
        parts.append(plaintext)
        end = trailer_at + 8
    if any(data[end:]):
        warnings.warn(
            f"{len(data) - end} bytes after the last gzip member were ignored", stacklevel=2
        )
    return parts[0] if len(parts) == 1 else b"".join(parts)
