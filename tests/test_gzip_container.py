"""Gzip framing, CRC-32, and interoperability with the stdlib.

The checksum is pinned three ways: a bit-at-a-time reference written
here from the polynomial definition, the package's implementation (64-byte
lanes through byte planes, a byte loop for the tail), and zlib.crc32,
which the tests use only as an oracle.  The lane tables are checked
against their definition entry by entry.
"""

import gzip as stdlib_gzip
import io
import math
import random
import struct
import tracemalloc
import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflatekit import gzip_container
from deflatekit.compress import deflate
from deflatekit.errors import (
    BadMagic,
    InflateError,
    TrailerMismatch,
    UnsupportedMethod,
)
from deflatekit.gzip_container import (
    crc32,
    gzip_compress,
    gzip_decompress,
    gzip_wrap,
)

from conftest import GOLDEN_PLAINTEXT, mixed_corpus_item


def register_bitwise(data: bytes, crc: int) -> int:
    """The reflected CRC-32 register after data, one bit at a time."""
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
    return crc


def crc32_bitwise(data: bytes, value: int = 0) -> int:
    """Reflected CRC-32 straight from the definition, continuing from value."""
    return register_bitwise(data, value ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def test_crc32_known_values():
    assert crc32_bitwise(b"") == 0
    assert crc32_bitwise(b"123456789") == 0xCBF43926  # the standard check value
    assert crc32(b"") == 0
    assert crc32(b"123456789") == 0xCBF43926


def test_crc32_against_bitwise_reference_and_zlib():
    """Every length up to three 64-byte blocks and a tail byte, then 96 KiB."""
    rng = random.Random(51)
    for n in range(3 * 64 + 2):
        data = rng.randbytes(n)
        expected = crc32_bitwise(data)
        assert crc32(data) == expected, n
        assert zlib.crc32(data) == expected, n
    big = rng.randbytes(96 * 1024)
    assert crc32(big) == crc32_bitwise(big) == zlib.crc32(big)
    big = rng.randbytes(100_000)
    assert crc32(big) == zlib.crc32(big)


def test_crc32_continues_from_any_starting_value():
    rng = random.Random(54)
    for value in (0, 1, 0xFFFFFFFF, 0x80000000, *(rng.getrandbits(32) for _ in range(40))):
        data = rng.randbytes(rng.randrange(0, 300))
        assert crc32(data, value) == crc32_bitwise(data, value) == zlib.crc32(data, value)


def test_crc32_keeps_only_the_low_32_bits_of_value_as_zlib_does():
    data = random.Random(58).randbytes(200)
    for value in (-1, -(2**40), 2**32 + 5, 2**64 - 7):
        assert crc32(data, value) == crc32(data, value & 0xFFFFFFFF) == zlib.crc32(data, value)


def test_crc32_streams_across_any_split():
    data = random.Random(55).randbytes(300)
    whole = zlib.crc32(data)
    for cut in range(len(data) + 1):
        assert crc32(data[cut:], crc32(data[:cut])) == whole, cut
    rng = random.Random(52)
    data = rng.randbytes(3000)
    whole = crc32(data)
    for _ in range(25):
        cut = rng.randrange(len(data) + 1)
        assert crc32(data[cut:], crc32(data[:cut])) == whole
    assert crc32(b"", whole) == whole


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=400), st.binary(max_size=400))
def test_crc32_of_a_concatenation_continues_from_its_prefix(a, b):
    assert crc32(a + b) == crc32(b, crc32(a)) == zlib.crc32(a + b)


def test_lane_planes_match_their_definition():
    """Lane j holds T[63 - j]; T[k][i] is the register after byte i and k zero bytes."""
    lanes = gzip_container._LANE_PLANES
    steps = gzip_container._BLOCK_STEP
    assert len(lanes) == 64 and len(steps) == 4
    for i in range(256):
        register = register_bitwise(bytes([i]), 0)
        assert gzip_container._CRC_TABLE[i] == register
        for k in range(64):
            planes = lanes[63 - k]
            assert [plane[i] for plane in planes] == list(register.to_bytes(4, "little")), (k, i)
            if k >= 60:
                assert steps[63 - k][i] == register, (k, i)
            register = register_bitwise(b"\x00", register)


def test_wide_item_buffers_are_read_as_their_bytes_as_zlib_reads_them():
    # gzip_compress once wrote an array('I') of 40 items as a 40-byte
    # member, crc32 summed its items as bytes, and a two-dimensional view
    # was indexed by rows.
    grid = memoryview(bytes(range(240))).cast("B", (12, 20))  # two-dimensional
    for wide in (array("I", [1, 2, 3, 4] * 10), memoryview(array("H", [300, 7] * 70)), grid):
        data = bytes(wide)
        assert crc32(wide) == zlib.crc32(wide) == crc32(data)
        assert crc32(wide, 12345) == zlib.crc32(wide, 12345)
        assert zlib.decompress(gzip_compress(wide), 31) == data
        c = zlib.compressobj(9, zlib.DEFLATED, 31)
        member = c.compress(data) + c.flush()
        pad = 4 + -len(member) % 4  # junk after the member, filling whole 4-byte items
        with pytest.warns(UserWarning, match=f"^{pad} bytes after the first gzip member"):
            assert gzip_decompress(array("I", member + bytes(pad))) == data


def test_crc32_takes_bytes_bytearray_and_memoryview_alike():
    rng = random.Random(56)
    backing = rng.randbytes(3 * 64 + 40)
    for n in (0, 1, 63, 64, 65, 128, 3 * 64 + 1):
        data = backing[7 : 7 + n]
        value = rng.getrandbits(32)
        expected = zlib.crc32(data, value)
        assert crc32(data, value) == expected
        assert crc32(bytearray(data), value) == expected
        assert crc32(memoryview(data), value) == expected
        assert crc32(memoryview(backing)[7 : 7 + n], value) == expected
        assert crc32(memoryview(bytearray(backing))[7 : 7 + n], value) == expected


def test_crc32_does_not_copy_its_input():
    data = random.Random(57).randbytes(96 * 1024)
    tracemalloc.start()
    try:
        checksum = crc32(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert checksum == zlib.crc32(data)
    assert peak < len(data) // 4, peak


# -- framing ----------------------------------------------------------------


def test_wrap_emits_the_fixed_header_and_trailer():
    payload = deflate(GOLDEN_PLAINTEXT)
    out = gzip_wrap(payload, crc32(GOLDEN_PLAINTEXT), len(GOLDEN_PLAINTEXT))
    assert out[:10] == b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
    assert out[10:-8] == payload
    crc, size = struct.unpack("<II", out[-8:])
    assert crc == crc32(GOLDEN_PLAINTEXT)
    assert size == len(GOLDEN_PLAINTEXT)


def test_trailer_size_is_modulo_2_32():
    out = gzip_wrap(b"", 0, (1 << 32) + 5)
    assert struct.unpack("<I", out[-4:])[0] == 5


def test_wrap_unwrap_round_trip():
    payload = deflate(b"some payload")
    wrapped = gzip_wrap(payload, crc32(b"some payload"), 12)
    assert gzip_decompress(wrapped) == b"some payload"


def test_compress_decompress_round_trip():
    rng = random.Random(53)
    for _ in range(30):
        data = mixed_corpus_item(rng, rng.randrange(0, 3000))
        assert gzip_decompress(gzip_compress(data)) == data


def test_gzip_output_stays_within_the_stored_bound_plus_framing():
    # The raw Deflate bound of criterion 11 plus the 10-byte header and
    # the 8-byte trailer.
    for n in (0, 1, 1000, 65535, 65536, 70000):
        data = random.Random(n).randbytes(n)
        packed = gzip_compress(data)
        assert len(packed) <= n + 5 * math.ceil(n / 65535) + 8 + 18
        assert gzip_decompress(packed) == data
    # The raw bound alone (1013 here) does not hold for the container:
    # one stored block of 1000 bytes is 1005, framed 1023.
    assert len(gzip_compress(random.Random(1000).randbytes(1000))) == 1023


# -- interoperability ---------------------------------------------------------


def test_stdlib_reads_our_output():
    rng = random.Random(54)
    for _ in range(10):
        data = mixed_corpus_item(rng, rng.randrange(0, 5000))
        assert stdlib_gzip.decompress(gzip_compress(data)) == data


def test_we_read_stdlib_output():
    rng = random.Random(55)
    for _ in range(10):
        data = mixed_corpus_item(rng, rng.randrange(0, 5000))
        assert gzip_decompress(stdlib_gzip.compress(data)) == data


def test_stdlib_filename_header_is_skipped():
    buf = io.BytesIO()
    with stdlib_gzip.GzipFile("some/archived name.txt", "wb", fileobj=buf) as fh:
        fh.write(b"named content")
    assert gzip_decompress(buf.getvalue()) == b"named content"


def test_all_optional_header_fields_are_skipped():
    # FEXTRA + FNAME + FCOMMENT + FHCRC, assembled by hand around a
    # payload the stdlib can verify too.
    payload = deflate(b"optional fields")
    extra = b"AB\x04\x00abcd"
    header = (
        b"\x1f\x8b\x08"
        + bytes([2 | 4 | 8 | 16])
        + b"\x00\x00\x00\x00\x00\xff"
        + struct.pack("<H", len(extra))
        + extra
        + b"a name\x00"
        + b"a comment\x00"
    )
    header += struct.pack("<H", crc32(header) & 0xFFFF)
    blob = header + payload + struct.pack("<II", crc32(b"optional fields"), 15)
    for data in (blob, bytearray(blob), memoryview(blob)):
        assert gzip_decompress(data) == b"optional fields"
    assert stdlib_gzip.decompress(blob) == b"optional fields"


def test_system_grade_inputs_with_text_flag():
    # FTEXT only marks content; it changes nothing structurally.
    blob = bytearray(gzip_compress(b"plain text"))
    blob[3] |= 1
    assert gzip_decompress(bytes(blob)) == b"plain text"


# -- failure modes ------------------------------------------------------------


def test_bad_magic():
    with pytest.raises(BadMagic):
        gzip_decompress(b"")
    with pytest.raises(BadMagic):
        gzip_decompress(b"\x1f\x8c" + bytes(20))
    with pytest.raises(BadMagic):
        gzip_decompress(b"\x1f\x8b\x08\x00")  # shorter than a header
    # A prefix with both magic bytes is a truncated header, not bad magic.
    header = gzip_compress(b"x")[:10]
    for n in range(10):
        if n < 2:
            message = "input does not start with the gzip magic bytes 1f 8b"
        else:
            message = "gzip header is truncated"
        with pytest.raises(BadMagic, match=f"^{message}$"):
            gzip_decompress(header[:n])


def test_unsupported_method():
    blob = bytearray(gzip_compress(b"x"))
    blob[2] = 7
    with pytest.raises(UnsupportedMethod):
        gzip_decompress(bytes(blob))


def test_header_crc_mismatch_is_rejected_as_zlib_does():
    header = b"\x1f\x8b\x08\x02" + b"\x00\x00\x00\x00\x00\xff"
    header += struct.pack("<H", crc32(header) & 0xFFFF)
    blob = header + deflate(b"checked header") + struct.pack(
        "<II", crc32(b"checked header"), 14
    )
    assert gzip_decompress(blob) == b"checked header"
    bad = bytearray(blob)
    bad[10] ^= 0x04  # one bit of the stored header CRC
    with pytest.raises(BadMagic):
        gzip_decompress(bytes(bad))
    with pytest.raises(zlib.error, match="header crc mismatch"):
        zlib.decompressobj(31).decompress(bytes(bad))


@pytest.mark.parametrize("flag", [0x20, 0x40, 0x80])
def test_reserved_flag_bits_are_rejected_as_zlib_does(flag):
    blob = bytearray(gzip_compress(b"reserved"))
    blob[3] |= flag
    with pytest.raises(BadMagic):
        gzip_decompress(bytes(blob))
    with pytest.raises(zlib.error, match="unknown header flags set"):
        zlib.decompressobj(31).decompress(bytes(blob))


def test_truncated_name_field():
    header = b"\x1f\x8b\x08\x08" + b"\x00" * 6 + b"never terminated"
    with pytest.raises(BadMagic):
        gzip_decompress(header)


def test_missing_trailer():
    blob = gzip_compress(b"hello trailer")
    with pytest.raises(TrailerMismatch):
        gzip_decompress(blob[:-5])


def test_wrong_crc_in_trailer():
    blob = bytearray(gzip_compress(b"checksummed"))
    blob[-5] ^= 0xFF
    with pytest.raises(TrailerMismatch) as err:
        gzip_decompress(bytes(blob))
    assert "CRC" in str(err.value)


def test_wrong_size_in_trailer():
    blob = bytearray(gzip_compress(b"sized"))
    blob[-4:] = struct.pack("<I", 99)
    with pytest.raises(TrailerMismatch) as err:
        gzip_decompress(bytes(blob))
    assert "size" in str(err.value)


def test_corrupt_deflate_payload_reports_the_bit_offset():
    blob = bytearray(gzip_compress(b"corrupt me" * 20))
    blob[14] ^= 0xFF
    with pytest.raises((InflateError, TrailerMismatch)):
        gzip_decompress(bytes(blob))


def test_trailing_data_warns_and_is_ignored():
    blob = gzip_compress(b"first member") + b"second member leftovers"
    with pytest.warns(UserWarning, match="ignored"):
        assert gzip_decompress(blob) == b"first member"
