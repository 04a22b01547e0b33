"""Bit packing order and the field reader, checked against a naive reader."""

import random
import struct
import zlib
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deflatekit import crc32, deflate, gzip_compress, gzip_decompress, inflate
from deflatekit.bitio import MAX_FIELD_BITS, BitSink, byte_view, read_bits
from deflatekit.compress import tokenize, write_stored_block
from deflatekit.errors import InflateError, ValueOutOfRange
from deflatekit.inflate import (
    FailReason,
    NoParse,
    iter_blocks,
    parse_block_header,
    parse_deflate,
    parse_dynamic_header,
    parse_stored_block,
)

from conftest import write_code_msb


def naive_bit(data: bytes, k: int) -> int:
    """Absolute bit k of the buffer: bit (k mod 8) of byte (k div 8)."""
    return (data[k // 8] >> (k % 8)) & 1


def naive_read_lsb(data: bytes, pos: int, n: int) -> int:
    value = 0
    for i in range(n):
        value |= naive_bit(data, pos + i) << i
    return value


def test_max_field_bits_is_sixteen():
    assert MAX_FIELD_BITS == 16


def test_read_bit_against_naive_reader():
    rng = random.Random(10)
    data = rng.randbytes(37)
    end = 8 * len(data)
    pos = 0
    for k in range(end):
        bit, pos = read_bits(data, pos, 1, end)
        assert bit == naive_bit(data, k)
    assert pos == end
    with pytest.raises(InflateError) as err:
        read_bits(data, pos, 1, end)
    assert (err.value.reason, err.value.bit_pos) == (FailReason.END_OF_INPUT, end)


def test_bit_fields_against_naive_reader():
    rng = random.Random(11)
    data = rng.randbytes(64)
    for _ in range(500):
        n = rng.randrange(0, MAX_FIELD_BITS + 1)
        pos = rng.randrange(0, 8 * len(data) - n + 1)
        value, after = read_bits(data, pos, n, 8 * len(data))
        assert value == naive_read_lsb(data, pos, n)
        assert after == pos + n


def test_zero_width_field_reads_nothing():
    assert read_bits(b"\xff", 3, 0, 8) == (0, 3)
    assert read_bits(b"\xff", 8, 0, 8) == (0, 8)  # at the very end too


def test_reads_past_the_end_report_the_read_position():
    with pytest.raises(InflateError) as err:
        read_bits(b"\xab", 3, 6, 8)
    failure = (err.value.reason, err.value.bit_pos, err.value.detail)
    assert failure == (FailReason.END_OF_INPUT, 3, "")


def test_cursor_positions_are_bounded():
    # A parse position is a buffer and a bit offset in 0..8 * len(data);
    # every parser, and the block walk on its first step, checks it.
    walk = lambda data, bit_pos: next(iter_blocks(data, bit_pos))
    parsers = (parse_block_header, parse_stored_block, parse_dynamic_header, parse_deflate, walk)
    for parse in parsers:
        parse(b"ab", 16)  # exactly at the end is fine
        with pytest.raises(ValueOutOfRange, match="^bit_pos 17 outside a 2-byte buffer$"):
            parse(b"ab", 17)
        with pytest.raises(ValueOutOfRange, match="^bit_pos -1 outside a 2-byte buffer$"):
            parse(b"ab", -1)
        with pytest.raises(ValueOutOfRange, match="^bit_pos 1 outside a 0-byte buffer$"):
            parse(b"", 1)
        # Only an int is a position: a float or None would fail inside
        # read_bits with a bare TypeError, and True would be read as bit 1.
        for bad in (0.0, None, "8", True):
            kind = type(bad).__name__
            with pytest.raises(ValueOutOfRange, match=f"^bit_pos must be an int, not {kind}$"):
                parse(b"ab", bad)


def stored_block(payload: bytes) -> bytes:
    return struct.pack("<HH", len(payload), len(payload) ^ 0xFFFF) + payload


def test_align_to_byte_cursor():
    # A stored block skips to the next byte boundary (none when already
    # aligned), then reads LEN, NLEN and LEN whole bytes from there.
    payload = b"bcd"
    for start, aligned in ((0, 0), (1, 8), (8, 8), (15, 16)):
        data = bytes(aligned // 8) + stored_block(payload)
        outcome = parse_stored_block(data, start)
        assert outcome.value == payload
        assert start + outcome.consumed_bits == 8 * len(data)


def test_read_bytes_aligned():
    # The payload is a whole-byte slice read from the aligned position;
    # bytes after it are left for the next parse.
    data = b"a" + stored_block(b"bcd") + b"ef"
    outcome = parse_stored_block(data, 8)
    assert outcome.value == b"bcd"
    end = 8 + outcome.consumed_bits
    assert end == 8 * (1 + 4 + 3)
    assert data[end // 8 :] == b"ef"
    # A payload that runs past the end fails at the payload's first bit.
    for start, aligned in ((0, 0), (1, 8), (8, 8), (15, 16)):
        short = bytes(aligned // 8) + stored_block(b"bcd")[:-1]
        outcome = parse_stored_block(short, start)
        assert outcome == NoParse(FailReason.END_OF_INPUT, aligned + 32)


def test_sink_packs_lsb_first():
    sink = BitSink()
    sink.write_bits_lsb(0b101, 3)
    sink.write_bits_lsb(0b01, 2)
    sink.write_bits_lsb(0b11010011, 8)
    # Stream order: 1,0,1 then 1,0 then 1,1,0,0,1,0,1,1.
    out = sink.to_bytes()
    expected = [1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
    assert [naive_bit(out, k) for k in range(13)] == expected
    assert sink.bit_length == 13


def test_write_code_msb_emits_leftmost_bit_first():
    sink = BitSink()
    write_code_msb(sink, (1, 0, 1, 1))
    out = sink.to_bytes()
    assert [naive_bit(out, k) for k in range(4)] == [1, 0, 1, 1]
    with pytest.raises(ValueOutOfRange):
        write_code_msb(sink, (1, 2, 0))


def test_sink_write_validation():
    sink = BitSink()
    with pytest.raises(ValueOutOfRange):
        sink.write_bits_lsb(4, 2)  # does not fit
    with pytest.raises(ValueOutOfRange):
        sink.write_bits_lsb(-1, 4)
    with pytest.raises(ValueOutOfRange):
        sink.write_bits_lsb(0, -1)
    assert sink.bit_length == 0  # failed writes leave no trace


@given(
    st.integers(min_value=0, max_value=7),
    st.lists(st.integers(min_value=0, max_value=300).flatmap(
        lambda n: st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1), st.just(n))
    ), max_size=8),
)
def test_wide_writes_match_one_bit_at_a_time(fill, fields):
    wide, narrow = BitSink(), BitSink()
    for sink in (wide, narrow):
        sink.write_bits_lsb(0b1010101 >> (7 - fill), fill)
    for value, n in fields:
        wide.write_bits_lsb(value, n)
        for k in range(n):
            narrow.write_bits_lsb(value >> k & 1, 1)
        assert wide.bit_length == narrow.bit_length
    assert wide.to_bytes() == narrow.to_bytes()


def test_wide_write_validation():
    sink = BitSink()
    sink.write_bits_lsb(1, 3)
    with pytest.raises(ValueOutOfRange):
        sink.write_bits_lsb(1 << 40, 40)  # does not fit
    with pytest.raises(ValueOutOfRange):
        sink.write_bits_lsb(-1, 4)
    assert sink.bit_length == 3


def test_sink_align_and_aligned_bytes():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    with pytest.raises(ValueOutOfRange):
        sink.write_bytes_aligned(b"xy")
    sink.align_to_byte()
    assert sink.bit_length == 8
    sink.write_bytes_aligned(b"xy")
    assert sink.to_bytes() == b"\x01xy"
    sink.align_to_byte()  # no-op when already aligned
    assert sink.bit_length == 24


def test_to_bytes_pads_without_mutating():
    sink = BitSink()
    sink.write_bits_lsb(0b11, 2)
    first = sink.to_bytes()
    assert first == b"\x03"
    assert sink.bit_length == 2  # padding did not stick
    sink.write_bits_lsb(1, 1)
    assert sink.to_bytes() == b"\x07"
    assert sink.bit_length == 3


@given(
    st.lists(
        st.integers(min_value=0, max_value=MAX_FIELD_BITS).flatmap(
            lambda n: st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1), st.just(n))
        ),
        max_size=60,
    )
)
def test_sink_cursor_round_trip(fields):
    sink = BitSink()
    for value, n in fields:
        sink.write_bits_lsb(value, n)
    data = sink.to_bytes()
    pos = 0
    for value, n in fields:
        got, pos = read_bits(data, pos, n, 8 * len(data))
        assert got == value
    assert pos == sink.bit_length


@given(st.lists(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=16), max_size=40))
def test_code_then_bitwise_read_round_trip(codes):
    sink = BitSink()
    for code in codes:
        write_code_msb(sink, code)
    data = sink.to_bytes()
    pos = 0
    for code in codes:
        for expected in code:
            bit, pos = read_bits(data, pos, 1, 8 * len(data))
            assert bit == expected


def test_non_contiguous_buffers_raise_buffer_error_as_zlib_does():
    # A strided view was passed through as it was: whether it compressed
    # or raised a bare TypeError from the stored writer depended on its
    # bytes, crc32 and tokenize read the strided bytes, and an array's
    # strided view failed in cast.
    strided = (
        memoryview(random.Random(1).randbytes(4000))[::2],
        memoryview(b"hello hello hello " * 200)[::2],
        memoryview(array("I", range(1000)))[::2],
    )
    entry_points = (
        byte_view, deflate, tokenize, crc32, gzip_compress, gzip_decompress, inflate,
        parse_deflate, parse_block_header, parse_stored_block, parse_dynamic_header,
        lambda view: next(iter_blocks(view)),
    )
    for view in strided:
        for zlib_call in (zlib.compress, zlib.crc32, zlib.decompress):
            with pytest.raises(BufferError):
                zlib_call(view)
        for call in entry_points:
            with pytest.raises(BufferError, match="^buffer is not C-contiguous$"):
                call(view)
        sink = BitSink()
        with pytest.raises(BufferError):
            write_stored_block(view, True, sink)
        assert sink.bit_length == 0  # rejected before anything is written
    # A C-contiguous buffer of two dimensions is still read as its bytes.
    grid = memoryview(bytes(range(240)) * 4).cast("B", (24, 40))
    data = bytes(grid)
    assert inflate(deflate(grid)) == gzip_decompress(gzip_compress(grid)) == data
    assert crc32(grid) == zlib.crc32(data)
