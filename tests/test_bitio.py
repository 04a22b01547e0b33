"""Bit packing order and the field reader, checked against a naive reader."""

import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deflatekit.bitio import MAX_FIELD_BITS, BitCursor, BitSink, read_bits
from deflatekit.errors import EndOfInput, ValueOutOfRange
from deflatekit.inflate import FailReason, NoParse, parse_stored_block

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
    with pytest.raises(EndOfInput):
        read_bits(data, pos, 1, end)


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
    with pytest.raises(EndOfInput) as err:
        read_bits(b"\xab", 3, 6, 8)
    assert err.value.bit_pos == 3


def test_cursor_positions_are_bounded():
    BitCursor(b"ab", 16)  # exactly at the end is fine
    with pytest.raises(ValueOutOfRange):
        BitCursor(b"ab", 17)
    with pytest.raises(ValueOutOfRange):
        BitCursor(b"ab", -1)


def stored_block(payload: bytes) -> bytes:
    return struct.pack("<HH", len(payload), len(payload) ^ 0xFFFF) + payload


def test_align_to_byte_cursor():
    # A stored block skips to the next byte boundary (none when already
    # aligned), then reads LEN, NLEN and LEN whole bytes from there.
    payload = b"bcd"
    for start, aligned in ((0, 0), (1, 8), (8, 8), (15, 16)):
        data = bytes(aligned // 8) + stored_block(payload)
        outcome = parse_stored_block(BitCursor(data, start))
        assert outcome.value == payload
        assert outcome.rest.bit_pos == 8 * len(data)
        assert outcome.consumed_bits == 8 * len(data) - start


def test_read_bytes_aligned():
    # The payload is a whole-byte slice read from the aligned position;
    # bytes after it are left for the next parse.
    data = b"a" + stored_block(b"bcd") + b"ef"
    outcome = parse_stored_block(BitCursor(data, 8))
    assert outcome.value == b"bcd"
    assert outcome.rest.bit_pos == 8 * (1 + 4 + 3)
    assert outcome.rest.data[outcome.rest.bit_pos // 8 :] == b"ef"
    # A payload that runs past the end fails at the payload's first bit.
    for start, aligned in ((0, 0), (1, 8), (8, 8), (15, 16)):
        short = bytes(aligned // 8) + stored_block(b"bcd")[:-1]
        outcome = parse_stored_block(BitCursor(short, start))
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
