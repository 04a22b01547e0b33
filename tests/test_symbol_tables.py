"""Length and distance codepoint tables: exhaustive round trips and edges."""

import pytest

from deflatekit.errors import InvalidCodepoint, ValueOutOfRange
from deflatekit.reference import (
    DISTANCE_TABLE,
    FORBIDDEN_DISTANCE_CODEPOINTS,
    LENGTH_TABLE,
    MAX_DISTANCE,
    InvalidLengthExtra,
    distance_decode,
    distance_encode,
    length_decode,
    length_encode,
)
from deflatekit.symbol_tables import (
    CL_CODE_ORDER,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
    distance_extra_bits,
    length_extra_bits,
)


def test_every_match_length_round_trips():
    for length in range(MIN_MATCH_LENGTH, MAX_MATCH_LENGTH + 1):
        cp, extra, bits = length_encode(length)
        assert 257 <= cp <= 285
        assert bits == length_extra_bits(cp)
        assert 0 <= extra < (1 << bits) or (bits == 0 and extra == 0)
        assert length_decode(cp, extra) == length


def test_every_distance_round_trips():
    for distance in range(1, MAX_DISTANCE + 1):
        cp, extra, bits = distance_encode(distance)
        assert 0 <= cp <= 29
        assert bits == distance_extra_bits(cp)
        assert 0 <= extra < (1 << bits) or (bits == 0 and extra == 0)
        assert distance_decode(cp, extra) == distance


def test_length_ranges_tile_without_overlap():
    # Walking codepoints in order, each base continues where the
    # previous range stopped; 284 is cut short by 285 owning 258.
    expected_base = 3
    for cp in range(257, 285):
        bits, base = LENGTH_TABLE[cp]
        assert base == expected_base
        expected_base = base + (1 << bits)
    assert expected_base == 259  # 284 nominally reaches 258...
    assert LENGTH_TABLE[285] == (0, 258)  # ...but 285 owns it


def test_distance_ranges_tile_without_overlap():
    expected_base = 1
    for cp in range(30):
        bits, base = DISTANCE_TABLE[cp]
        assert base == expected_base
        expected_base = base + (1 << bits)
    assert expected_base == MAX_DISTANCE + 1


def test_codepoint_284_edge():
    assert length_decode(284, 30) == 257
    assert length_encode(257) == (284, 30, 5)
    with pytest.raises(InvalidLengthExtra):
        length_decode(284, 31)
    with pytest.raises(ValueOutOfRange):
        length_decode(284, 32)


def test_codepoint_285_owns_258():
    assert length_encode(258) == (285, 0, 0)
    assert length_decode(285, 0) == 258
    with pytest.raises(ValueOutOfRange):
        length_decode(285, 1)


def test_length_encode_domain():
    with pytest.raises(ValueOutOfRange):
        length_encode(2)
    with pytest.raises(ValueOutOfRange):
        length_encode(259)
    assert length_encode(3) == (257, 0, 0)


def test_length_codepoint_domain():
    for cp in (255, 256, 286, 287, -1):
        with pytest.raises(InvalidCodepoint):
            length_decode(cp, 0)
        with pytest.raises(InvalidCodepoint):
            length_extra_bits(cp)


def test_distance_encode_domain():
    with pytest.raises(ValueOutOfRange):
        distance_encode(0)
    with pytest.raises(ValueOutOfRange):
        distance_encode(MAX_DISTANCE + 1)
    assert distance_encode(1) == (0, 0, 0)
    assert distance_encode(MAX_DISTANCE) == (29, 8191, 13)


def test_forbidden_distance_codepoints():
    assert FORBIDDEN_DISTANCE_CODEPOINTS == (30, 31)
    for cp in FORBIDDEN_DISTANCE_CODEPOINTS:
        with pytest.raises(InvalidCodepoint):
            distance_decode(cp, 0)
        with pytest.raises(InvalidCodepoint):
            distance_extra_bits(cp)


def test_extra_value_bounds_are_checked():
    with pytest.raises(ValueOutOfRange):
        length_decode(265, 2)  # one extra bit only
    with pytest.raises(ValueOutOfRange):
        length_decode(257, -1)
    with pytest.raises(ValueOutOfRange):
        distance_decode(4, 2)


def test_cl_code_order():
    assert CL_CODE_ORDER == (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)
    assert sorted(CL_CODE_ORDER) == list(range(19))
