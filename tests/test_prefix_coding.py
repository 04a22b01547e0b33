"""Canonical coding construction, Kraft accounting, axiom checks, decoding.

The two constructions are differential twins; the slow decoder below is
a third, structure-free implementation used to pin down read_symbol.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflatekit.bitio import BitCursor, BitSink
from deflatekit.errors import (
    BadCode,
    EndOfInput,
    KraftViolation,
    LengthOverflow,
    UnencodableCharacter,
    ValueOutOfRange,
)
from deflatekit.prefix_coding import (
    AxiomReport,
    CodeLengths,
    DeflateCoding,
    MAX_CL_CODE_LENGTH,
    MAX_CODE_LENGTH,
    build_coding,
    build_coding_counting,
    check_axioms,
    decode_symbol,
    encode_symbol,
    fixed_dist_coding,
    fixed_lit_coding,
    has_all_ones_code,
    kraft_sum,
)
from conftest import random_code_lengths


def fraction_sum(lengths) -> Fraction:
    """Independent exact Kraft sum."""
    return sum((Fraction(1, 2 ** l) for l in lengths if l > 0), Fraction(0))


def slow_decode(coding: DeflateCoding, data: bytes, pos: int, bit_end=None):
    """Read one code by scanning the table; (char, new pos) or exception.

    Compares the accumulated bits against every code at each step, with
    none of the canonical-range machinery the real decoder uses.  Bits
    that match no code are reported (at their first bit) only once as
    many bits as the longest code have been read; with fewer bits left
    before ``bit_end`` the read runs out of input, as the decoder's does.
    """
    if bit_end is None:
        bit_end = 8 * len(data)
    longest = max(map(len, coding.codes), default=0)
    got = []
    while len(got) < longest:
        if pos >= bit_end:
            raise EndOfInput(pos, "a prefix code")
        got.append((data[pos >> 3] >> (pos & 7)) & 1)
        pos += 1
        prefix = tuple(got)
        exact = [ch for ch, code in enumerate(coding.codes) if code == prefix]
        if exact:
            return exact[0], pos
    raise BadCode(pos - len(got))


# -- the worked example -------------------------------------------------


def test_worked_example_codes():
    coding = build_coding([2, 1, 3, 3, 0])
    assert coding.codes == ((1, 0), (0,), (1, 1, 0), (1, 1, 1), ())


def test_worked_example_via_counting():
    assert build_coding_counting([2, 1, 3, 3, 0]) == build_coding([2, 1, 3, 3, 0])


def test_counting_recurrence_handles_empty_length_classes():
    # No length-1 codes, two length-2 codes, then one of length 3: the
    # length-3 class must start at value 4 (binary 100), not 8.
    coding = build_coding_counting([2, 2, 3])
    assert coding.codes == ((0, 0), (0, 1), (1, 0, 0))


def test_constructions_agree_on_random_vectors():
    rng = random.Random(7)
    for _ in range(400):
        lengths = random_code_lengths(rng)
        a = build_coding(lengths)
        b = build_coding_counting(lengths)
        assert a == b
        assert a.code_lengths().lengths == tuple(lengths)


# -- Kraft accounting ---------------------------------------------------


def test_kraft_sum_exact_values():
    assert kraft_sum([1, 1]).as_fraction() == 1
    assert kraft_sum([1, 2, 3, 3]).as_fraction() == 1
    assert kraft_sum([2, 2, 2]).as_fraction() == Fraction(3, 4)
    assert kraft_sum([0, 0]).as_fraction() == 0
    assert kraft_sum([1, 1, 1]).as_fraction() == Fraction(3, 2)


def test_kraft_flags_and_fraction_oracle():
    rng = random.Random(8)
    for _ in range(500):
        lengths = random_code_lengths(rng)
        ks = kraft_sum(lengths)
        oracle = fraction_sum(lengths)
        assert ks.as_fraction() == oracle
        assert ks.is_valid == (oracle <= 1)
        assert ks.is_saturated == (oracle == 1)
        assert ks == oracle


def test_saturation_iff_all_ones_code():
    rng = random.Random(9)
    seen_saturated = seen_unsaturated = 0
    for _ in range(500):
        lengths = random_code_lengths(rng)
        if not any(lengths):
            continue
        coding = build_coding(lengths)
        saturated = kraft_sum(lengths).is_saturated
        assert has_all_ones_code(coding) == saturated
        seen_saturated += saturated
        seen_unsaturated += not saturated
    assert seen_saturated > 50 and seen_unsaturated > 50


def test_oversubscribed_vectors_are_rejected():
    for lengths in ([1, 1, 1], [1, 2, 2, 2], [15] * 40000):
        assert not kraft_sum(lengths).is_valid
        with pytest.raises(KraftViolation):
            build_coding(lengths)
        with pytest.raises(KraftViolation):
            build_coding_counting(lengths)


def test_code_lengths_validation():
    with pytest.raises(ValueOutOfRange):
        CodeLengths([1, -1])
    with pytest.raises(LengthOverflow):
        CodeLengths([MAX_CODE_LENGTH + 1])
    with pytest.raises(LengthOverflow):
        CodeLengths([MAX_CL_CODE_LENGTH + 1], MAX_CL_CODE_LENGTH)
    with pytest.raises(ValueOutOfRange):
        CodeLengths([1], max_len=0)
    cl = CodeLengths([3, 0, 2])
    assert len(cl) == 3 and list(cl) == [3, 0, 2]


def test_coding_table_validation():
    with pytest.raises(LengthOverflow):
        DeflateCoding.from_codes([(0,) * 16])
    with pytest.raises(ValueOutOfRange):
        DeflateCoding.from_codes([(0, 2)])


# -- the four axioms ----------------------------------------------------


def test_constructed_codings_satisfy_all_axioms():
    rng = random.Random(12)
    for _ in range(200):
        report = check_axioms(build_coding(random_code_lengths(rng)))
        assert isinstance(report, AxiomReport)
        assert report.all_pass
        assert report.failing_axioms() == ()


GAP_CODING = DeflateCoding.from_codes([(0,), (1, 0, 1), (1, 1, 0), (1, 1, 1)])


def test_gap_coding_fails_exactly_the_fourth_axiom():
    report = check_axioms(GAP_CODING)
    assert report.failing_axioms() == (4,)
    assert report.no_gaps == (3, (1, 0, 0))


def test_prefix_violation_witness():
    report = check_axioms(DeflateCoding.from_codes([(0,), (0, 0)]))
    assert report.prefix_free == (0, 1)
    assert report.failing_axioms() == (1,)


def test_shorter_first_violation_witness():
    # The length-1 code sorts above the length-2 one; the uncovered
    # sequence (0,) is then also a gap, so axioms 2 and 4 both fail.
    report = check_axioms(DeflateCoding.from_codes([(0, 0), (1,)]))
    assert report.shorter_first == (1, 0)
    assert report.failing_axioms() == (2, 4)


def test_character_order_violation_witness():
    report = check_axioms(DeflateCoding.from_codes([(0, 1), (0, 0)]))
    assert report.ordered_within_length == (0, 1)
    assert report.failing_axioms() == (3,)


def test_empty_and_single_code_reports():
    assert check_axioms(DeflateCoding.from_codes([])).all_pass
    assert check_axioms(DeflateCoding.from_codes([(), ()])).all_pass
    assert check_axioms(DeflateCoding.from_codes([(0,)])).all_pass
    # A lone code of 1 leaves (0,) uncovered below it.
    assert check_axioms(DeflateCoding.from_codes([(1,)])).failing_axioms() == (4,)


# -- decoding -----------------------------------------------------------


def test_encode_decode_round_trip_every_character():
    rng = random.Random(13)
    for _ in range(60):
        coding = build_coding(random_code_lengths(rng, max_alphabet=80))
        for ch, code in enumerate(coding.codes):
            if not code:
                with pytest.raises(UnencodableCharacter):
                    encode_symbol(coding, ch)
                continue
            assert encode_symbol(coding, ch) == code
            sink = BitSink()
            sink.write_code_msb(code)
            sink.write_bits_lsb(0, 7)  # junk tail must not matter
            got, rest = decode_symbol(coding, BitCursor(sink.to_bytes()))
            assert got == ch
            assert rest.bit_pos == len(code)


def test_encode_symbol_domain():
    coding = build_coding([1, 1])
    with pytest.raises(UnencodableCharacter):
        encode_symbol(coding, 2)
    with pytest.raises(UnencodableCharacter):
        encode_symbol(coding, -1)


def test_decode_against_slow_reference():
    rng = random.Random(14)
    checked = failures = 0
    for _ in range(150):
        coding = build_coding(random_code_lengths(rng, max_alphabet=60))
        data = rng.randbytes(6)
        for start in range(8):
            try:
                expected = slow_decode(coding, data, start)
            except (BadCode, EndOfInput) as e:
                failures += 1
                with pytest.raises(type(e)) as err:
                    coding.read_symbol(data, start, 8 * len(data))
                assert err.value.bit_pos == e.bit_pos
            else:
                assert coding.read_symbol(data, start, 8 * len(data)) == expected
                checked += 1
    assert checked > 300 and failures > 20


def symbol_stream(coding: DeflateCoding, rng: random.Random, count: int) -> bytes:
    """Codes of random characters, every code length equally likely."""
    by_length: dict[int, list[int]] = {}
    for ch, code in enumerate(coding.codes):
        if code:
            by_length.setdefault(len(code), []).append(ch)
    sink = BitSink()
    for _ in range(count if by_length else 0):
        chars = by_length[rng.choice(sorted(by_length))]
        sink.write_code_msb(coding[rng.choice(chars)])
    return sink.to_bytes()


@pytest.mark.parametrize(
    "lengths",
    [
        list(range(1, 16)) + [15],  # complete, down to 15-bit codes
        [3, 10, 15, 0, 12, 9, 9],  # incomplete, with codes past 9 bits
        [2, 2, 2],  # incomplete, all shorter than 9 bits
        [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8,  # fixed literal/length
        [0, 1],  # a single code
        [0, 0, 0],  # no codes at all
    ],
    ids=["15-bit", "incomplete-long", "incomplete-short", "fixed", "single", "empty"],
)
def test_table_reads_match_the_slow_reference_at_every_start_and_end(lengths):
    # Every bit_end from the start bit on exercises the lookup, the walk
    # after a -1 entry, and the walk with fewer than the table's bits left.
    rng = random.Random(len(lengths))
    coding = build_coding(lengths)
    samples = [symbol_stream(coding, rng, 4) + rng.randbytes(1), rng.randbytes(4)]
    for data in samples:
        for start in range(8 * len(data) + 1):
            for end in range(start, 8 * len(data) + 1):
                try:
                    expected = slow_decode(coding, data, start, end)
                except (BadCode, EndOfInput) as e:
                    with pytest.raises(type(e)) as err:
                        coding.read_symbol(data, start, end)
                    assert err.value.bit_pos == e.bit_pos
                else:
                    assert coding.read_symbol(data, start, end) == expected


def test_decoding_with_no_codes_at_all_fails_at_the_read_position():
    coding = build_coding([0, 0, 0])
    assert coding.codes == ((), (), ())
    with pytest.raises(BadCode) as err:
        coding.read_symbol(b"\xff\xff", 5, 16)
    assert err.value.bit_pos == 5


def test_unmatched_bits_report_the_symbol_start():
    # Codes 00 and 01 leave everything under 1x unmatched; the error
    # points at where the symbol began, not where matching gave up.
    coding = build_coding([2, 2])
    with pytest.raises(BadCode) as err:
        coding.read_symbol(b"\xff", 3, 8)
    assert err.value.bit_pos == 3


def test_truncated_code_reports_end_of_input():
    coding = build_coding([2, 2, 2, 2])
    with pytest.raises(EndOfInput):
        coding.read_symbol(b"\x01", 7, 8)


def test_non_canonical_table_is_refused():
    coding = DeflateCoding.from_codes([(0,), (1, 1)])  # (1,0) skipped
    with pytest.raises(ValueOutOfRange):
        coding.read_symbol(b"\x00", 0, 8)


@settings(max_examples=60)
@given(st.integers(min_value=0))
def test_random_vectors_round_trip_random_symbol_streams(seed):
    rng = random.Random(seed)
    lengths = random_code_lengths(rng, max_alphabet=40)
    if not any(lengths):
        return
    coding = build_coding(lengths)
    chars = [ch for ch, l in enumerate(lengths) if l]
    msg = rng.choices(chars, k=30)
    sink = BitSink()
    for ch in msg:
        sink.write_code_msb(encode_symbol(coding, ch))
    cur = BitCursor(sink.to_bytes())
    seen = []
    for _ in msg:
        ch, cur = decode_symbol(coding, cur)
        seen.append(ch)
    assert seen == msg


# -- the fixed codings --------------------------------------------------


def test_fixed_lit_coding_lengths_and_spot_codes():
    coding = fixed_lit_coding()
    lengths = [len(c) for c in coding.codes]
    assert lengths == [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
    assert coding[0] == (0, 0, 1, 1, 0, 0, 0, 0)
    assert coding[143] == (1, 0, 1, 1, 1, 1, 1, 1)
    assert coding[144] == (1, 1, 0, 0, 1, 0, 0, 0, 0)
    assert coding[255] == (1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert coding[256] == (0, 0, 0, 0, 0, 0, 0)
    assert coding[279] == (0, 0, 1, 0, 1, 1, 1)
    assert coding[280] == (1, 1, 0, 0, 0, 0, 0, 0)
    assert coding[287] == (1, 1, 0, 0, 0, 1, 1, 1)
    assert kraft_sum(lengths).is_saturated
    assert check_axioms(coding).all_pass


def test_fixed_dist_coding_is_five_bit_counting():
    coding = fixed_dist_coding()
    assert len(coding) == 32
    for ch, code in enumerate(coding.codes):
        assert len(code) == 5
        assert sum(b << (4 - i) for i, b in enumerate(code)) == ch
    assert check_axioms(coding).all_pass


def test_fixed_codings_are_cached():
    assert fixed_lit_coding() is fixed_lit_coding()
    assert fixed_dist_coding() is fixed_dist_coding()
