"""Canonical coding construction, Kraft accounting, axiom checks, decoding.

``build_coding`` assigns code values from the characters counted per
length (RFC 1951's ``next_code`` recurrence); the reference model
``build_coding_sorted`` visits the characters sorted by (length,
character) instead.  The two are differential twins on the code values
and share one input check.  The slow decoder below is a third,
structure-free implementation used to pin down read_symbol.
"""

import enum
import hashlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflatekit import prefix_coding
from deflatekit.bitio import BitSink
from deflatekit.compress import huffman_lengths
from deflatekit.errors import (
    DeflateError,
    FailReason,
    InflateError,
    KraftViolation,
    LengthOverflow,
    ValueOutOfRange,
)
from deflatekit.gzip_container import gzip_compress, gzip_decompress
from deflatekit.prefix_coding import (
    DeflateCoding,
    FIXED_DIST,
    FIXED_LIT,
    MAX_CL_CODE_LENGTH,
    MAX_CODE_LENGTH,
    build_coding,
    canonical_codes,
    check_lengths,
)
from deflatekit.reference import (
    AxiomReport,
    bit_codes,
    build_coding_sorted,
    check_axioms,
    has_all_ones_code,
    kraft_sum,
)
from conftest import random_code_lengths, write_code_msb


def fraction_sum(lengths) -> Fraction:
    """Independent exact Kraft sum."""
    return sum((Fraction(1, 2 ** l) for l in lengths if l > 0), Fraction(0))


def slow_decode(codes, data: bytes, pos: int, bit_end=None):
    """Read one code by scanning a ``bit_codes`` table; (char, new pos) or exception.

    Compares the accumulated bits against every code at each step, with
    neither the lookup table nor the stream-code dict the real decoder
    uses.  Bits that match no code are reported (at their first bit)
    only once as many bits as the longest code have been read; with
    fewer bits left before ``bit_end`` the read runs out of input, as
    the decoder's does.
    """
    if bit_end is None:
        bit_end = 8 * len(data)
    longest = max(map(len, codes), default=0)
    got = []
    while len(got) < longest:
        if pos >= bit_end:
            raise InflateError(FailReason.END_OF_INPUT, pos)
        got.append((data[pos >> 3] >> (pos & 7)) & 1)
        pos += 1
        prefix = tuple(got)
        exact = [ch for ch, code in enumerate(codes) if code == prefix]
        if exact:
            return exact[0], pos
    raise InflateError(FailReason.BAD_CODE, pos - len(got))


# -- the worked example -------------------------------------------------


def test_worked_example_codes():
    coding = build_coding([2, 1, 3, 3, 0])
    assert bit_codes(coding) == ((1, 0), (0,), (1, 1, 0), (1, 1, 1), ())
    assert coding.lengths == (2, 1, 3, 3, 0)
    assert canonical_codes(coding.lengths)[0] == (0b10, 0b0, 0b110, 0b111, 0)


def test_a_coding_holds_only_what_the_codec_reads():
    # The bit-tuple view is reference.bit_codes; a coding is the
    # decoder's half, and canonical_codes alone builds the writer's.
    assert DeflateCoding.__slots__ == ("lengths", "table_bits", "table", "_long_codes", "_longest")
    assert canonical_codes([2, 1, 3, 3, 0]) == (
        (0b10, 0b0, 0b110, 0b111, 0), ((0b01, 2), (0b0, 1), (0b011, 3), (0b111, 3), (0, 0)))
    for name in ("codes", "max_len", "values", "stream_codes", "__getitem__", "__len__"):
        assert not hasattr(FIXED_LIT, name), name
    with pytest.raises(TypeError):
        FIXED_LIT[0]
    with pytest.raises(TypeError):
        len(FIXED_LIT)


def test_worked_example_via_counting():
    assert canonical_codes([2, 1, 3, 3, 0])[0] == build_coding_sorted([2, 1, 3, 3, 0])


def test_counting_recurrence_handles_empty_length_classes():
    # No length-1 codes, two length-2 codes, then one of length 3: the
    # length-3 class must start at value 4 (binary 100), not 8, which
    # the closed form sum of count[j] << j over j < 3 would give.
    assert canonical_codes([2, 2, 3])[0] == (0b00, 0b01, 0b100)


# sha256 over canonical_codes' values and stream codes on the vectors of
# test_constructions_agree_on_random_vectors, recorded while the
# constructor still built them beside the decode table.
PINNED_WRITER_HALF_SHA256 = "26579dce608bdd15293967820ee51147071bcc92fd15c4b47017e0771d638b96"


def test_constructions_agree_on_random_vectors():
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(400):
        lengths = random_code_lengths(rng)
        coding = DeflateCoding(lengths)
        assert coding == build_coding(lengths)
        # The writer's half agrees with the sorted construction, reversed
        # into stream order, whether the lengths come as a list or as bytes.
        values, stream_codes = canonical_codes(lengths)
        assert values == build_coding_sorted(lengths)
        assert stream_codes == tuple(
            (int(f"{v:0{l}b}"[::-1], 2) if l else 0, l) for v, l in zip(values, lengths))
        assert canonical_codes(bytes(lengths)) == (values, stream_codes)
        assert [len(code) for code in bit_codes(coding)] == lengths
        digest.update(f"{values} {stream_codes}\n".encode())
    assert digest.hexdigest() == PINNED_WRITER_HALF_SHA256


def build_coding_vectors():
    """About 2,000 seeded (lengths, max_len) pairs, good and bad."""
    rng = random.Random(2016)
    vectors = [
        (random_code_lengths(rng, max_len=max_len), max_len)
        for max_len in (7, 15)
        for _ in range(1000)
    ]
    vectors += [
        ([8] * 144 + [9] * 112 + [7] * 24 + [8] * 8, MAX_CODE_LENGTH),
        ([5] * 32, MAX_CODE_LENGTH),
        ([], MAX_CODE_LENGTH),
        ([0] * 19, MAX_CL_CODE_LENGTH),
        ([0, 0, 4, 0], MAX_CODE_LENGTH),
        ([16, 16], MAX_CODE_LENGTH),
        ([1, 1, 1], MAX_CODE_LENGTH),
        ([1, 1], 0),
        ([2, -1, 2], MAX_CODE_LENGTH),
    ]
    return vectors


# sha256 over build_coding's outcome on build_coding_vectors(), recorded
# while codes were still constructed as bit tuples.
PINNED_BUILD_CODING_SHA256 = "4103b787f172e5ee8e1a0d422201d1b1a244eafc6002ade616bd801b56cae40f"


def test_build_coding_outcomes_match_the_pinned_digest():
    digest = hashlib.sha256()
    for lengths, max_len in build_coding_vectors():
        try:
            coding = build_coding(lengths, max_len)
        except DeflateError as e:
            line = f"error {type(e).__name__} {e}"
        else:
            line = f"ok {max_len} {bit_codes(coding)}"
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_BUILD_CODING_SHA256


def huffman_lengths_vectors():
    """Seeded (counts, max_len) pairs over 286, 30 and 19 symbols.

    Dense, sparse, one-symbol, tied and Fibonacci-weighted counts, each
    under limits 15 and 7 wherever the limit can code the used symbols.
    Fibonacci weights make the unlimited tree as deep as it can be, so
    both limits force the length repair.
    """
    rng = random.Random(1951)
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    vectors = []
    for n in (286, 30, 19):
        for _ in range(6):
            counts = [rng.randrange(1000) for _ in range(n)]
            vectors.append(counts)
            vectors.append([rng.choice((0, 0, 0, rng.randrange(1, 50))) for _ in range(n)])
            sparse = [0] * n
            for s in rng.sample(range(n), rng.randrange(2, 6)):
                sparse[s] = rng.randrange(1, 100)
            vectors.append(sparse)
            one = [0] * n
            one[rng.randrange(n)] = rng.randrange(1, 100)
            vectors.append(one)
            tied = [0] * n
            for s in rng.sample(range(n), rng.randrange(2, min(n, 40))):
                tied[s] = 7
            vectors.append(tied)
            weighted = [0] * n
            for k, s in enumerate(rng.sample(range(n), min(n, 30))):
                weighted[s] = fib[k]
            vectors.append(weighted)
        vectors.append([0] * n)
        vectors.append([1] * n)
    return [
        (counts, max_len)
        for counts in vectors
        for max_len in (15, 7)
        if sum(1 for c in counts if c) <= 1 << max_len
    ]


# sha256 over huffman_lengths of huffman_lengths_vectors(), recorded
# from the three-array (weight, parent, depth) construction.  The
# small-scope test checks optimality, which ties leave open; this holds
# every tie to the same lengths.
PINNED_HUFFMAN_LENGTHS_SHA256 = "d5a6a3508b38a06c5886aec980c2742ef227a0215467bc1d881c56543ab99d79"


def test_huffman_lengths_match_the_pinned_digest():
    digest = hashlib.sha256()
    for counts, max_len in huffman_lengths_vectors():
        lengths = huffman_lengths(counts, max_len)
        digest.update(f"{max_len} {counts} {lengths}\n".encode())
    assert digest.hexdigest() == PINNED_HUFFMAN_LENGTHS_SHA256


# -- Kraft accounting ---------------------------------------------------


def test_kraft_sum_exact_values():
    assert kraft_sum([1, 1]) == 1
    assert kraft_sum([1, 2, 3, 3]) == 1
    assert kraft_sum([2, 2, 2]) == Fraction(3, 4)
    assert kraft_sum([0, 0]) == 0
    assert kraft_sum([]) == 0
    assert kraft_sum([1, 1, 1]) == Fraction(3, 2)
    assert kraft_sum([15] * 40000) == Fraction(40000, 2**15)


def test_kraft_flags_and_fraction_oracle():
    rng = random.Random(8)
    for _ in range(500):
        lengths = random_code_lengths(rng)
        ks = kraft_sum(lengths)
        assert type(ks) is Fraction
        assert ks == fraction_sum(lengths)


def test_saturation_iff_all_ones_code():
    rng = random.Random(9)
    seen_saturated = seen_unsaturated = 0
    for _ in range(500):
        lengths = random_code_lengths(rng)
        if not any(lengths):
            continue
        coding = build_coding(lengths)
        saturated = kraft_sum(lengths) == 1
        assert has_all_ones_code(coding) == saturated
        seen_saturated += saturated
        seen_unsaturated += not saturated
    assert seen_saturated > 50 and seen_unsaturated > 50


def test_oversubscribed_vectors_are_rejected():
    for lengths in ([1, 1, 1], [1, 2, 2, 2], [15] * 40000):
        assert kraft_sum(lengths) > 1
        # The check runs on integers; the message shows the exact Fraction.
        with pytest.raises(KraftViolation, match=f"is {kraft_sum(lengths)} > 1$"):
            build_coding(lengths)
        with pytest.raises(KraftViolation):
            build_coding_sorted(lengths)


def test_code_lengths_validation():
    # The constructor, under both its names, the writer's canonical_codes
    # and the sorted model share one input check: each bad vector raises
    # the same exception, with the same message, from each, when the
    # coding is built.  A length out of range is reported for the first
    # character that has one, before over-subscription is considered.
    over = "code-length vector is over-subscribed: sum of 2**-l is 3/2 > 1"
    cases = [
        (ValueOutOfRange, "length -1 of character 1 is negative", [1, -1], MAX_CODE_LENGTH),
        (LengthOverflow, "length 16 of character 0 exceeds the maximum 15",
         [MAX_CODE_LENGTH + 1] * 2, MAX_CODE_LENGTH),
        (LengthOverflow, "length 8 of character 0 exceeds the maximum 7",
         [MAX_CL_CODE_LENGTH + 1] * 2, MAX_CL_CODE_LENGTH),
        (ValueOutOfRange, "max_len 0 must be at least 1", [1], 0),
        # A packed entry holds a length in 4 bits: unchecked, a 16-bit code
        # would read in zero bits and a 17-bit one as a 1-bit one.
        (LengthOverflow, "length 16 of character 1 exceeds the maximum 15",
         [1, MAX_CODE_LENGTH + 1], MAX_CODE_LENGTH),
        (ValueOutOfRange, "max_len 17 must be at most 15",
         [1, MAX_CODE_LENGTH + 2], MAX_CODE_LENGTH + 2),
        (KraftViolation, over, [1, 1, 1], MAX_CODE_LENGTH),
        # Mixed offences: the first offending character wins, whatever its offence.
        (LengthOverflow, "length 16 of character 0 exceeds the maximum 15",
         [16, -1], MAX_CODE_LENGTH),
        (ValueOutOfRange, "length -1 of character 0 is negative", [-1, 16], MAX_CODE_LENGTH),
        (LengthOverflow, "length 16 of character 3 exceeds the maximum 15",
         [1, 1, 1, 16], MAX_CODE_LENGTH),
        (ValueOutOfRange, "length -2 of character 2 is negative",
         [1, 1, -2, 1, 16, -1], MAX_CODE_LENGTH),
        # A length is an int, never a float, a string or a bool, which
        # bytes() would take as 1.
        (ValueOutOfRange, "length 1.5 of character 0 is not an int", [1.5], MAX_CODE_LENGTH),
        (ValueOutOfRange, "length '1' of character 0 is not an int", ["1"], MAX_CODE_LENGTH),
        (ValueOutOfRange, "length True of character 0 is not an int", [True, 1], MAX_CODE_LENGTH),
        (LengthOverflow, "length 16 of character 1 exceeds the maximum 15",
         [1, 16, 1.5], MAX_CODE_LENGTH),
        # Bytes, as the codec passes, are screened alike.
        (LengthOverflow, "length 8 of character 1 exceeds the maximum 7",
         bytes([1, 8, 9]), MAX_CL_CODE_LENGTH),
        (LengthOverflow, "length 16 of character 2 exceeds the maximum 15",
         bytearray([1, 1, 16]), MAX_CODE_LENGTH),
        (KraftViolation, over, bytes([1, 1, 1]), MAX_CODE_LENGTH),
    ]
    for expected, message, lengths, max_len in cases:
        for construct in (DeflateCoding, build_coding, build_coding_sorted, canonical_codes):
            with pytest.raises(Exception) as err:
                construct(lengths, max_len)
            assert type(err.value) is expected, (construct.__name__, lengths, max_len)
            assert str(err.value) == message, (construct.__name__, lengths, max_len)


@pytest.mark.parametrize("max_len", [1.5, True, "3", None], ids=["float", "bool", "str", "none"])
def test_a_max_len_that_is_no_int_is_out_of_range(max_len):
    # Screened before the range check, so a bool is not taken as 1 nor a
    # float as a bound, and a string or None raises no bare TypeError.
    message = f"^max_len must be an int, not {type(max_len).__name__}$"
    for construct in (check_lengths, DeflateCoding, build_coding, build_coding_sorted,
                      canonical_codes):
        with pytest.raises(ValueOutOfRange, match=message):
            construct([1, 1], max_len)


class Width(enum.IntEnum):
    NONE, ONE, TWO, THREE = range(4)


class Length(int):
    """An int subclass that is no enum."""


def test_lengths_of_an_int_subclass_build_what_plain_ints_build():
    # The screen takes any int but a bool; the built coding holds plain ints.
    lengths = random_code_lengths(random.Random(17))
    assert max(lengths) > 11  # codes past the primary table too
    for plain, members in (([2, 1, 3, 3, 0], [Width(l) for l in (2, 1, 3, 3, 0)]),
                           (lengths, [Length(l) for l in lengths])):
        coding, twin = DeflateCoding(members), DeflateCoding(plain)
        assert coding.lengths == twin.lengths
        assert {type(l) for l in coding.lengths} <= {int}
        assert (coding.table_bits, coding.table, coding._long_codes) == (
            twin.table_bits, twin.table, twin._long_codes)
        assert canonical_codes(members) == canonical_codes(plain)
        assert repr(coding) == repr(twin)
    with pytest.raises(ValueOutOfRange, match="^length True of character 1 is not an int$"):
        DeflateCoding([Width.TWO, True, Width.THREE, Width.THREE])


def bench_corpus():
    """The benchmark's item generators, bench/corpus.py."""
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("deflatekit_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_codec_hands_check_lengths_only_bytes(monkeypatch):
    # The round trip of a benchmark text item and the decode of a zlib
    # member with dynamic blocks screen every vector at C speed.
    corpus = bench_corpus()
    plain = corpus.make_item("text", 1, 0, corpus.ITEM_BYTES)
    member = corpus.zlib_gzip(plain, 6)
    seen = []

    def recorded(lengths, max_len=MAX_CODE_LENGTH):
        seen.append(type(lengths))
        return check_lengths(lengths, max_len)

    monkeypatch.setattr(prefix_coding, "check_lengths", recorded)
    assert gzip_decompress(gzip_compress(plain)) == plain
    compressed = len(seen)
    assert gzip_decompress(member) == plain
    assert compressed > 3 and len(seen) >= compressed + 3  # dynamic blocks on both sides
    assert set(seen) <= {bytes, bytearray}


# -- the four axioms ----------------------------------------------------


def test_constructed_codings_satisfy_all_axioms():
    rng = random.Random(12)
    for _ in range(200):
        report = check_axioms(bit_codes(build_coding(random_code_lengths(rng))))
        assert isinstance(report, AxiomReport)
        assert report.all_pass
        assert report.failing_axioms() == ()


# A code table no length vector gives: (1, 0, 0) is skipped.
GAP_CODES = ((0,), (1, 0, 1), (1, 1, 0), (1, 1, 1))


def test_gap_coding_fails_exactly_the_fourth_axiom():
    report = check_axioms(GAP_CODES)
    assert report.failing_axioms() == (4,)
    assert report.no_gaps == (3, (1, 0, 0))


def test_prefix_violation_witness():
    report = check_axioms([(0,), (0, 0)])
    assert report.prefix_free == (0, 1)
    assert report.failing_axioms() == (1,)


def test_shorter_first_violation_witness():
    # The length-1 code sorts above the length-2 one; the uncovered
    # sequence (0,) is then also a gap, so axioms 2 and 4 both fail.
    report = check_axioms([(0, 0), (1,)])
    assert report.shorter_first == (1, 0)
    assert report.failing_axioms() == (2, 4)


def test_character_order_violation_witness():
    report = check_axioms([(0, 1), (0, 0)])
    assert report.ordered_within_length == (0, 1)
    assert report.failing_axioms() == (3,)


def test_empty_and_single_code_reports():
    assert check_axioms([]).all_pass
    assert check_axioms([(), ()]).all_pass
    assert check_axioms([(0,)]).all_pass
    # A lone code of 1 leaves (0,) uncovered below it.
    assert check_axioms([(1,)]).failing_axioms() == (4,)


# -- decoding -----------------------------------------------------------


def test_encode_decode_round_trip_every_character():
    rng = random.Random(13)
    for _ in range(60):
        lengths = random_code_lengths(rng, max_alphabet=80)
        coding = build_coding(lengths)
        for ch, code in enumerate(bit_codes(coding)):
            assert len(code) == lengths[ch]
            if not code:
                continue
            sink = BitSink()
            write_code_msb(sink, code)
            sink.write_bits_lsb(0, 7)  # junk tail must not matter
            data = sink.to_bytes()
            assert coding.read_symbol(data, 0, 8 * len(data)) == (ch, len(code))


def test_decode_against_slow_reference():
    rng = random.Random(14)
    checked = failures = 0
    for _ in range(150):
        coding = build_coding(random_code_lengths(rng, max_alphabet=60))
        codes = bit_codes(coding)
        data = rng.randbytes(6)
        for start in range(8):
            try:
                expected = slow_decode(codes, data, start)
            except InflateError as e:
                failures += 1
                with pytest.raises(InflateError) as err:
                    coding.read_symbol(data, start, 8 * len(data))
                assert (err.value.reason, err.value.bit_pos) == (e.reason, e.bit_pos)
            else:
                assert coding.read_symbol(data, start, 8 * len(data)) == expected
                checked += 1
    assert checked > 300 and failures > 20


def symbol_stream(coding: DeflateCoding, rng: random.Random, count: int) -> bytes:
    """Codes of random characters, every code length equally likely."""
    codes = bit_codes(coding)
    by_length: dict[int, list[int]] = {}
    for ch, code in enumerate(codes):
        if code:
            by_length.setdefault(len(code), []).append(ch)
    sink = BitSink()
    for _ in range(count if by_length else 0):
        chars = by_length[rng.choice(sorted(by_length))]
        write_code_msb(sink, codes[rng.choice(chars)])
    return sink.to_bytes()


@pytest.mark.parametrize(
    "lengths",
    [
        list(range(1, 16)) + [15],  # complete, down to 15-bit codes
        [3, 10, 15, 0, 12, 9, 9],  # incomplete, with codes past the 11-bit table
        [2, 2, 2],  # incomplete, all shorter than the table
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
    codes = bit_codes(coding)
    samples = [symbol_stream(coding, rng, 4) + rng.randbytes(1), rng.randbytes(4)]
    for data in samples:
        for start in range(8 * len(data) + 1):
            for end in range(start, 8 * len(data) + 1):
                try:
                    expected = slow_decode(codes, data, start, end)
                except InflateError as e:
                    with pytest.raises(InflateError) as err:
                        coding.read_symbol(data, start, end)
                    assert (err.value.reason, err.value.bit_pos) == (e.reason, e.bit_pos)
                else:
                    assert coding.read_symbol(data, start, end) == expected


def test_decoding_with_no_codes_at_all_fails_at_the_read_position():
    coding = build_coding([0, 0, 0])
    assert bit_codes(coding) == ((), (), ())
    with pytest.raises(InflateError) as err:
        coding.read_symbol(b"\xff\xff", 5, 16)
    assert (err.value.reason, err.value.bit_pos) == (FailReason.BAD_CODE, 5)


def test_unmatched_bits_report_the_symbol_start():
    # Codes 00 and 01 leave everything under 1x unmatched; the error
    # points at where the symbol began, not where matching gave up.
    coding = build_coding([2, 2])
    with pytest.raises(InflateError) as err:
        coding.read_symbol(b"\xff", 3, 8)
    assert (err.value.reason, err.value.bit_pos, err.value.detail) == (FailReason.BAD_CODE, 3, "")


def test_truncated_code_reports_end_of_input():
    coding = build_coding([2, 2, 2, 2])
    with pytest.raises(InflateError) as err:
        coding.read_symbol(b"\x01", 7, 8)
    # One bit is left, shorter than every code: the read runs out at bit 8.
    assert (err.value.reason, err.value.bit_pos, err.value.detail) == (
        FailReason.END_OF_INPUT, 8, "")


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
    codes = bit_codes(coding)
    sink = BitSink()
    for ch in msg:
        write_code_msb(sink, codes[ch])
    data = sink.to_bytes()
    pos = 0
    seen = []
    for _ in msg:
        ch, pos = coding.read_symbol(data, pos, 8 * len(data))
        seen.append(ch)
    assert seen == msg
    assert pos == sink.bit_length


@settings(max_examples=60)
@given(st.integers(min_value=0))
def test_entry_finds_every_code_under_any_higher_bits_at_every_avail(seed):
    # Codes up to 15 bits, so past the primary table too: whatever stream
    # bits follow a code, it resolves once its own bits are in hand.
    rng = random.Random(seed)
    coding = build_coding(random_code_lengths(rng))
    for ch, (rev, length) in enumerate(canonical_codes(coding.lengths)[1]):
        if length:
            bits = rev | rng.getrandbits(32) << length
            for avail in range(length, MAX_CODE_LENGTH + 1):
                assert coding.entry(bits, avail, 0) == ch << 4 | length


# -- stream order -------------------------------------------------------


def test_stream_codes_put_the_leftmost_code_bit_first():
    # An LSB-first field write of a stream code lays down the same bits
    # as writing the code leftmost bit first, and decodes back.
    rng = random.Random(16)
    codings = [build_coding(random_code_lengths(rng)) for _ in range(200)]
    for coding in codings + [FIXED_LIT, FIXED_DIST]:
        codes = bit_codes(coding)
        stream_codes = canonical_codes(coding.lengths)[1]
        assert len(stream_codes) == len(coding.lengths)
        for ch, (rev, length) in enumerate(stream_codes):
            assert length == coding.lengths[ch] == len(codes[ch])
            if not length:
                continue
            as_field, as_code = BitSink(), BitSink()
            as_field.write_bits_lsb(rev, length)
            write_code_msb(as_code, codes[ch])
            data = as_field.to_bytes()
            assert as_field.bit_length == as_code.bit_length
            assert data == as_code.to_bytes()
            assert coding.read_symbol(data, 0, 8 * len(data)) == (ch, length)


# -- the fixed codings --------------------------------------------------


def test_fixed_lit_coding_lengths_and_spot_codes():
    codes = bit_codes(FIXED_LIT)
    lengths = [len(c) for c in codes]
    assert lengths == [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
    assert codes[0] == (0, 0, 1, 1, 0, 0, 0, 0)
    assert codes[143] == (1, 0, 1, 1, 1, 1, 1, 1)
    assert codes[144] == (1, 1, 0, 0, 1, 0, 0, 0, 0)
    assert codes[255] == (1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert codes[256] == (0, 0, 0, 0, 0, 0, 0)
    assert codes[279] == (0, 0, 1, 0, 1, 1, 1)
    assert codes[280] == (1, 1, 0, 0, 0, 0, 0, 0)
    assert codes[287] == (1, 1, 0, 0, 0, 1, 1, 1)
    assert kraft_sum(lengths) == 1
    assert check_axioms(codes).all_pass


def test_fixed_dist_coding_is_five_bit_counting():
    codes = bit_codes(FIXED_DIST)
    assert len(codes) == 32
    for ch, code in enumerate(codes):
        assert len(code) == 5
        assert sum(b << (4 - i) for i, b in enumerate(code)) == ch
    assert check_axioms(codes).all_pass
