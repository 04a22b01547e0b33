"""Stream parsing: golden listings, crafted failures, and zlib differentials.

The golden byte strings in conftest are validated against zlib before
anything else leans on them, so every later equality is anchored to an
independent decoder.
"""

import hashlib
import random
import zlib

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from deflatekit.bitio import BitCursor, BitSink
from deflatekit.compress import CompressParams, deflate
from deflatekit.errors import InflateError, ValueOutOfRange
from deflatekit.history_window import QueueOfDoom, resolve_tokens
from deflatekit.inflate import (
    BlockHeader,
    BlockType,
    FailReason,
    NoParse,
    Parsed,
    inflate,
    iter_blocks,
    parse_block_header,
    parse_deflate,
    parse_dynamic_header,
    parse_stored_block,
)
from deflatekit.prefix_coding import FIXED_DIST, FIXED_LIT, build_coding
from deflatekit.reference import InvalidLengthExtra, distance_decode, length_decode
from deflatekit.symbol_tables import (
    CL_CODE_ORDER,
    DISTANCE_CODES,
    END_OF_BLOCK,
    LENGTH_CODES,
    BackRef,
    Literal,
    distance_extra_bits,
    length_extra_bits,
)

from conftest import (
    GOLDEN_DYNAMIC_BYTES,
    GOLDEN_DYNAMIC_CONSUMED,
    GOLDEN_PLAINTEXT,
    GOLDEN_STATIC_BYTES,
    GOLDEN_STATIC_CONSUMED,
    mixed_corpus_item,
    parse_deflate_queue,
    random_code_lengths,
    reference_deflate,
    write_code_msb,
)

GOLDEN_TOKENS = [
    Literal(97),
    Literal(110),
    BackRef(3, 2),
    Literal(115),
    Literal(95),
    Literal(98),
    BackRef(5, 8),
    BackRef(3, 7),
    Literal(116),
    BackRef(3, 2),
    END_OF_BLOCK,
]

# The production ring window, and the paper's QueueOfDoom reference model.
DECODERS = {"ring": parse_deflate, "queue": parse_deflate_queue}


def test_golden_streams_decode_under_zlib():
    # Anchor the transcribed listings to an independent decoder first.
    assert zlib.decompress(GOLDEN_STATIC_BYTES, -15) == GOLDEN_PLAINTEXT
    assert zlib.decompress(GOLDEN_DYNAMIC_BYTES, -15) == GOLDEN_PLAINTEXT


@pytest.mark.parametrize("impl", ["ring", "queue"])
def test_golden_static_stream(impl):
    outcome = DECODERS[impl](BitCursor(GOLDEN_STATIC_BYTES))
    assert isinstance(outcome, Parsed)
    assert outcome.value == GOLDEN_PLAINTEXT
    assert outcome.consumed_bits == GOLDEN_STATIC_CONSUMED
    assert outcome.rest.bit_pos == GOLDEN_STATIC_CONSUMED


@pytest.mark.parametrize("impl", ["ring", "queue"])
def test_golden_dynamic_stream(impl):
    outcome = DECODERS[impl](BitCursor(GOLDEN_DYNAMIC_BYTES))
    assert isinstance(outcome, Parsed)
    assert outcome.value == GOLDEN_PLAINTEXT
    assert outcome.consumed_bits == GOLDEN_DYNAMIC_CONSUMED


def test_golden_static_token_stream():
    assert list(iter_blocks(GOLDEN_STATIC_BYTES)) == [
        (BlockHeader(True, BlockType.STATIC), GOLDEN_TOKENS, GOLDEN_STATIC_CONSUMED)
    ]


def test_golden_dynamic_header_contents():
    outcome = parse_dynamic_header(BitCursor(GOLDEN_DYNAMIC_BYTES, 3))
    assert isinstance(outcome, Parsed)
    header = outcome.value
    assert (header.hlit, header.hdist, header.hclen) == (260, 6, 18)
    cl_codes = {ch: code for ch, code in enumerate(header.cl_coding.codes) if code}
    assert cl_codes == {
        0: (1, 0, 0),
        1: (1, 1, 1, 0),
        2: (1, 1, 1, 1),
        3: (0, 0),
        4: (0, 1),
        17: (1, 0, 1),
        18: (1, 1, 0),
    }
    lit_codes = {ch: code for ch, code in enumerate(header.lit_coding.codes) if code}
    assert lit_codes == {
        95: (1, 1, 0, 0),
        97: (0, 1, 0),
        98: (0, 1, 1),
        110: (1, 0, 0),
        115: (1, 1, 0, 1),
        116: (1, 0, 1),
        256: (1, 1, 1, 0),
        257: (0, 0),
        259: (1, 1, 1, 1),
    }
    dist_codes = {ch: code for ch, code in enumerate(header.dist_coding.codes) if code}
    assert dist_codes == {1: (0,), 5: (1,)}
    assert outcome.consumed_bits == outcome.rest.bit_pos - 3


def test_inflate_convenience_and_errors():
    assert inflate(GOLDEN_STATIC_BYTES) == GOLDEN_PLAINTEXT
    with pytest.raises(InflateError) as err:
        inflate(b"")
    assert err.value.bit_pos == 0


# -- block headers ------------------------------------------------------


def test_block_header_fields():
    outcome = parse_block_header(BitCursor(GOLDEN_STATIC_BYTES))
    assert outcome.value.is_final and outcome.value.block_type is BlockType.STATIC
    assert outcome.consumed_bits == 3
    outcome = parse_block_header(BitCursor(GOLDEN_DYNAMIC_BYTES))
    assert outcome.value.is_final and outcome.value.block_type is BlockType.DYNAMIC
    # A non-final stored header: bits 0, 0, 0.
    outcome = parse_block_header(BitCursor(b"\x00"))
    assert not outcome.value.is_final
    assert outcome.value.block_type is BlockType.STORED


def test_reserved_block_type():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(3, 2)
    outcome = parse_block_header(BitCursor(sink.to_bytes()))
    assert outcome == NoParse(FailReason.RESERVED_BLOCK_TYPE, 1)


def test_block_header_end_of_input():
    assert parse_block_header(BitCursor(b"")) == NoParse(FailReason.END_OF_INPUT, 0)


# -- stored blocks ------------------------------------------------------


def stored_stream(payload: bytes, final=True) -> bytes:
    sink = BitSink()
    sink.write_bits_lsb(1 if final else 0, 1)
    sink.write_bits_lsb(0, 2)
    sink.align_to_byte()
    sink.write_bits_lsb(len(payload), 16)
    sink.write_bits_lsb(len(payload) ^ 0xFFFF, 16)
    sink.write_bytes_aligned(payload)
    return sink.to_bytes()


def test_stored_block_round_trip():
    data = stored_stream(b"hello stored world")
    outcome = parse_stored_block(BitCursor(data, 3))
    assert outcome.value == b"hello stored world"
    assert outcome.rest.bit_pos == 8 * len(data)
    assert parse_deflate(BitCursor(data)).value == b"hello stored world"


def test_stored_block_empty_payload():
    assert parse_deflate(BitCursor(stored_stream(b""))).value == b""


def test_len_nlen_mismatch():
    data = bytearray(stored_stream(b"abc"))
    data[3] ^= 0x01  # corrupt NLEN's low byte
    outcome = parse_stored_block(BitCursor(bytes(data), 3))
    assert outcome.reason is FailReason.LEN_NLEN_MISMATCH
    assert outcome.bit_pos == 24  # NLEN starts after alignment and LEN


def test_stored_block_truncations():
    data = stored_stream(b"abcdefgh")
    for cut in range(len(data) - 1):
        outcome = parse_deflate(BitCursor(data[:cut]))
        assert outcome.reason is FailReason.END_OF_INPUT


def test_non_final_stored_block_needs_a_successor():
    # A valid non-final block parses, then the next header hits the end.
    data = stored_stream(b"abc", final=False)
    outcome = parse_deflate(BitCursor(data))
    assert outcome.reason is FailReason.END_OF_INPUT
    assert outcome.bit_pos == 8 * len(data)


def test_stored_then_static_multiblock():
    sink = BitSink()
    sink.write_bits_lsb(0, 1)
    sink.write_bits_lsb(0, 2)
    sink.align_to_byte()
    sink.write_bits_lsb(2, 16)
    sink.write_bits_lsb(2 ^ 0xFFFF, 16)
    sink.write_bytes_aligned(b"ok")
    sink.write_bits_lsb(1, 1)  # final static block holding only EOB
    sink.write_bits_lsb(1, 2)
    write_code_msb(sink, FIXED_LIT[256])
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome.value == b"ok"
    assert outcome.consumed_bits == sink.bit_length


# -- dynamic headers, hand-built ------------------------------------------


def start_dynamic(cl_lengths: dict, hlit_raw: int, hdist_raw: int):
    """Sink primed with a dynamic header through the cl lengths, plus
    the cl coding to write the RLE section with."""
    order_index = {sym: i for i, sym in enumerate(CL_CODE_ORDER)}
    hclen = max(4, max(order_index[s] for s in cl_lengths) + 1)
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(2, 2)
    sink.write_bits_lsb(hlit_raw, 5)
    sink.write_bits_lsb(hdist_raw, 5)
    sink.write_bits_lsb(hclen - 4, 4)
    for i in range(hclen):
        sink.write_bits_lsb(cl_lengths.get(CL_CODE_ORDER[i], 0), 3)
    coding = build_coding([cl_lengths.get(s, 0) for s in range(19)], 7)
    return sink, coding


RLE_EXTRA_BITS = {16: 2, 17: 3, 18: 7}


def write_rle(sink: BitSink, coding, ops):
    for sym, extra in ops:
        write_code_msb(sink, coding[sym])
        if sym in RLE_EXTRA_BITS:
            sink.write_bits_lsb(extra, RLE_EXTRA_BITS[sym])


def literal_only_stream(count: int) -> bytes:
    """count times 'a' under lit coding {97: 0, 256: 1}, one dist code."""
    sink, cl = start_dynamic({0: 2, 1: 2, 18: 1}, 0, 0)
    write_rle(
        sink, cl, [(18, 86), (1, None), (18, 127), (18, 9), (1, None), (1, None)]
    )
    for _ in range(count):
        write_code_msb(sink, (0,))
    write_code_msb(sink, (1,))
    return sink.to_bytes()


def backref_stream() -> bytes:
    """'a' then <3,1> then end: lit {97, 256, 257}, dist {codepoint 0}."""
    sink, cl = start_dynamic({1: 2, 2: 2, 18: 1}, 1, 0)
    write_rle(
        sink,
        cl,
        [(18, 86), (1, None), (18, 127), (18, 9), (2, None), (2, None), (1, None)],
    )
    write_code_msb(sink, (0,))  # 'a'
    write_code_msb(sink, (1, 1))  # codepoint 257, length 3
    write_code_msb(sink, (0,))  # distance codepoint 0, distance 1
    write_code_msb(sink, (1, 0))  # end of block
    return sink.to_bytes()


def test_hand_built_dynamic_streams_match_zlib():
    assert zlib.decompress(literal_only_stream(4), -15) == b"aaaa"
    assert zlib.decompress(backref_stream(), -15) == b"aaaa"


def test_hand_built_dynamic_streams_inflate():
    assert inflate(literal_only_stream(4)) == b"aaaa"
    assert inflate(literal_only_stream(0)) == b""
    assert inflate(backref_stream()) == b"aaaa"


def test_empty_distance_coding_fails_only_when_used():
    # Same shape as backref_stream but the single distance length is 0,
    # so the header parses fine and the backref's distance read fails.
    sink, cl = start_dynamic({0: 2, 1: 2, 2: 2, 18: 2}, 1, 0)
    write_rle(
        sink,
        cl,
        [(18, 86), (1, None), (18, 127), (18, 9), (2, None), (2, None), (0, None)],
    )
    header = parse_dynamic_header(BitCursor(sink.to_bytes(), 3))
    assert isinstance(header, Parsed)
    assert all(code == () for code in header.value.dist_coding.codes)

    write_code_msb(sink, (0,))  # 'a'
    write_code_msb(sink, (1, 1))  # codepoint 257: now a distance must follow
    fail_at = sink.bit_length
    sink.write_bits_lsb(0b101, 3)  # whatever bits: nothing can match
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome == NoParse(FailReason.BAD_CODE, fail_at)


# -- deliberate divergences from zlib ------------------------------------


def thirty_two_distance_codes_stream(dist_code: int) -> tuple[bytes, int]:
    """HDIST = 32: 'a', <3, distance code dist_code>, end of block.

    lit {97: 0, 256: 10, 257: 11}; dist {0: 0, 31: 1} among 32 lengths.
    Returns the stream and the bit offset of its distance code.
    """
    sink, cl = start_dynamic({1: 2, 2: 2, 18: 1}, 1, 31)
    write_rle(
        sink,
        cl,
        [(18, 86), (1, None), (18, 127), (18, 9), (2, None), (2, None)]
        + [(1, None), (18, 19), (1, None)],
    )
    write_code_msb(sink, (0,))  # 'a'
    write_code_msb(sink, (1, 1))  # codepoint 257, length 3
    dist_at = sink.bit_length
    write_code_msb(sink, (dist_code,))
    write_code_msb(sink, (1, 0))  # end of block
    return sink.to_bytes(), dist_at


def test_thirty_two_distance_codes_are_accepted_unlike_zlib():
    # RFC 1951 3.2.7 allows 1-32 distance codes (HDIST 0-31); zlib
    # refuses more than 30.  Codes 30 and 31 are still refused in data.
    stream, _ = thirty_two_distance_codes_stream(0)
    assert inflate(stream) == b"aaaa"
    with pytest.raises(zlib.error, match="too many length or distance symbols"):
        zlib.decompressobj(-15).decompress(stream)
    stream, dist_at = thirty_two_distance_codes_stream(1)
    assert parse_deflate(BitCursor(stream)) == NoParse(
        FailReason.INVALID_DISTANCE_CODEPOINT, dist_at, "codepoint 31"
    )
    with pytest.raises(zlib.error, match="too many length or distance symbols"):
        zlib.decompressobj(-15).decompress(stream)


def incomplete_codings_stream(a_length: int, *codes) -> tuple[bytes, int]:
    """lit {97: a_length, 256: 2, 257: 2}, dist {0: 2, 1: 2}: 'a', then codes.

    The distance coding {0: 00, 1: 01} is incomplete (1x matches no
    code); so is the literal/length coding {97: 00, 256: 01, 257: 10}
    when a_length is 2, but not {97: 0, 256: 10, 257: 11} when it is 1.
    Returns the stream and the bit offset just after 'a'.
    """
    cl_lengths = {2: 1, 18: 1} if a_length == 2 else {1: 2, 2: 2, 18: 1}
    sink, cl = start_dynamic(cl_lengths, 1, 1)
    write_rle(sink, cl, [(18, 86), (a_length, None), (18, 127), (18, 9)] + [(2, None)] * 4)
    write_code_msb(sink, (0,) * a_length)  # 'a'
    after_a = sink.bit_length
    for code in codes:
        write_code_msb(sink, code)
    return sink.to_bytes(), after_a


def test_incomplete_codings_are_accepted_unlike_zlib():
    # Rules 1-4 of the paper admit incomplete codings; zlib refuses them
    # unless the coding is a single code.  An unused bit pattern fails as
    # BAD_CODE at its first bit.
    stream, _ = incomplete_codings_stream(2, (1, 0), (0, 0), (0, 1))  # <3, 1>, end
    assert inflate(stream) == b"aaaa"
    with pytest.raises(zlib.error, match="invalid literal/lengths set"):
        zlib.decompressobj(-15).decompress(stream)
    stream, after_a = incomplete_codings_stream(2, (1, 1), (0, 1))
    assert parse_deflate(BitCursor(stream)) == NoParse(FailReason.BAD_CODE, after_a)
    with pytest.raises(zlib.error, match="invalid literal/lengths set"):
        zlib.decompressobj(-15).decompress(stream)

    stream, _ = incomplete_codings_stream(1, (1, 1), (0, 0), (1, 0))  # <3, 1>, end
    assert inflate(stream) == b"aaaa"
    with pytest.raises(zlib.error, match="invalid distances set"):
        zlib.decompressobj(-15).decompress(stream)
    stream, after_a = incomplete_codings_stream(1, (1, 1), (1, 1), (1, 0))
    assert parse_deflate(BitCursor(stream)) == NoParse(FailReason.BAD_CODE, after_a + 2)
    with pytest.raises(zlib.error, match="invalid distances set"):
        zlib.decompressobj(-15).decompress(stream)


def test_repeat_without_previous_length():
    sink, cl = start_dynamic({16: 1, 0: 2, 1: 2}, 0, 0)
    fail_after = sink.bit_length + len(cl[16])
    write_rle(sink, cl, [(16, 0)])
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome == NoParse(FailReason.REPEAT_WITHOUT_PREVIOUS, fail_after)


def test_repeat_overrun():
    sink, cl = start_dynamic({18: 1, 0: 2, 1: 2}, 0, 0)
    write_rle(sink, cl, [(18, 127), (18, 127)])  # 138 + 138 > 258
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome.reason is FailReason.REPEAT_OVERRUN
    assert outcome.bit_pos == sink.bit_length


def test_oversubscribed_literal_lengths_are_a_bad_coding():
    sink, cl = start_dynamic({1: 1, 0: 2, 18: 2}, 0, 0)
    write_rle(
        sink,
        cl,
        [(1, None), (1, None), (1, None), (18, 127), (18, 105), (0, None)],
    )
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome.reason is FailReason.BAD_CODING
    assert outcome.bit_pos == sink.bit_length


def test_oversubscribed_cl_lengths_are_a_bad_coding():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(2, 2)
    sink.write_bits_lsb(0, 5)
    sink.write_bits_lsb(0, 5)
    sink.write_bits_lsb(1, 4)  # hclen 5
    for _ in range(5):
        sink.write_bits_lsb(1, 3)  # five length-1 codes
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome.reason is FailReason.BAD_CODING
    assert outcome.bit_pos == sink.bit_length


def test_forbidden_hlit():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(2, 2)
    sink.write_bits_lsb(30, 5)  # hlit 287
    sink.write_bits_lsb(0, 11)
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome == NoParse(FailReason.FORBIDDEN_HLIT, 3, "hlit 287")


def test_dynamic_header_truncated_at_a_byte_boundary():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(2, 2)
    sink.write_bits_lsb(0, 5)  # exactly one byte: hdist is missing
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome == NoParse(FailReason.END_OF_INPUT, 8)


def test_parse_cl_lengths_wire_order_and_domain():
    # HCLEN 4 carries the lengths of cl symbols 16, 17, 18 and 0, in that
    # wire order; two symbol-18 runs (138 + 120 zeros) then zero all 258
    # literal/length and distance lengths.
    sink = BitSink()
    sink.write_bits_lsb(0, 5)  # hlit 257
    sink.write_bits_lsb(0, 5)  # hdist 1
    sink.write_bits_lsb(0, 4)  # hclen 4
    for v in (3, 0, 5, 2):
        sink.write_bits_lsb(v, 3)
    for extra in (127, 109):
        write_code_msb(sink, (0, 1, 1, 0, 0))  # symbol 18 under that cl coding
        sink.write_bits_lsb(extra, 7)
    outcome = parse_dynamic_header(BitCursor(sink.to_bytes()))
    assert isinstance(outcome, Parsed)
    assert outcome.consumed_bits == sink.bit_length
    header = outcome.value
    assert header.hclen == 4
    expected = [0] * 19
    expected[16], expected[18], expected[0] = 3, 5, 2
    assert [len(code) for code in header.cl_coding.codes] == expected
    assert header.cl_coding.max_len == 7
    assert len(header.lit_coding) == 257 and not any(header.lit_coding.codes)
    assert len(header.dist_coding) == 1 and not any(header.dist_coding.codes)


# -- token-level failures in static blocks --------------------------------


def static_sink(*codepoints: int) -> BitSink:
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(1, 2)
    for cp in codepoints:
        write_code_msb(sink, FIXED_LIT[cp])
    return sink


def test_length_codepoint_286_and_287_are_invalid_in_data():
    for cp in (286, 287):
        sink = static_sink(cp)
        outcome = parse_deflate(BitCursor(sink.to_bytes()))
        assert outcome == NoParse(
            FailReason.INVALID_LENGTH_CODEPOINT, 3, f"codepoint {cp}"
        )


def test_length_codepoint_284_with_extra_31_is_invalid():
    sink = static_sink(284)
    sink.write_bits_lsb(31, 5)
    fail_at = sink.bit_length
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome.reason is FailReason.INVALID_LENGTH_EXTRA
    assert outcome.bit_pos == fail_at
    with pytest.raises(InvalidLengthExtra) as spec:
        length_decode(284, 31)
    assert outcome.detail == str(spec.value)


def test_decoder_base_and_width_tables_match_the_spec():
    # The decoder's flat (width, base) tuples against length_decode and
    # distance_decode, for every extra value each width admits.
    assert len(LENGTH_CODES) == 29 and len(DISTANCE_CODES) == 30
    for cp, (width, base) in enumerate(LENGTH_CODES, start=257):
        for extra in range(1 << width):
            if (cp, extra) == (284, 31):
                with pytest.raises(InvalidLengthExtra):
                    length_decode(cp, extra)
            else:
                assert base + extra == length_decode(cp, extra)
        with pytest.raises(ValueOutOfRange):
            length_decode(cp, 1 << width)
    for cp, (width, base) in enumerate(DISTANCE_CODES):
        for extra in range(1 << width):
            assert base + extra == distance_decode(cp, extra)
        with pytest.raises(ValueOutOfRange):
            distance_decode(cp, 1 << width)


def test_length_codepoint_284_with_extra_30_is_length_257():
    # 'a', then 256 more copies via <257, 1>, then end of block.
    sink = static_sink(97, 284)
    sink.write_bits_lsb(30, 5)
    write_code_msb(sink, FIXED_DIST[0])
    write_code_msb(sink, FIXED_LIT[256])
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome.value == b"a" * 258
    assert zlib.decompress(sink.to_bytes(), -15) == b"a" * 258


def test_distance_codepoints_30_and_31_are_invalid_in_data():
    for dcp in (30, 31):
        sink = static_sink(97, 257)
        fail_at = sink.bit_length
        write_code_msb(sink, FIXED_DIST[dcp])
        outcome = parse_deflate(BitCursor(sink.to_bytes()))
        assert outcome == NoParse(
            FailReason.INVALID_DISTANCE_CODEPOINT, fail_at, f"codepoint {dcp}"
        )


def test_distance_reaching_past_produced_output():
    sink = static_sink(97, 257)  # one byte produced, then length 3
    write_code_msb(sink, FIXED_DIST[1])  # distance 2
    fail_at = sink.bit_length
    write_code_msb(sink, FIXED_LIT[256])
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome == NoParse(
        FailReason.DISTANCE_TOO_FAR, fail_at, "distance 2 with only 1 bytes produced"
    )
    # The walker itself rejects the stream: there is one grammar.
    assert list(iter_blocks(sink.to_bytes())) == [
        (BlockHeader(True, BlockType.STATIC), outcome, fail_at)
    ]


def test_every_byte_truncation_of_the_goldens_runs_out_of_input():
    for stream in (GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES):
        for cut in range(len(stream) - 1):
            outcome = parse_deflate(BitCursor(stream[:cut]))
            assert isinstance(outcome, NoParse)
            assert outcome.reason is FailReason.END_OF_INPUT
            assert outcome.bit_pos <= 8 * cut


# -- global properties ----------------------------------------------------


def test_parsing_is_total_on_garbage():
    rng = random.Random(31)
    for _ in range(400):
        data = rng.randbytes(rng.randrange(0, 120))
        outcome = parse_deflate(BitCursor(data))
        assert isinstance(outcome, (Parsed, NoParse))
        if isinstance(outcome, NoParse):
            assert 0 <= outcome.bit_pos <= 8 * len(data)
            assert isinstance(outcome.reason, FailReason)
        else:
            assert outcome.consumed_bits <= 8 * len(data)


def test_parsing_is_total_on_corrupted_goldens():
    rng = random.Random(32)
    for stream in (GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES):
        for _ in range(200):
            data = bytearray(stream)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            outcome = parse_deflate(BitCursor(bytes(data)))
            assert isinstance(outcome, (Parsed, NoParse))


def test_appending_junk_changes_nothing():
    rng = random.Random(33)
    for stream in (GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES, backref_stream()):
        base = parse_deflate(BitCursor(stream))
        for junk_len in (1, 2, 7, 64):
            junk = rng.randbytes(junk_len)
            outcome = parse_deflate(BitCursor(stream + junk))
            assert outcome.value == base.value
            assert outcome.consumed_bits == base.consumed_bits


def test_zlib_streams_inflate_correctly():
    rng = random.Random(34)
    for level in (0, 1, 6, 9):
        for _ in range(6):
            data = mixed_corpus_item(rng, rng.randrange(0, 4000))
            co = zlib.compressobj(level, zlib.DEFLATED, -15)
            stream = co.compress(data) + co.flush()
            assert inflate(stream) == data
            assert parse_deflate_queue(BitCursor(stream)).value == data


ZLIB_STRATEGIES = (
    zlib.Z_DEFAULT_STRATEGY,
    zlib.Z_FILTERED,
    zlib.Z_HUFFMAN_ONLY,
    zlib.Z_RLE,
    zlib.Z_FIXED,
)


@st.composite
def mutated_zlib_streams(draw) -> bytes:
    """A raw zlib stream, as is or broken, then 0-8 junk bytes.

    Settings are random (level, strategy, memLevel, window bits), and
    the input is a repeated unit followed by random bytes.  The stream
    gets one bit flip, a truncation or a 1-8-byte splice, or is kept.
    """
    plain = draw(st.binary(max_size=64)) * draw(st.integers(0, 60))
    plain += draw(st.binary(max_size=300))
    co = zlib.compressobj(
        draw(st.integers(0, 9)),
        zlib.DEFLATED,
        -draw(st.integers(9, 15)),
        draw(st.integers(1, 9)),
        draw(st.sampled_from(ZLIB_STRATEGIES)),
    )
    stream = bytearray(co.compress(plain) + co.flush())
    mutation = draw(st.sampled_from(("none", "flip", "truncate", "splice")))
    if mutation == "flip":
        bit = draw(st.integers(0, 8 * len(stream) - 1))
        stream[bit >> 3] ^= 1 << (bit & 7)
    elif mutation == "truncate":
        del stream[draw(st.integers(0, len(stream) - 1)) :]
    elif mutation == "splice":
        at = draw(st.integers(0, len(stream)))
        stream[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(stream) + draw(st.binary(max_size=8))


@settings(max_examples=600, deadline=None)
@given(mutated_zlib_streams())
def test_what_zlib_accepts_decodes_to_the_same_bytes_and_length(stream):
    # Where zlib rejects, this test only asks us to be total; the next
    # one asks us to reject as well, outside the documented divergences.
    d = zlib.decompressobj(-15)
    try:
        expected = d.decompress(stream)
    except zlib.error:
        expected = None
    outcome = parse_deflate(BitCursor(stream))
    accepted = expected is not None and d.eof
    event("zlib accepts" if accepted else "zlib rejects")
    if accepted:
        assert isinstance(outcome, Parsed)
        assert outcome.value == expected
        assert (outcome.consumed_bits + 7) // 8 == len(stream) - len(d.unused_data)
    else:
        assert isinstance(outcome, (Parsed, NoParse))


# zlib's messages for the divergences documented above: HDIST 32 (HLIT
# 287 and 288 get the same message, and we refuse those too) and
# incomplete codings, which zlib refuses per coding.
ZLIB_DIVERGENCES = (
    "too many length or distance symbols",
    "invalid code lengths set",
    "invalid literal/lengths set",
    "invalid distances set",
)
ZIPF_WEIGHTS = [1 / (rank + 1) for rank in range(256)]


@st.composite
def broken_streams(draw) -> bytes:
    """A zlib or ``deflate`` stream with 1-3 bit flips, a truncation, or both.

    zlib runs at level 1, 6 or 9 with the default, huffman-only or rle
    strategy.  The input is Zipf-distributed bytes, which give codes
    past 9 bits, then a repeated unit, which gives matches.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    plain = bytes(rng.choices(range(256), ZIPF_WEIGHTS, k=draw(st.integers(0, 2000))))
    plain += rng.randbytes(draw(st.integers(1, 40))) * draw(st.integers(0, 40))
    encoder = draw(st.sampled_from(("zlib", "deflate")))
    if encoder == "zlib":
        co = zlib.compressobj(
            draw(st.sampled_from((1, 6, 9))),
            zlib.DEFLATED,
            -15,
            8,
            draw(st.sampled_from((zlib.Z_DEFAULT_STRATEGY, zlib.Z_HUFFMAN_ONLY, zlib.Z_RLE))),
        )
        stream = bytearray(co.compress(plain) + co.flush())
    else:
        stream = bytearray(deflate(plain))
    flips = draw(st.integers(0, 3))
    truncate = flips == 0 or draw(st.booleans())
    for _ in range(flips):
        bit = draw(st.integers(0, 8 * len(stream) - 1))
        stream[bit >> 3] ^= 1 << (bit & 7)
    if truncate:
        del stream[draw(st.integers(0, len(stream) - 1)) :]
    event(f"{encoder}, {flips} flips" + (", truncated" if truncate else ""))
    return bytes(stream)


@settings(max_examples=300, deadline=None)
@given(broken_streams())
def test_what_zlib_rejects_we_reject_too(stream):
    # Rejecting includes stopping before the final block's end.
    d = zlib.decompressobj(-15)
    try:
        d.decompress(stream)
    except zlib.error as e:
        if any(message in str(e) for message in ZLIB_DIVERGENCES):
            event("documented divergence")
            return
        rejected = True
    else:
        rejected = not d.eof
    event("zlib rejects" if rejected else "zlib accepts")
    if rejected:
        assert isinstance(parse_deflate(BitCursor(stream)), NoParse)


def test_ring_and_queue_windows_agree_on_valid_and_invalid_input():
    # The ring (production) and the QueueOfDoom (reference) see the same
    # walk, so they agree on value, consumption and failure alike.
    rng = random.Random(35)
    streams = [GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES, literal_only_stream(7)]
    streams += [backref_stream(), stored_stream(b"stored", final=False) + backref_stream()]
    streams += [rng.randbytes(rng.randrange(0, 60)) for _ in range(60)]
    for stream in streams:
        assert parse_deflate(BitCursor(stream)) == parse_deflate_queue(BitCursor(stream))


# -- pinned outcomes ------------------------------------------------------


def write_random_tokens(sink: BitSink, rng: random.Random, lit, dist) -> None:
    """Up to 40 random coded symbols, then end of block if it has a code.

    Length codepoints get random extra bits (284 often gets 31), and a
    distance code follows each of them; codepoints 286/287 and distance
    codes 30/31 are drawn whenever the codings have them.
    """
    lit_syms = [s for s, code in enumerate(lit.codes) if code]
    dist_syms = [s for s, code in enumerate(dist.codes) if code]
    for _ in range(rng.randrange(41)):
        if not lit_syms:
            return
        pick = rng.random()
        if pick < 0.6:
            sym = rng.randrange(256)
        elif pick < 0.85:
            sym = rng.randrange(257, 288)
        else:
            sym = rng.choice(lit_syms)
        if sym >= len(lit.codes):
            continue
        if not lit.codes[sym]:
            continue
        write_code_msb(sink, lit.codes[sym])
        if sym == 256:
            return
        if sym <= 256:
            continue
        if 257 <= sym <= 285:
            extra = rng.randrange(32) if rng.random() < 0.7 else 31
            width = length_extra_bits(sym)
            sink.write_bits_lsb(extra & ((1 << width) - 1), width)
        if not dist_syms:
            sink.write_bits_lsb(rng.randrange(8), 3)
            continue
        dsym = rng.choice(dist_syms) if rng.random() < 0.5 else dist_syms[0]
        write_code_msb(sink, dist.codes[dsym])
        width = distance_extra_bits(dsym) if dsym < 30 else 0
        sink.write_bits_lsb(rng.randrange(1 << width), width)
    if 256 < len(lit.codes) and lit.codes[256]:
        write_code_msb(sink, lit.codes[256])


def random_static_block(rng: random.Random) -> bytes:
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(1, 2)
    write_random_tokens(sink, rng, FIXED_LIT, FIXED_DIST)
    return sink.to_bytes()


def dynamic_block(lit_lengths: list, dist_lengths: list):
    """A sink holding a final dynamic block's header for these codings,
    and the two codings.

    The code lengths are sent as plain code-length symbols under sixteen
    4-bit codes, so the header parses whatever the lengths are.
    """
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(2, 2)
    sink.write_bits_lsb(len(lit_lengths) - 257, 5)
    sink.write_bits_lsb(len(dist_lengths) - 1, 5)
    sink.write_bits_lsb(19 - 4, 4)
    for sym in CL_CODE_ORDER:
        sink.write_bits_lsb(4 if sym < 16 else 0, 3)
    cl = build_coding([4] * 16 + [0] * 3, 7)
    for length in lit_lengths + dist_lengths:
        write_code_msb(sink, cl[length])
    return sink, build_coding(lit_lengths), build_coding(dist_lengths)


def random_dynamic_block(rng: random.Random) -> bytes:
    """A final dynamic block over random (often incomplete) codings, with
    codes up to 15 bits."""
    lit_lengths = list(random_code_lengths(rng, max_alphabet=286))
    lit_lengths += [0] * (257 - len(lit_lengths))
    dist_lengths = list(random_code_lengths(rng, max_alphabet=32))
    sink, lit, dist = dynamic_block(lit_lengths, dist_lengths)
    write_random_tokens(sink, rng, lit, dist)
    return sink.to_bytes()


def test_long_codes_decode_between_short_ones():
    # 15-bit literal, end and distance codes go past the 9-bit primary
    # tables to the walk; the tokens after them must still line up.
    lit_lengths = [0] * 259
    lit_lengths[97], lit_lengths[257], lit_lengths[98], lit_lengths[256] = 1, 2, 15, 15
    sink, lit, dist = dynamic_block(lit_lengths, [15, 1])  # distance 1: 15 bits, 2: 1 bit
    tokens = [Literal(97), Literal(98), BackRef(3, 1), BackRef(3, 2)] * 40 + [END_OF_BLOCK]
    for t in tokens:
        if type(t) is Literal:
            write_code_msb(sink, lit[t.value])
        elif type(t) is BackRef:
            write_code_msb(sink, lit[257])
            write_code_msb(sink, dist[t.distance - 1])
        else:
            write_code_msb(sink, lit[256])
    stream = sink.to_bytes()
    assert [t for _, item, _ in iter_blocks(stream) for t in item] == tokens
    expected, _ = resolve_tokens(tokens, QueueOfDoom())
    assert parse_deflate(BitCursor(stream)) == Parsed(
        expected, sink.bit_length, BitCursor(stream, sink.bit_length)
    )


def pinned_corpus():
    """Streams built without zlib, each plain, bit-flipped, truncated and
    junk-suffixed."""
    rng = random.Random(36)
    streams = [rng.randbytes(rng.randrange(0, 120)) for _ in range(200)]
    for _ in range(24):
        data = mixed_corpus_item(rng, rng.randrange(0, 3000))
        params = CompressParams(max_chain=8, block_payload_limit=rng.randrange(200, 2000))
        streams.append(reference_deflate(data, params))
    streams += [random_static_block(rng) for _ in range(150)]
    streams += [random_dynamic_block(rng) for _ in range(150)]
    for stream in streams:
        yield stream
        if stream:
            flipped = bytearray(stream)
            flipped[rng.randrange(len(stream))] ^= 1 << rng.randrange(8)
            yield bytes(flipped)
            yield stream[: rng.randrange(len(stream))]
        yield stream + rng.randbytes(rng.randrange(1, 9))


# sha256 over the parse_deflate outcomes of pinned_corpus(), recorded
# before inflate decoded prefix codes through a lookup table.
PINNED_OUTCOMES_SHA256 = "fd7467cd187be2e58dc0a38a5458a3824c27dabe1c255b4d418cad9c24b5895c"


def test_parse_outcomes_match_the_pinned_digest():
    digest = hashlib.sha256()
    reasons = set()
    for stream in pinned_corpus():
        outcome = parse_deflate(BitCursor(stream))
        if isinstance(outcome, Parsed):
            line = (
                f"ok {hashlib.sha256(outcome.value).hexdigest()}"
                f" {outcome.consumed_bits} {outcome.rest.bit_pos}"
            )
        else:
            reasons.add(outcome.reason)
            line = f"no {outcome.reason.name} {outcome.bit_pos} {outcome.detail}"
        digest.update(line.encode() + b"\n")
    assert reasons == set(FailReason)
    assert digest.hexdigest() == PINNED_OUTCOMES_SHA256
