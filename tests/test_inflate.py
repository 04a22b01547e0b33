"""Stream parsing: golden listings, crafted failures, and zlib differentials.

The golden byte strings in conftest are validated against zlib before
anything else leans on them, so every later equality is anchored to an
independent decoder.
"""

import random
import zlib

import pytest

from deflatekit.bitio import BitCursor, BitSink
from deflatekit.errors import InflateError, ValueOutOfRange
from deflatekit.history_window import BackRef, END_OF_BLOCK, Literal
from deflatekit.inflate import (
    BlockHeader,
    BlockType,
    FailReason,
    NoParse,
    Parsed,
    inflate,
    iter_blocks,
    parse_block_header,
    parse_cl_lengths,
    parse_deflate,
    parse_dynamic_header,
    parse_stored_block,
)
from deflatekit.prefix_coding import build_coding, fixed_dist_coding, fixed_lit_coding
from deflatekit.symbol_tables import CL_CODE_ORDER

from conftest import (
    GOLDEN_DYNAMIC_BYTES,
    GOLDEN_DYNAMIC_CONSUMED,
    GOLDEN_PLAINTEXT,
    GOLDEN_STATIC_BYTES,
    GOLDEN_STATIC_CONSUMED,
    mixed_corpus_item,
    parse_deflate_queue,
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
    sink.write_code_msb(fixed_lit_coding()[256])
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
        sink.write_code_msb(coding[sym])
        if sym in RLE_EXTRA_BITS:
            sink.write_bits_lsb(extra, RLE_EXTRA_BITS[sym])


def literal_only_stream(count: int) -> bytes:
    """count times 'a' under lit coding {97: 0, 256: 1}, one dist code."""
    sink, cl = start_dynamic({0: 2, 1: 2, 18: 1}, 0, 0)
    write_rle(
        sink, cl, [(18, 86), (1, None), (18, 127), (18, 9), (1, None), (1, None)]
    )
    for _ in range(count):
        sink.write_code_msb((0,))
    sink.write_code_msb((1,))
    return sink.to_bytes()


def backref_stream() -> bytes:
    """'a' then <3,1> then end: lit {97, 256, 257}, dist {codepoint 0}."""
    sink, cl = start_dynamic({1: 2, 2: 2, 18: 1}, 1, 0)
    write_rle(
        sink,
        cl,
        [(18, 86), (1, None), (18, 127), (18, 9), (2, None), (2, None), (1, None)],
    )
    sink.write_code_msb((0,))  # 'a'
    sink.write_code_msb((1, 1))  # codepoint 257, length 3
    sink.write_code_msb((0,))  # distance codepoint 0, distance 1
    sink.write_code_msb((1, 0))  # end of block
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

    sink.write_code_msb((0,))  # 'a'
    sink.write_code_msb((1, 1))  # codepoint 257: now a distance must follow
    fail_at = sink.bit_length
    sink.write_bits_lsb(0b101, 3)  # whatever bits: nothing can match
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome == NoParse(FailReason.BAD_CODE, fail_at)


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
    sink = BitSink()
    values = [3, 0, 5, 2]
    for v in values:
        sink.write_bits_lsb(v, 3)
    outcome = parse_cl_lengths(BitCursor(sink.to_bytes()), 4)
    lengths = list(outcome.value)
    assert lengths[16] == 3 and lengths[17] == 0 and lengths[18] == 5 and lengths[0] == 2
    assert sum(1 for l in lengths if l) == 3
    with pytest.raises(ValueOutOfRange):
        parse_cl_lengths(BitCursor(b"\x00" * 8), 3)
    with pytest.raises(ValueOutOfRange):
        parse_cl_lengths(BitCursor(b"\x00" * 8), 20)


# -- token-level failures in static blocks --------------------------------


def static_sink(*codepoints: int) -> BitSink:
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(1, 2)
    lit = fixed_lit_coding()
    for cp in codepoints:
        sink.write_code_msb(lit[cp])
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


def test_length_codepoint_284_with_extra_30_is_length_257():
    # 'a', then 256 more copies via <257, 1>, then end of block.
    sink = static_sink(97, 284)
    sink.write_bits_lsb(30, 5)
    sink.write_code_msb(fixed_dist_coding()[0])
    sink.write_code_msb(fixed_lit_coding()[256])
    outcome = parse_deflate(BitCursor(sink.to_bytes()))
    assert outcome.value == b"a" * 258
    assert zlib.decompress(sink.to_bytes(), -15) == b"a" * 258


def test_distance_codepoints_30_and_31_are_invalid_in_data():
    for dcp in (30, 31):
        sink = static_sink(97, 257)
        fail_at = sink.bit_length
        sink.write_code_msb(fixed_dist_coding()[dcp])
        outcome = parse_deflate(BitCursor(sink.to_bytes()))
        assert outcome == NoParse(
            FailReason.INVALID_DISTANCE_CODEPOINT, fail_at, f"codepoint {dcp}"
        )


def test_distance_reaching_past_produced_output():
    sink = static_sink(97, 257)  # one byte produced, then length 3
    sink.write_code_msb(fixed_dist_coding()[1])  # distance 2
    fail_at = sink.bit_length
    sink.write_code_msb(fixed_lit_coding()[256])
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


def test_ring_and_queue_windows_agree_on_valid_and_invalid_input():
    # The ring (production) and the QueueOfDoom (reference) see the same
    # walk, so they agree on value, consumption and failure alike.
    rng = random.Random(35)
    streams = [GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES, literal_only_stream(7)]
    streams += [backref_stream(), stored_stream(b"stored", final=False) + backref_stream()]
    streams += [rng.randbytes(rng.randrange(0, 60)) for _ in range(60)]
    for stream in streams:
        assert parse_deflate(BitCursor(stream)) == parse_deflate_queue(BitCursor(stream))
