"""Stream parsing: golden listings, crafted failures, and zlib differentials.

The golden byte strings in conftest are validated against zlib before
anything else leans on them, so every later equality is anchored to an
independent decoder.
"""

import hashlib
import importlib
import pickle
import random
import tracemalloc
import weakref
import zlib
from array import array

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from deflatekit.bitio import BitSink
from deflatekit.compress import (
    CompressParams,
    _dynamic_plan,
    deflate,
    write_dynamic_block,
    write_static_block,
    write_stored_block,
)
from deflatekit.errors import InflateError, ValueOutOfRange
from deflatekit.gzip_container import gzip_decompress, gzip_wrap
from deflatekit.history_window import QueueOfDoom, resolve_tokens
from deflatekit.inflate import (
    BlockHeader,
    BlockType,
    DynamicHeader,
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
from deflatekit.prefix_coding import _TABLE_BITS, FIXED_DIST, FIXED_LIT, build_coding
from deflatekit.reference import (
    InvalidLengthExtra,
    bit_codes,
    distance_decode,
    length_decode,
)
from deflatekit.symbol_tables import (
    CL_CODE_ORDER,
    DISTANCE_CODEPOINT,
    DISTANCE_CODES,
    END_OF_BLOCK,
    LENGTH_CODES,
    LENGTH_ENCODING,
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
    english_text,
    log_text,
    mixed_corpus_item,
    parse_deflate_queue,
    random_code_lengths,
    reference_deflate,
    write_code_msb,
)
from test_compress import symbol_counts

# The package re-exports the function inflate under the module's name.
inflate_module = importlib.import_module("deflatekit.inflate")

FIXED_LIT_CODES = bit_codes(FIXED_LIT)
FIXED_DIST_CODES = bit_codes(FIXED_DIST)

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
    outcome = DECODERS[impl](GOLDEN_STATIC_BYTES)
    assert isinstance(outcome, Parsed)
    assert outcome.value == GOLDEN_PLAINTEXT
    assert outcome.consumed_bits == GOLDEN_STATIC_CONSUMED
    assert outcome == Parsed(GOLDEN_PLAINTEXT, GOLDEN_STATIC_CONSUMED)


@pytest.mark.parametrize("impl", ["ring", "queue"])
def test_golden_dynamic_stream(impl):
    outcome = DECODERS[impl](GOLDEN_DYNAMIC_BYTES)
    assert isinstance(outcome, Parsed)
    assert outcome.value == GOLDEN_PLAINTEXT
    assert outcome.consumed_bits == GOLDEN_DYNAMIC_CONSUMED


def test_golden_static_token_stream():
    assert list(iter_blocks(GOLDEN_STATIC_BYTES)) == [
        (BlockHeader(True, BlockType.STATIC), GOLDEN_TOKENS, GOLDEN_STATIC_CONSUMED)
    ]


def test_golden_dynamic_header_contents():
    outcome = parse_dynamic_header(GOLDEN_DYNAMIC_BYTES, 3)
    assert isinstance(outcome, Parsed)
    header = outcome.value
    assert (header.hlit, header.hdist, header.hclen) == (260, 6, 18)
    cl_codes = {ch: code for ch, code in enumerate(bit_codes(header.cl_coding)) if code}
    assert cl_codes == {
        0: (1, 0, 0),
        1: (1, 1, 1, 0),
        2: (1, 1, 1, 1),
        3: (0, 0),
        4: (0, 1),
        17: (1, 0, 1),
        18: (1, 1, 0),
    }
    lit_codes = {ch: code for ch, code in enumerate(bit_codes(header.lit_coding)) if code}
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
    dist_codes = {ch: code for ch, code in enumerate(bit_codes(header.dist_coding)) if code}
    assert dist_codes == {1: (0,), 5: (1,)}
    # 14 bits of counts, 18 three-bit code-length lengths, 82 bits of lengths;
    # the tokens start at bit 3 + 150.
    assert outcome.consumed_bits == 150


def test_inflate_convenience_and_errors():
    assert inflate(GOLDEN_STATIC_BYTES) == GOLDEN_PLAINTEXT
    with pytest.raises(InflateError) as err:
        inflate(b"")
    assert err.value.bit_pos == 0


def assert_raises_what_it_returns(stream: bytes, outcome: NoParse) -> None:
    """inflate(stream) raises the error of the NoParse parse_deflate returned."""
    with pytest.raises(InflateError) as err:
        inflate(stream)
    assert (err.value.reason, err.value.bit_pos, err.value.detail) == tuple(outcome)
    assert str(err.value) == str(outcome.error())


def test_gzip_decompress_raises_the_failure_past_the_header():
    # A stored block whose NLEN is not LEN's complement fails at bit 24 of
    # the stream, which is bit 24 + 80 of the member.
    stream = bytes([0x01, 0x05, 0x00, 0x00, 0x00])
    outcome = parse_deflate(stream)
    assert outcome == NoParse(FailReason.LEN_NLEN_MISMATCH, 24, "LEN 0x0005 vs NLEN 0x0000")
    assert_raises_what_it_returns(stream, outcome)
    with pytest.raises(InflateError) as err:
        gzip_decompress(gzip_wrap(stream, 0, 0))
    shifted = NoParse(outcome.reason, outcome.bit_pos + 80, outcome.detail)
    assert (err.value.reason, err.value.bit_pos, err.value.detail) == tuple(shifted)
    assert str(err.value) == str(shifted.error())


# -- block headers ------------------------------------------------------


def test_block_header_fields():
    outcome = parse_block_header(GOLDEN_STATIC_BYTES)
    assert outcome.value.is_final and outcome.value.block_type is BlockType.STATIC
    assert outcome.consumed_bits == 3
    outcome = parse_block_header(GOLDEN_DYNAMIC_BYTES)
    assert outcome.value.is_final and outcome.value.block_type is BlockType.DYNAMIC
    # A non-final stored header: bits 0, 0, 0.
    outcome = parse_block_header(b"\x00")
    assert not outcome.value.is_final
    assert outcome.value.block_type is BlockType.STORED
    # Headers and outcomes are frozen values: equal by class and fields,
    # hashed on the fields, shown field by field, never reassigned.
    header = outcome.value
    assert header == BlockHeader(False, BlockType.STORED) != BlockHeader(True, BlockType.STORED)
    assert hash(header) == hash((False, BlockType.STORED))
    assert repr(header) == "BlockHeader(is_final=False, block_type=<BlockType.STORED: 0>)"
    assert outcome == Parsed(header, 3)
    assert hash(outcome) == hash((header, 3))
    assert Parsed(1, 2) != NoParse(1, 2)
    assert NoParse(1, 2) != Parsed(1, 2)
    assert Parsed(1, 2) != (1, 2)
    # Reflected too: a plain tuple on the left does not compare the fields.
    assert not (1, 2) == Parsed(1, 2)
    assert (1, 2) != Parsed(1, 2)
    assert BlockHeader(True, BlockType.STATIC) != Parsed(True, BlockType.STATIC)
    assert not BlockHeader(True, BlockType.STATIC) == Parsed(True, BlockType.STATIC)
    # An outcome is what the parse did, whatever buffer it read: equal and
    # hashable over any buffer type, and as short to show over 4 KB as over 1 byte.
    for parse, data in ((parse_block_header, b"\x00"), (parse_deflate, GOLDEN_STATIC_BYTES)):
        base = parse(data)
        for buffer in (bytearray(data), memoryview(bytearray(data))):
            assert parse(buffer) == base
            assert hash(parse(buffer)) == hash(base)
    assert len(repr(parse_block_header(bytes(4096)))) < 200
    failure = NoParse(FailReason.BAD_CODE, 5)
    assert failure == NoParse(FailReason.BAD_CODE, 5, "") != NoParse(FailReason.BAD_CODE, 5, "x")
    assert repr(failure) == (
        "NoParse(reason=<FailReason.BAD_CODE: 'bits match no code of the coding'>,"
        " bit_pos=5, detail='')"
    )
    assert str(NoParse(FailReason.BAD_CODE, 5, "x").error()) == (
        "cannot parse deflate stream at bit 5: bits match no code of the coding (x)"
    )
    dynamic = parse_dynamic_header(GOLDEN_DYNAMIC_BYTES, 3).value
    fields = (dynamic.hlit, dynamic.hdist, dynamic.hclen,
              dynamic.cl_coding, dynamic.lit_coding, dynamic.dist_coding)
    assert dynamic == DynamicHeader(*fields)
    assert hash(dynamic) == hash(fields)
    assert repr(dynamic).startswith(f"DynamicHeader(hlit={dynamic.hlit}, hdist={dynamic.hdist},")
    for record, name in ((header, "is_final"), (outcome, "consumed_bits"), (failure, "detail"),
                         (dynamic, "hlit"), (header, "other")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert pickle.loads(pickle.dumps(record)) == record


def test_reserved_block_type():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(3, 2)
    outcome = parse_block_header(sink.to_bytes())
    assert outcome == NoParse(FailReason.RESERVED_BLOCK_TYPE, 1)


def test_block_header_end_of_input():
    assert parse_block_header(b"") == NoParse(FailReason.END_OF_INPUT, 0)


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
    outcome = parse_stored_block(data, 3)
    assert outcome.value == b"hello stored world"
    assert outcome.consumed_bits == 8 * len(data) - 3
    assert parse_deflate(data).value == b"hello stored world"
    # Over any buffer type the payload is bytes of its own, not a view
    # into the caller's buffer: overwriting that buffer leaves it as it was.
    backing = bytearray(data)
    for buffer in (data, bytearray(data), memoryview(backing)):
        parsed = parse_stored_block(buffer, 3).value
        ((_, walked, _),) = iter_blocks(buffer)
        backing[:] = bytes(len(backing))
        for payload in (parsed, walked):
            assert type(payload) is bytes
            assert payload == b"hello stored world"
        backing[:] = data


def test_stored_block_empty_payload():
    assert parse_deflate(stored_stream(b"")).value == b""


def test_len_nlen_mismatch():
    data = bytearray(stored_stream(b"abc"))
    data[3] ^= 0x01  # corrupt NLEN's low byte
    outcome = parse_stored_block(bytes(data), 3)
    assert outcome.reason is FailReason.LEN_NLEN_MISMATCH
    assert outcome.bit_pos == 24  # NLEN starts after alignment and LEN


def test_stored_block_truncations():
    data = stored_stream(b"abcdefgh")
    for cut in range(len(data) - 1):
        outcome = parse_deflate(data[:cut])
        assert outcome.reason is FailReason.END_OF_INPUT


def test_non_final_stored_block_needs_a_successor():
    # A valid non-final block parses, then the next header hits the end.
    data = stored_stream(b"abc", final=False)
    outcome = parse_deflate(data)
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
    write_code_msb(sink, FIXED_LIT_CODES[256])
    outcome = parse_deflate(sink.to_bytes())
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
    codes = bit_codes(coding)
    for sym, extra in ops:
        write_code_msb(sink, codes[sym])
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
    header = parse_dynamic_header(sink.to_bytes(), 3)
    assert isinstance(header, Parsed)
    assert all(code == () for code in bit_codes(header.value.dist_coding))

    write_code_msb(sink, (0,))  # 'a'
    write_code_msb(sink, (1, 1))  # codepoint 257: now a distance must follow
    fail_at = sink.bit_length
    sink.write_bits_lsb(0b101, 3)  # whatever bits: nothing can match
    outcome = parse_deflate(sink.to_bytes())
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
    assert parse_deflate(stream) == NoParse(
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
    assert parse_deflate(stream) == NoParse(FailReason.BAD_CODE, after_a)
    with pytest.raises(zlib.error, match="invalid literal/lengths set"):
        zlib.decompressobj(-15).decompress(stream)

    stream, _ = incomplete_codings_stream(1, (1, 1), (0, 0), (1, 0))  # <3, 1>, end
    assert inflate(stream) == b"aaaa"
    with pytest.raises(zlib.error, match="invalid distances set"):
        zlib.decompressobj(-15).decompress(stream)
    stream, after_a = incomplete_codings_stream(1, (1, 1), (1, 1), (1, 0))
    assert parse_deflate(stream) == NoParse(FailReason.BAD_CODE, after_a + 2)
    with pytest.raises(zlib.error, match="invalid distances set"):
        zlib.decompressobj(-15).decompress(stream)


def test_repeat_without_previous_length():
    sink, cl = start_dynamic({16: 1, 0: 2, 1: 2}, 0, 0)
    fail_after = sink.bit_length + cl.lengths[16]
    write_rle(sink, cl, [(16, 0)])
    outcome = parse_deflate(sink.to_bytes())
    assert outcome == NoParse(FailReason.REPEAT_WITHOUT_PREVIOUS, fail_after)


def test_repeat_overrun():
    sink, cl = start_dynamic({18: 1, 0: 2, 1: 2}, 0, 0)
    write_rle(sink, cl, [(18, 127), (18, 127)])  # 138 + 138 > 258
    outcome = parse_deflate(sink.to_bytes())
    assert outcome.reason is FailReason.REPEAT_OVERRUN
    assert outcome.bit_pos == sink.bit_length


def test_oversubscribed_literal_lengths_are_a_bad_coding():
    sink, cl = start_dynamic({1: 1, 0: 2, 18: 2}, 0, 0)
    write_rle(
        sink,
        cl,
        [(1, None), (1, None), (1, None), (18, 127), (18, 105), (0, None)],
    )
    outcome = parse_deflate(sink.to_bytes())
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
    outcome = parse_deflate(sink.to_bytes())
    assert outcome.reason is FailReason.BAD_CODING
    assert outcome.bit_pos == sink.bit_length


def test_forbidden_hlit():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(2, 2)
    sink.write_bits_lsb(30, 5)  # hlit 287
    sink.write_bits_lsb(0, 11)
    outcome = parse_deflate(sink.to_bytes())
    assert outcome == NoParse(FailReason.FORBIDDEN_HLIT, 3, "hlit 287")


def test_dynamic_header_truncated_at_a_byte_boundary():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(2, 2)
    sink.write_bits_lsb(0, 5)  # exactly one byte: hdist is missing
    outcome = parse_deflate(sink.to_bytes())
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
    outcome = parse_dynamic_header(sink.to_bytes())
    assert isinstance(outcome, Parsed)
    assert outcome.consumed_bits == sink.bit_length
    header = outcome.value
    assert header.hclen == 4
    expected = [0] * 19
    expected[16], expected[18], expected[0] = 3, 5, 2
    assert [len(code) for code in bit_codes(header.cl_coding)] == expected
    assert len(header.lit_coding.lengths) == 257 and not any(bit_codes(header.lit_coding))
    assert len(header.dist_coding.lengths) == 1 and not any(bit_codes(header.dist_coding))


# -- token-level failures in static blocks --------------------------------


def static_sink(*codepoints: int) -> BitSink:
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(1, 2)
    for cp in codepoints:
        write_code_msb(sink, FIXED_LIT_CODES[cp])
    return sink


def test_length_codepoint_286_and_287_are_invalid_in_data():
    for cp in (286, 287):
        sink = static_sink(cp)
        outcome = parse_deflate(sink.to_bytes())
        assert outcome == NoParse(
            FailReason.INVALID_LENGTH_CODEPOINT, 3, f"codepoint {cp}"
        )


def test_length_codepoint_284_with_extra_31_is_invalid():
    sink = static_sink(284)
    sink.write_bits_lsb(31, 5)
    fail_at = sink.bit_length
    outcome = parse_deflate(sink.to_bytes())
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
    write_code_msb(sink, FIXED_DIST_CODES[0])
    write_code_msb(sink, FIXED_LIT_CODES[256])
    outcome = parse_deflate(sink.to_bytes())
    assert outcome.value == b"a" * 258
    assert zlib.decompress(sink.to_bytes(), -15) == b"a" * 258


def test_distance_codepoints_30_and_31_are_invalid_in_data():
    for dcp in (30, 31):
        sink = static_sink(97, 257)
        fail_at = sink.bit_length
        write_code_msb(sink, FIXED_DIST_CODES[dcp])
        outcome = parse_deflate(sink.to_bytes())
        assert outcome == NoParse(
            FailReason.INVALID_DISTANCE_CODEPOINT, fail_at, f"codepoint {dcp}"
        )


def test_distance_reaching_past_produced_output():
    sink = static_sink(97, 257)  # one byte produced, then length 3
    write_code_msb(sink, FIXED_DIST_CODES[1])  # distance 2
    fail_at = sink.bit_length
    write_code_msb(sink, FIXED_LIT_CODES[256])
    outcome = parse_deflate(sink.to_bytes())
    assert outcome == NoParse(
        FailReason.DISTANCE_TOO_FAR, fail_at, "distance 2 with only 1 bytes produced"
    )
    # The walker itself rejects the stream: there is one grammar.
    assert list(iter_blocks(sink.to_bytes())) == [
        (BlockHeader(True, BlockType.STATIC), outcome, fail_at)
    ]


def reserved_first_header():
    return bytes([0x07]), None, FailReason.RESERVED_BLOCK_TYPE, 1


def stored_len_nlen_mismatch():
    data = bytearray(stored_stream(b"abc"))
    data[3] ^= 0x01  # corrupt NLEN's low byte
    return bytes(data), BlockHeader(True, BlockType.STORED), FailReason.LEN_NLEN_MISMATCH, 24


def oversubscribed_dynamic_header():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(2, 2)
    sink.write_bits_lsb(0, 10)
    sink.write_bits_lsb(1, 4)  # hclen 5
    for _ in range(5):
        sink.write_bits_lsb(1, 3)  # five length-1 codes
    header = BlockHeader(True, BlockType.DYNAMIC)
    return sink.to_bytes(), header, FailReason.BAD_CODING, sink.bit_length


def reserved_second_header():
    first = stored_stream(b"ab", final=False)
    return first + bytes([0x07]), None, FailReason.RESERVED_BLOCK_TYPE, 8 * len(first) + 1


@pytest.mark.parametrize(
    "build",
    [reserved_first_header, stored_len_nlen_mismatch, oversubscribed_dynamic_header,
     reserved_second_header],
)
def test_a_walk_failure_is_the_last_item_with_its_blocks_header(build):
    data, header, reason, bit = build()
    outcome = parse_deflate(data)
    assert isinstance(outcome, NoParse)
    assert (outcome.reason, outcome.bit_pos) == (reason, bit)
    items = list(iter_blocks(data))
    assert items[-1] == (header, outcome, bit)
    assert not any(isinstance(item, NoParse) for _, item, _ in items[:-1])


def test_every_byte_truncation_of_the_goldens_runs_out_of_input():
    for stream in (GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES):
        for cut in range(len(stream) - 1):
            outcome = parse_deflate(stream[:cut])
            assert isinstance(outcome, NoParse)
            assert outcome.reason is FailReason.END_OF_INPUT
            assert outcome.bit_pos <= 8 * cut


# -- batches, flushes and memory -------------------------------------------


def boundary_tokens(n: int) -> list:
    """n tokens before an end of block: seeded literals and backrefs, the
    last an overlapping BackRef(12, 5), which is the first token of the
    second batch, reaching into the first, when n is _TOKEN_CHUNK + 1."""
    rng = random.Random(n)
    tokens, produced = [], 0
    while len(tokens) < n - 1:
        if produced >= 8 and rng.random() < 0.3:
            ref = BackRef(rng.randint(3, 40), rng.randint(1, min(produced, 300)))
            tokens.append(ref)
            produced += ref.length
        else:
            tokens.append(Literal(rng.randrange(256)))
            produced += 1
    return tokens + [BackRef(12, 5)]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blocks_at_a_batch_boundary_split_into_whole_batches(offset):
    # A static and then a dynamic block, each of _TOKEN_CHUNK + offset
    # tokens before its end of block: every batch is full but the block's
    # last, which ends with END_OF_BLOCK, alone when the tokens fill
    # whole batches.
    chunk = inflate_module._TOKEN_CHUNK
    n = chunk + offset
    block = boundary_tokens(n) + [END_OF_BLOCK]
    sink = write_static_block(block, False, BitSink())
    write_dynamic_block(block, True, sink, _dynamic_plan(*symbol_counts(block)))
    stream = sink.to_bytes()
    batches = {BlockType.STATIC: [], BlockType.DYNAMIC: []}
    for header, item, _ in iter_blocks(stream):
        assert not isinstance(item, NoParse), item
        batches[header.block_type].append(item)
    for kind, items in batches.items():
        assert [len(b) for b in items] == [chunk] * (n // chunk) + [n % chunk + 1], kind
        assert [t for b in items for t in b] == block, kind
        assert items[-1][-1] is END_OF_BLOCK, kind
    plain = resolve_tokens(block, QueueOfDoom())[0] * 2
    assert inflate(stream) == plain
    assert inflate(stream + b"\xff junk") == plain
    outcome = parse_deflate(stream + b"\xff junk")
    assert outcome == parse_deflate(stream) == Parsed(plain, sink.bit_length)


def static_token_stream(tokens: list, history: bytes) -> tuple[bytes, list]:
    """A stored block of ``history``, then static blocks of ``tokens``, a
    new one after each END_OF_BLOCK but the last; returns the stream and
    the bit count written after each token."""
    sink = write_stored_block(history, False, BitSink())
    blocks = tokens.count(END_OF_BLOCK)
    ends = []
    for i, t in enumerate(tokens):
        if i == 0 or tokens[i - 1] is END_OF_BLOCK:
            blocks -= 1
            sink.write_bits_lsb(blocks == 0, 1)
            sink.write_bits_lsb(1, 2)
        if type(t) is BackRef:
            cp, extra, width = LENGTH_ENCODING[t.length]
            write_code_msb(sink, FIXED_LIT_CODES[cp])
            sink.write_bits_lsb(extra, width)
            dcp = DISTANCE_CODEPOINT[t.distance]
            width, base = DISTANCE_CODES[dcp]
            write_code_msb(sink, FIXED_DIST_CODES[dcp])
            sink.write_bits_lsb(t.distance - base, width)
        else:
            write_code_msb(sink, FIXED_LIT_CODES[256 if t is END_OF_BLOCK else t.value])
        ends.append(sink.bit_length)
    return sink.to_bytes(), ends


@pytest.mark.parametrize("kind", ["literals", "backrefs"])
def test_every_batch_ends_at_the_bit_its_last_token_ends(kind):
    # Two full batches and k more tokens: the last batch starts inside
    # the stream's final 32 bytes, where the decoder's refill stops at
    # the end of the stream.  The walk reports each batch's end, and the
    # output count it carries on, from its own bookkeeping.
    chunk = inflate_module._TOKEN_CHUNK
    history = b"0123"
    for k in range(20):
        rng = random.Random(k)
        if kind == "literals":
            tokens = [Literal(rng.randrange(256)) for _ in range(2 * chunk + k)]
        else:
            tokens = [BackRef(rng.randint(3, 10), rng.randint(1, 4)) for _ in range(2 * chunk + k)]
        tokens.append(END_OF_BLOCK)
        stream, ends = static_token_stream(tokens, history)
        assert 8 * len(stream) - ends[2 * chunk - 1] < 256
        items = list(iter_blocks(stream))[1:]
        assert [end for _, _, end in items] == [ends[chunk - 1], ends[2 * chunk - 1], ends[-1]]
        assert [t for _, item, _ in items for t in item] == tokens
        expected = resolve_tokens([Literal(b) for b in history] + tokens, QueueOfDoom())[0]
        assert parse_deflate(stream) == Parsed(expected, ends[-1])


@pytest.mark.parametrize("kind", ["literals", "backrefs", "block"])
def test_a_backref_opening_a_batch_reaches_exactly_the_output_so_far(kind):
    # The output count a batch hands on, a full one or a block's last, is
    # all the output: a backref opening the next batch may reach all of
    # it, and not one byte more.
    chunk = inflate_module._TOKEN_CHUNK
    history = b"history"
    if kind == "literals":
        first = [Literal(97 + i % 26) for i in range(chunk)]
    else:
        first = [BackRef(100, 1 + i % 7) for i in range(chunk)]
    if kind == "block":
        first[-1] = END_OF_BLOCK
    produced = len(history) + sum(
        1 if type(t) is Literal else t.length for t in first if t is not END_OF_BLOCK
    )
    tokens = first + [BackRef(3, produced), END_OF_BLOCK]
    stream, ends = static_token_stream(tokens, history)
    expected = resolve_tokens([Literal(b) for b in history] + tokens, QueueOfDoom())[0]
    assert parse_deflate(stream) == Parsed(expected, ends[-1])
    tokens[chunk] = BackRef(3, produced + 1)
    stream, ends = static_token_stream(tokens, history)
    detail = f"distance {produced + 1} with only {produced} bytes produced"
    assert parse_deflate(stream) == NoParse(FailReason.DISTANCE_TOO_FAR, ends[chunk], detail)


def flushed_zlib_stream(data: bytes, every: int, mode: int) -> tuple[bytes, int]:
    """A raw zlib -6 stream of data flushed with ``mode`` after every
    ``every`` bytes but the last, and how many flushes it took."""
    c = zlib.compressobj(6, zlib.DEFLATED, -15)
    parts, flushes = [], 0
    for i in range(0, len(data), every):
        parts.append(c.compress(data[i : i + every]))
        if i + every < len(data):
            parts.append(c.flush(mode))
            flushes += 1
    return b"".join(parts) + c.flush(), flushes


FLUSH_TEXT = english_text(24000, seed=58) + log_text(24000, seed=59)


@pytest.mark.parametrize(
    "every, mode",
    [(256, zlib.Z_SYNC_FLUSH), (1024, zlib.Z_SYNC_FLUSH), (4096, zlib.Z_SYNC_FLUSH),
     (len(FLUSH_TEXT) // 2, zlib.Z_FULL_FLUSH)],
    ids=["sync-256", "sync-1024", "sync-4096", "full-once"],
)
def test_flushed_zlib_streams_decode_through_their_empty_stored_blocks(every, mode):
    # zlib marks each sync or full flush with an empty stored block, which
    # byte-aligns the stream; the walk sees each one and decodes on.
    stream, flushes = flushed_zlib_stream(FLUSH_TEXT, every, mode)
    kinds = [(header.block_type, item) for header, item, _ in iter_blocks(stream)]
    assert kinds.count((BlockType.STORED, b"")) == flushes
    assert inflate(stream) == FLUSH_TEXT
    junk = b"\x00\xff trailing junk"
    d = zlib.decompressobj(-15)
    assert d.decompress(stream + junk) == FLUSH_TEXT
    outcome = parse_deflate(stream + junk)
    assert outcome == parse_deflate(stream)
    assert outcome.value == FLUSH_TEXT
    assert d.unused_data == junk
    assert (outcome.consumed_bits + 7) // 8 == len(stream)


def raw_zlib(data: bytes, level: int, strategy: int = zlib.Z_DEFAULT_STRATEGY) -> bytes:
    """A raw Deflate stream of data made by stdlib zlib."""
    c = zlib.compressobj(level, zlib.DEFLATED, -15, 8, strategy)
    return c.compress(data) + c.flush()


def test_wide_item_buffers_decode_as_their_bytes_as_zlib_reads_them():
    # A buffer of items wider than a byte is the stream of its bytes; read
    # item by item it once ran out of input or misread every field.
    data = english_text(3000, seed=34)
    raw = raw_zlib(data, 9)
    raw += bytes(-len(raw) % 8)  # junk past the final block fills the last item
    walk = list(iter_blocks(raw))
    for wide in (array("I", raw), memoryview(array("Q", raw)), array("H", raw)):
        assert inflate(wide) == data == zlib.decompress(wide, -15)
        assert parse_deflate(wide) == parse_deflate(raw)
        assert parse_block_header(wide, 1) == parse_block_header(raw, 1)
        assert [(h, end) for h, _, end in iter_blocks(wide)] == [(h, end) for h, _, end in walk]


def lines_and_runs(size: int, line_share: float) -> bytes:
    """32-byte lines drawn from a pool of 200, else runs of 8-32 of one
    letter: few tokens per KiB, most of them backrefs, which a batch
    holds as objects of their own."""
    rng = random.Random(60)
    pool = [english_text(31, seed=s) + b"\n" for s in range(200)]
    out = bytearray()
    while len(out) < size:
        if rng.random() < line_share:
            out += rng.choice(pool)
        else:
            out += bytes([rng.randrange(97, 123)]) * rng.randint(8, 32)
    return bytes(out[:size])


class WatchedBatch(list):
    """A batch of tokens that a weak reference can watch."""


def test_no_batch_is_alive_while_the_next_is_decoded(monkeypatch):
    # The walk and parse_deflate each drop a batch once it is in the
    # output, so the next batch is decoded with the last one freed.
    decode = inflate_module._decode_some
    batches = []

    def watched(*args):
        assert [ref() for ref in batches if ref() is not None] == []
        tokens, *rest = decode(*args)
        batch = WatchedBatch(tokens)
        batches.append(weakref.ref(batch))
        return (batch, *rest)

    monkeypatch.setattr(inflate_module, "_decode_some", watched)
    data = lines_and_runs(16 * 1024, 0.7)
    assert inflate(deflate(data)) == data
    assert len(batches) > 2


@pytest.mark.parametrize("producer", ["deflate", "zlib -9", "zlib rle"])
def test_decoding_holds_its_output_and_one_batch(producer):
    # The decode's peak is the output buffer with up to an eighth over-
    # allocated, the bytes copy returned, and 32 KiB for one batch of
    # backrefs (up to about 90 bytes each) and the decoder's tables.  Two
    # batches of 4,096 tokens alive at once exceed it on each stream.
    # Z_RLE codes only distance-1 runs, so its input is all runs.
    data = lines_and_runs(128 * 1024, 0.0 if producer == "zlib rle" else 0.7)
    if producer == "deflate":
        stream = deflate(data)
    elif producer == "zlib -9":
        stream = raw_zlib(data, 9)
    else:
        stream = raw_zlib(data, 6, zlib.Z_RLE)
    tracemalloc.start()
    try:
        out = inflate(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == data
    assert peak <= 2.125 * len(data) + 32 * 1024, peak


def test_compressing_holds_its_token_list_and_chains():
    # Random bytes are nearly all skipped literals, one shared object per
    # byte in the token list.  The peak is that list's 8-byte slots, up
    # to a quarter over-allocated, the two 32,768-slot chain lists, and
    # 64 KiB for the stored output and the rest.  A list of all the
    # input's literals built beside it, or a new Literal per byte,
    # exceeds it.
    data = random.Random(61).randbytes(96 * 1024)
    tracemalloc.start()
    try:
        stream = deflate(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert zlib.decompress(stream, -15) == data
    assert peak <= 8 * 1.25 * (len(data) + 1) + 16 * 32768 + 64 * 1024, peak


# -- global properties ----------------------------------------------------


def test_parsing_is_total_on_garbage():
    rng = random.Random(31)
    for _ in range(400):
        data = rng.randbytes(rng.randrange(0, 120))
        outcome = parse_deflate(data)
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
            outcome = parse_deflate(bytes(data))
            assert isinstance(outcome, (Parsed, NoParse))


def test_appending_junk_changes_nothing():
    rng = random.Random(33)
    for stream in (GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES, backref_stream()):
        base = parse_deflate(stream)
        for junk_len in (1, 2, 7, 64):
            junk = rng.randbytes(junk_len)
            outcome = parse_deflate(stream + junk)
            assert outcome.value == base.value
            assert outcome.consumed_bits == base.consumed_bits


def shifted(stream: bytes, k: int, junk: int) -> bytes:
    """k junk bits, then the stream's bits, zero-padded to a whole byte."""
    return ((int.from_bytes(stream, "little") << k) | junk).to_bytes(
        (k + 8 * len(stream) + 7) // 8, "little"
    )


def moved(outcome, k: int):
    """The outcome of the same parse started k bits later."""
    if isinstance(outcome, NoParse):
        return NoParse(outcome.reason, outcome.bit_pos + k, outcome.detail)
    return outcome


def parse_starts(stream: bytes) -> list:
    """(parser, bit_pos) for the whole stream and each block's header and
    payload, as far as the walk gets."""
    starts, begin, last = [(parse_deflate, 0)], 0, False
    for header, _, end in iter_blocks(stream):
        if header is not last:  # a new block, or None for a failed header
            starts.append((parse_block_header, begin))
            if header is not None and header.block_type is BlockType.STORED:
                starts.append((parse_stored_block, begin + 3))
            elif header is not None and header.block_type is BlockType.DYNAMIC:
                starts.append((parse_dynamic_header, begin + 3))
            last = header
        begin = end
    return starts


def test_a_shifted_start_moves_every_outcome_by_the_shift():
    # Our streams, zlib's, truncations and one-bit corruptions, each after
    # k = 1..15 junk bits.  A stored block aligns to the buffer's bytes and
    # a buffer ends on a byte, so a start moved by whole bytes moves every
    # outcome by exactly that, and any other shift moves every outcome
    # that touches no stored block and does not run out of input.
    rng = random.Random(35)
    text = english_text(600, seed=35)
    streams = [
        deflate(text),
        deflate(log_text(500), CompressParams(block_payload_limit=150)),
        deflate(b"abc" * 30 + rng.randbytes(100), CompressParams(block_payload_limit=90)),
        raw_zlib(text, 1),
        raw_zlib(text, 9),
        raw_zlib(text, 6, zlib.Z_FIXED),
        raw_zlib(rng.randbytes(300), 0),
    ]
    for stream in streams[:]:
        streams += [stream[:cut] for cut in rng.sample(range(1, len(stream)), 4)]
        for _ in range(3):
            flipped = bytearray(stream)
            flipped[rng.randrange(len(stream))] ^= 1 << rng.randrange(8)
            streams.append(bytes(flipped))
    checked = set()
    for stream in streams:
        starts = parse_starts(stream)
        stored = any(parse is parse_stored_block for parse, _ in starts)
        for parse, start in starts:
            base = parse(stream, start)
            on_grid = (
                parse is parse_stored_block
                or (parse is parse_deflate and stored)
                or (isinstance(base, NoParse) and base.reason is FailReason.END_OF_INPUT)
            )
            outcomes = [base]
            for k in range(1, 16):
                outcomes.append(parse(shifted(stream, k, rng.getrandbits(k)), start + k))
                if k >= 8:
                    assert outcomes[k] == moved(outcomes[k - 8], 8), (parse.__name__, start, k)
                if not on_grid:
                    assert outcomes[k] == moved(base, k), (parse.__name__, start, k)
            reason = base.reason.name if isinstance(base, NoParse) else "parsed"
            checked.add((parse.__name__, reason, on_grid))
    # Every parser was shifted on a value, and on failures off the grid.
    names = {"parse_deflate", "parse_block_header", "parse_stored_block", "parse_dynamic_header"}
    assert {name for name, reason, _ in checked if reason == "parsed"} == names
    failures = {name for name, reason, on_grid in checked if reason != "parsed" and not on_grid}
    assert failures == {"parse_deflate", "parse_dynamic_header"}, checked


def test_zlib_streams_inflate_correctly():
    rng = random.Random(34)
    for level in (0, 1, 6, 9):
        for _ in range(6):
            data = mixed_corpus_item(rng, rng.randrange(0, 4000))
            co = zlib.compressobj(level, zlib.DEFLATED, -15)
            stream = co.compress(data) + co.flush()
            assert inflate(stream) == data
            assert parse_deflate_queue(stream).value == data
            # The decoder mints BackRefs past their constructor's checks.
            refs = [t for _, item, _ in iter_blocks(stream) if type(item) is list
                    for t in item if type(t) is BackRef]
            assert all(t == BackRef(t.length, t.distance) for t in refs)


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


# The one stream zlib accepts and we refuse, by design: zlib reads length
# codepoint 284 with extra value 31 as length 258 and reads on, where we
# fail at the extra bits' end (see the 284/31 tests above).
EARLY_284 = (FailReason.INVALID_LENGTH_EXTRA, "length codepoint 284 with extra value 31")


def assert_zlib_acceptance_agrees(stream: bytes) -> str:
    """Where zlib accepts, the same bytes and length, or exactly the 284/31
    failure; where it rejects, only totality.  Returns what happened."""
    d = zlib.decompressobj(-15)
    try:
        expected = d.decompress(stream)
    except zlib.error:
        expected = None
    outcome = parse_deflate(stream)
    if expected is None or not d.eof:
        assert isinstance(outcome, (Parsed, NoParse))
        return "zlib rejects"
    if isinstance(outcome, NoParse) and (outcome.reason, outcome.detail) == EARLY_284:
        return "zlib reads 284/31 as length 258"
    assert isinstance(outcome, Parsed)
    assert outcome.value == expected
    assert (outcome.consumed_bits + 7) // 8 == len(stream) - len(d.unused_data)
    return "zlib accepts"


@settings(max_examples=600, deadline=None)
@given(mutated_zlib_streams())
def test_what_zlib_accepts_decodes_to_the_same_bytes_and_length(stream):
    # Where zlib rejects, this test only asks us to be total; the next
    # one asks us to reject as well, outside the documented divergences.
    event(assert_zlib_acceptance_agrees(stream))


def test_zlib_takes_284_with_extra_31_as_258_where_we_fail_at_bit_24():
    # 'a', then 284 + extra 31 at distance 1, then end of block.
    sink = static_sink(97, 284)
    sink.write_bits_lsb(31, 5)
    write_code_msb(sink, FIXED_DIST_CODES[0])
    write_code_msb(sink, FIXED_LIT_CODES[256])
    stream = sink.to_bytes()
    assert zlib.decompress(stream, -15) == b"a" * 259
    reason, detail = EARLY_284
    assert parse_deflate(stream) == NoParse(reason, 24, detail)
    assert assert_zlib_acceptance_agrees(stream) == "zlib reads 284/31 as length 258"


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
        assert isinstance(parse_deflate(stream), NoParse)


def test_ring_and_queue_windows_agree_on_valid_and_invalid_input():
    # The ring (production) and the QueueOfDoom (reference) see the same
    # walk, so they agree on value, consumption and failure alike.
    rng = random.Random(35)
    streams = [GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES, literal_only_stream(7)]
    streams += [backref_stream(), stored_stream(b"stored", final=False) + backref_stream()]
    streams += [rng.randbytes(rng.randrange(0, 60)) for _ in range(60)]
    for stream in streams:
        assert parse_deflate(stream) == parse_deflate_queue(stream)


# -- pinned outcomes ------------------------------------------------------


def write_random_tokens(sink: BitSink, rng: random.Random, lit, dist) -> None:
    """Up to 40 random coded symbols, then end of block if it has a code.

    Length codepoints get random extra bits (284 often gets 31), and a
    distance code follows each of them; codepoints 286/287 and distance
    codes 30/31 are drawn whenever the codings have them.
    """
    lit_codes, dist_codes = bit_codes(lit), bit_codes(dist)
    lit_syms = [s for s, code in enumerate(lit_codes) if code]
    dist_syms = [s for s, code in enumerate(dist_codes) if code]
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
        if sym >= len(lit_codes):
            continue
        if not lit_codes[sym]:
            continue
        write_code_msb(sink, lit_codes[sym])
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
        write_code_msb(sink, dist_codes[dsym])
        width = distance_extra_bits(dsym) if dsym < 30 else 0
        sink.write_bits_lsb(rng.randrange(1 << width), width)
    if 256 < len(lit_codes) and lit_codes[256]:
        write_code_msb(sink, lit_codes[256])


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
    cl = bit_codes(build_coding([4] * 16 + [0] * 3, 7))
    for length in lit_lengths + dist_lengths:
        write_code_msb(sink, cl[length])
    return sink, build_coding(lit_lengths), build_coding(dist_lengths)


def random_dynamic_block(rng: random.Random, long_codes: bool = False,
                         ends: bool = False) -> bytes:
    """A final dynamic block over random (often incomplete) codings, with
    codes up to 15 bits; with long_codes, one of them longer than 9; with
    ends, a literal coding that codes end of block: its codes are shuffled
    over 257 to 286 symbols, and unless 256 gets one, a random coded
    symbol's length moves to it."""
    while True:
        lit_lengths = list(random_code_lengths(rng, max_alphabet=286))
        lit_lengths += [0] * (257 - len(lit_lengths))
        dist_lengths = list(random_code_lengths(rng, max_alphabet=32))
        if ends:
            lit_lengths += [0] * (rng.randrange(257, 287) - len(lit_lengths))
            rng.shuffle(lit_lengths)
            coded = [s for s, length in enumerate(lit_lengths) if length]
            if coded and not lit_lengths[256]:
                moved = rng.choice(coded)
                lit_lengths[256], lit_lengths[moved] = lit_lengths[moved], 0
        if (not long_codes or max(lit_lengths + dist_lengths) > 9) and (
                not ends or lit_lengths[256]):
            break
    sink, lit, dist = dynamic_block(lit_lengths, dist_lengths)
    write_random_tokens(sink, rng, lit, dist)
    return sink.to_bytes()


def long_codes_stream():
    """A dynamic block whose 15-bit literal, end and distance codes sit
    between 1- and 2-bit ones; returns the sink and its tokens."""
    lit_lengths = [0] * 259
    lit_lengths[97], lit_lengths[257], lit_lengths[98], lit_lengths[256] = 1, 2, 15, 15
    sink, lit, dist = dynamic_block(lit_lengths, [15, 1])  # distance 1: 15 bits, 2: 1 bit
    lit_codes, dist_codes = bit_codes(lit), bit_codes(dist)
    tokens = [Literal(97), Literal(98), BackRef(3, 1), BackRef(3, 2)] * 40 + [END_OF_BLOCK]
    for t in tokens:
        if type(t) is Literal:
            write_code_msb(sink, lit_codes[t.value])
        elif type(t) is BackRef:
            write_code_msb(sink, lit_codes[257])
            write_code_msb(sink, dist_codes[t.distance - 1])
        else:
            write_code_msb(sink, lit_codes[256])
    return sink, tokens


def test_long_codes_decode_between_short_ones():
    # 15-bit codes go past the 11-bit primary tables; the tokens after
    # them must still line up.
    sink, tokens = long_codes_stream()
    stream = sink.to_bytes()
    assert [t for _, item, _ in iter_blocks(stream) for t in item] == tokens
    expected, _ = resolve_tokens(tokens, QueueOfDoom())
    assert parse_deflate(stream) == Parsed(expected, sink.bit_length)


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
    yield from damaged(streams, rng)


def damaged(streams, rng: random.Random):
    """Each stream plain, then, unless empty, bit-flipped and truncated,
    then junk-suffixed."""
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


def outcome_line(outcome) -> bytes:
    """One digest line for a parse_deflate outcome."""
    if isinstance(outcome, Parsed):
        line = (
            f"ok {hashlib.sha256(outcome.value).hexdigest()}"
            # Every digest parse starts at bit 0, so its end bit is consumed_bits.
            f" {outcome.consumed_bits} {outcome.consumed_bits}"
        )
    else:
        line = f"no {outcome.reason.name} {outcome.bit_pos} {outcome.detail}"
    return line.encode() + b"\n"


def test_parse_outcomes_match_the_pinned_digest():
    digest = hashlib.sha256()
    reasons = set()
    for stream in pinned_corpus():
        outcome = parse_deflate(stream)
        if isinstance(outcome, NoParse):
            reasons.add(outcome.reason)
            assert_raises_what_it_returns(stream, outcome)
        digest.update(outcome_line(outcome))
    assert reasons == set(FailReason)
    assert digest.hexdigest() == PINNED_OUTCOMES_SHA256


def ending_dynamic_blocks():
    """150 random dynamic blocks whose literal coding codes end of block,
    built without zlib."""
    rng = random.Random(67)
    return [random_dynamic_block(rng, ends=True) for _ in range(150)]


# sha256 over the parse_deflate outcomes of damaged(ending_dynamic_blocks()),
# recorded when the codec's records became named tuples; the hand-written
# records before them gave the same digest.
PINNED_ENDING_OUTCOMES_SHA256 = "a232dd262cc69493d832f53d37ecb29dcc24775f81d29090b022341e21722ffc"


def test_ending_dynamic_block_outcomes_match_the_pinned_digest():
    blocks = ending_dynamic_blocks()
    # Most decode to their end of block or fail inside it, not at the end of input.
    outcomes = [parse_deflate(block) for block in blocks]
    assert sum(not (isinstance(outcome, NoParse) and outcome.reason is FailReason.END_OF_INPUT)
               for outcome in outcomes) >= 75
    digest = hashlib.sha256()
    for stream in damaged(blocks, random.Random(68)):
        digest.update(outcome_line(parse_deflate(stream)))
    assert digest.hexdigest() == PINNED_ENDING_OUTCOMES_SHA256


def long_code_streams():
    """The long-codes stream and 20 random dynamic blocks with codes
    longer than 9 bits, built without zlib."""
    rng = random.Random(15)
    yield long_codes_stream()[0].to_bytes()
    for _ in range(20):
        yield random_dynamic_block(rng, long_codes=True)


# sha256 over the parse_deflate outcomes of every byte prefix of
# long_code_streams(), recorded while inflate still read long codes and
# the last 16 bytes of a stream through read_symbol and read_bits.
PINNED_TAIL_OUTCOMES_SHA256 = "cf5fa1f87508052a6c8b44d128aefc19b14b8056abbc8bd1f8dbe18bf7c8d44b"


def test_every_prefix_of_long_code_streams_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for stream in long_code_streams():
        for k in range(len(stream) + 1):
            digest.update(outcome_line(parse_deflate(stream[:k])))
    assert digest.hexdigest() == PINNED_TAIL_OUTCOMES_SHA256


def deep_code_streams():
    """20 final dynamic blocks over random codings that code end of block,
    built without zlib, each opening with a literal whose code is longer
    than the primary table, then random tokens and end of block."""
    rng = random.Random(34)
    for _ in range(20):
        while True:
            lit_lengths = list(random_code_lengths(rng, max_alphabet=286))
            lit_lengths += [0] * (257 - len(lit_lengths))
            deep = [ch for ch in range(256) if lit_lengths[ch] > _TABLE_BITS]
            if deep and lit_lengths[256]:
                break
        sink, lit, dist = dynamic_block(lit_lengths, list(random_code_lengths(rng, max_alphabet=32)))
        write_code_msb(sink, bit_codes(lit)[rng.choice(deep)])
        write_random_tokens(sink, rng, lit, dist)
        yield sink.to_bytes()


# sha256 over the parse_deflate outcomes of every byte prefix of
# deep_code_streams(), recorded under 11-bit primary tables; 9-bit ones
# give the same outcomes.
PINNED_DEEP_TAIL_OUTCOMES_SHA256 = "8d50f2f60ee18acb67712bd430eed0678f7b662eb9ad0ba477db0112c9eab9f4"


class LookupCounter(dict):
    """A coding's dict of long codes that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        LookupCounter.lookups += 1
        return super().get(key, default)


def test_every_prefix_of_deep_code_streams_matches_the_pinned_digest(monkeypatch):
    def counted(lengths, max_len):
        coding = build_coding(lengths, max_len)
        coding._long_codes = LookupCounter(coding._long_codes)
        return coding

    monkeypatch.setattr(inflate_module, "build_coding", counted)
    digest = hashlib.sha256()
    for stream in deep_code_streams():
        LookupCounter.lookups = 0
        parse_deflate(stream)
        assert LookupCounter.lookups, "the opening literal's code is past the table"
        for k in range(len(stream) + 1):
            digest.update(outcome_line(parse_deflate(stream[:k])))
    assert digest.hexdigest() == PINNED_DEEP_TAIL_OUTCOMES_SHA256


def write_coded_tokens(sink: BitSink, rng: random.Random, lit, dist, count: int) -> list:
    """``count`` tokens the codings can code, then end of block; returns them.

    Only symbols with a code are drawn: literals, length codepoints with
    an extra value that codes a valid length, and distance codes whose
    base lies inside the output so far, with an extra value that keeps
    the distance there.  The codings must code end of block and some
    literal.
    """
    lit_syms = [s for s in range(256) if lit.lengths[s]]
    len_syms = [s for s in range(257, min(len(lit.lengths), 286)) if lit.lengths[s]]
    dist_syms = [s for s in range(min(len(dist.lengths), 30)) if dist.lengths[s]]
    lit_codes, dist_codes = bit_codes(lit), bit_codes(dist)
    tokens = []
    produced = 0
    for _ in range(count):
        reachable = [d for d in dist_syms if DISTANCE_CODES[d][1] <= produced]
        if not (len_syms and reachable and rng.random() < 0.4):
            sym = rng.choice(lit_syms)
            write_code_msb(sink, lit_codes[sym])
            tokens.append(Literal(sym))
            produced += 1
            continue
        sym = rng.choice(len_syms)
        width, length = LENGTH_CODES[sym - 257]
        extra = rng.randrange((1 << width) - (sym == 284))  # 284 + 31 is invalid
        write_code_msb(sink, lit_codes[sym])
        sink.write_bits_lsb(extra, width)
        length += extra
        dsym = rng.choice(reachable)
        width, distance = DISTANCE_CODES[dsym]
        extra = rng.randrange(min(1 << width, produced - distance + 1))
        write_code_msb(sink, dist_codes[dsym])
        sink.write_bits_lsb(extra, width)
        tokens.append(BackRef(length, distance + extra))
        produced += length
    write_code_msb(sink, lit_codes[256])
    return tokens + [END_OF_BLOCK]


def token_carrying_dynamic_block(rng: random.Random) -> tuple[bytes, list]:
    """A final dynamic block over random codings that code end of block,
    some literal, some length and some distance, with 40-160 tokens that
    all decode; returns the stream and its tokens."""
    while True:
        lit_lengths = list(random_code_lengths(rng, max_alphabet=286))
        lit_lengths += [0] * (257 - len(lit_lengths))
        dist_lengths = list(random_code_lengths(rng, max_alphabet=32))
        if lit_lengths[256] and all(map(any, (lit_lengths[:256], lit_lengths[257:286],
                                              dist_lengths[:30]))):
            break
    sink, lit, dist = dynamic_block(lit_lengths, dist_lengths)
    tokens = write_coded_tokens(sink, rng, lit, dist, rng.randrange(40, 161))
    return sink.to_bytes(), tokens


# sha256 over the parse_deflate outcomes of every byte prefix of 8
# token_carrying_dynamic_block() streams, recorded while DeflateCoding
# still took code values from its caller.
PINNED_TOKEN_OUTCOMES_SHA256 = "80922591292f9c8b2696e3682114f3faeb5a67de602cbfc3fec55eb02474f264"


def test_every_prefix_of_token_carrying_dynamic_blocks_matches_the_pinned_digest():
    rng = random.Random(16)
    digest = hashlib.sha256()
    for _ in range(8):
        stream, tokens = token_carrying_dynamic_block(rng)
        assert [t for _, item, _ in iter_blocks(stream) for t in item] == tokens
        for k in range(len(stream) + 1):
            digest.update(outcome_line(parse_deflate(stream[:k])))
    assert digest.hexdigest() == PINNED_TOKEN_OUTCOMES_SHA256


def backref_blocks():
    """32 token_carrying_dynamic_block() streams with their tokens; every
    one decodes backrefs the damage below can break."""
    rng = random.Random(69)
    return [token_carrying_dynamic_block(rng) for _ in range(32)]


def flipped(stream: bytes, rng: random.Random):
    """The stream plain, truncated, junk-suffixed, then with each of 16
    single-bit flips."""
    yield stream
    yield stream[: rng.randrange(len(stream))]
    yield stream + rng.randbytes(rng.randrange(1, 9))
    for _ in range(16):
        damaged_stream = bytearray(stream)
        damaged_stream[rng.randrange(len(stream))] ^= 1 << rng.randrange(8)
        yield bytes(damaged_stream)


# sha256 over the parse_deflate outcomes of every stream flipped() makes
# of backref_blocks(), recorded while the raw parsers still raised _Fail.
PINNED_BACKREF_OUTCOMES_SHA256 = "60bc6852e9f8d809e15479706299ccc535a467de8076fce723065fb4caaf7b64"


def test_damaged_backref_block_outcomes_match_the_pinned_digest():
    rng = random.Random(70)
    digest = hashlib.sha256()
    reasons = set()
    for block, tokens in backref_blocks():
        assert [t for _, item, _ in iter_blocks(block) for t in item] == tokens
        for stream in flipped(block, rng):
            outcome = parse_deflate(stream)
            if isinstance(outcome, NoParse):
                reasons.add(outcome.reason)
                assert_raises_what_it_returns(stream, outcome)
            digest.update(outcome_line(outcome))
    assert FailReason.DISTANCE_TOO_FAR in reasons
    assert digest.hexdigest() == PINNED_BACKREF_OUTCOMES_SHA256
