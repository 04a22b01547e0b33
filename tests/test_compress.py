"""Greedy matching, tokenization, block writing, and whole-stream compression.

Round trips run against both our own decoder and zlib, so neither side
of the codec can quietly agree with its twin on a wrong answer.
"""

import hashlib
import math
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflatekit.bitio import BitCursor, BitSink
from deflatekit.compress import (
    CompressParams,
    MAX_STORED_BLOCK,
    deflate,
    tokenize,
    write_static_block,
    write_stored_block,
)
from deflatekit.errors import ValueOutOfRange
from deflatekit.inflate import inflate, iter_blocks, parse_stored_block
from deflatekit.prefix_coding import FIXED_DIST, FIXED_LIT
from deflatekit.reference import DISTANCE_TABLE, MAX_DISTANCE, distance_encode, length_encode
from deflatekit.symbol_tables import (
    DISTANCE_CODEPOINT,
    DISTANCE_CODES,
    END_OF_BLOCK,
    LENGTH_ENCODING,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
    BackRef,
    EndOfBlock,
    Literal,
)

from conftest import (
    GOLDEN_PLAINTEXT,
    GOLDEN_STATIC_BYTES,
    WINDOW_MASK,
    HashChains,
    _hash3,
    english_text,
    find_match,
    log_text,
    mixed_corpus_item,
    parse_deflate_queue,
    reference_tokenize,
)

GOLDEN_TOKEN_STREAM = [
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


def match_at(data: bytes, pos: int, params: CompressParams = CompressParams()):
    """(length, distance) of tokenize's token at source offset pos, or None.

    None means a literal; a pos that no token starts at fails the test.
    """
    offset = 0
    for t in tokenize(data, params):
        if offset == pos and type(t) is not EndOfBlock:
            return (t.length, t.distance) if type(t) is BackRef else None
        offset += t.length if type(t) is BackRef else type(t) is Literal
    raise AssertionError(f"no token starts at {pos}")


def table_with_positions(data: bytes, stop: int) -> HashChains:
    table = HashChains()
    for j in range(stop):
        table.insert(_hash3(data[j], data[j + 1], data[j + 2]), j)
    return table


# -- matcher: tokenize's token at one position --------------------------------


def test_find_match_worked_example():
    assert match_at(GOLDEN_PLAINTEXT, 8) == (5, 8)


def test_find_match_run_example():
    assert match_at(b"aaaaaaaargh!", 1) == (7, 1)


def test_find_match_no_candidates():
    # The bytes at offset 8 of the worked example, with nothing before.
    assert match_at(GOLDEN_PLAINTEXT[8:], 0) is None


def test_find_match_near_the_end():
    assert match_at(b"abcab", 3) is None  # only two bytes left
    assert match_at(b"abcab", 4) is None
    assert match_at(b"abcabc", 3) == (3, 3)
    # Zero bytes left: no token after the match that ends the input.
    assert tokenize(b"abcabc")[3:] == [BackRef(3, 3), END_OF_BLOCK]


def test_find_match_short_candidates_are_rejected():
    # "ab" repeats but never three bytes' worth.
    assert match_at(b"abxaby", 3) is None


def test_ties_break_toward_the_smallest_distance():
    assert match_at(b"abcXabcYabc", 8) == (3, 4)


def test_longer_match_beats_closer_match():
    data = b"abcd" + b"abc!" + b"abcd"
    assert match_at(data, 8) == (4, 8)
    # With the chain capped at one candidate only the closest is seen.
    assert match_at(data, 8, CompressParams(max_chain=1)) == (3, 4)


def test_candidates_beyond_the_window_are_ignored():
    far = b"abc" + bytes(32766) + b"abc"  # distance 32769
    assert match_at(far, 32769) is None
    edge = b"abc" + bytes(32765) + b"abc"  # distance 32768 exactly
    assert match_at(edge, 32768) == (3, 32768)


def test_match_length_is_capped_at_258():
    assert match_at(b"x" * 600, 1) == (258, 1)


def chain_of(table: HashChains, key: int, pos: int) -> list:
    """Positions a search from pos walks for key: newest first, in window."""
    out = []
    cand = table.head[key]
    while cand >= pos - 32768:
        out.append(cand)
        cand = table.prev[cand & WINDOW_MASK]
    return out


def test_hash_chains_order_and_window_edge_after_slot_reuse():
    table = HashChains()
    for pos in (0, 3, 4, 9):
        table.insert(5, pos)
    table.insert(6, 7)
    assert chain_of(table, 5, 10) == [9, 4, 3, 0]
    assert chain_of(table, 6, 10) == [7]
    assert chain_of(table, 1, 10) == []
    # "abc" at 0, 32768 and 65536: inserting 32768 reused the prev slot
    # of position 0, and the search from 65536 still reaches 32768 at
    # distance exactly 32768, then stops at 0.
    edge = (b"abc" + bytes(32765)) * 2 + b"abc"
    table = table_with_positions(edge, 65536)
    key = _hash3(*b"abc")
    assert chain_of(table, key, 65536) == [32768]
    assert table.prev[32768 & WINDOW_MASK] == 0
    assert find_match(edge, 65536, table) == (3, 32768)
    # One byte further apart, the same layout is out of reach.
    far = (b"abc" + bytes(32766)) * 2 + b"abc"
    table = table_with_positions(far, 65538)
    assert chain_of(table, key, 65538) == []
    assert find_match(far, 65538, table) is None
    # tokenize keeps the same chains inline.
    assert tokenize(edge) == reference_tokenize(edge)
    assert tokenize(far) == reference_tokenize(far)


# -- tokenize ---------------------------------------------------------------


def test_tokenize_reproduces_the_worked_stream():
    assert tokenize(GOLDEN_PLAINTEXT) == GOLDEN_TOKEN_STREAM


def test_tokenize_empty_input():
    assert tokenize(b"") == [END_OF_BLOCK]


def test_tokenize_long_run():
    tokens = tokenize(b"a" * 300)
    assert tokens == [Literal(97), BackRef(258, 1), BackRef(41, 1), END_OF_BLOCK]


def test_tokenize_respects_the_block_payload_limit():
    data = bytes(range(25))  # incompressible: literals only
    tokens = tokenize(data, CompressParams(block_payload_limit=10))
    blocks = []
    current = []
    for t in tokens:
        if type(t) is EndOfBlock:
            blocks.append(current)
            current = []
        else:
            current.append(t)
    assert [len(b) for b in blocks] == [10, 10, 5]
    assert not current


def block_spans(tokens) -> list:
    """Source bytes covered by each block of a token stream."""
    spans = [0]
    for t in tokens:
        if type(t) is EndOfBlock:
            spans.append(0)
        else:
            spans[-1] += t.length if type(t) is BackRef else 1
    return spans[:-1]


def test_tokenize_block_closes_at_the_limit_mid_match():
    # The repeat from position 4 on would match to the end of the input;
    # each match stops at its block's end instead.
    tokens = tokenize(b"abcabcabcabc", CompressParams(block_payload_limit=4))
    assert block_spans(tokens) == [4, 4, 4]


def test_tokens_resolve_back_to_the_input():
    rng = random.Random(41)
    from deflatekit.history_window import QueueOfDoom, resolve_tokens

    for _ in range(40):
        data = mixed_corpus_item(rng, rng.randrange(0, 2500))
        out, _ = resolve_tokens(tokenize(data), QueueOfDoom())
        assert out == data


@st.composite
def matcher_inputs(draw):
    """Inputs that exercise every branch of the chain walk and block split.

    Random bytes, runs of period 1 to 8 (long ones cross the 258 cap),
    pieces repeated at distances 32767, 32768 and 32769, and inputs of
    fewer than three bytes; whatever comes last ends the input, so
    matches there stop at len(data).
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=2))
    out = bytearray()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "period", "far"]))
        if kind == "random":
            out += draw(st.binary(min_size=1, max_size=300))
        elif kind == "period":
            unit = draw(st.binary(min_size=1, max_size=8))
            out += unit * draw(st.integers(1, 700 // len(unit)))
        else:
            piece = draw(st.binary(min_size=1, max_size=300))
            distance = draw(st.sampled_from([32767, 32768, 32769]))
            gap = distance - len(piece)
            out += piece + bytes([draw(st.integers(0, 255))]) * gap + piece
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(
    matcher_inputs(),
    st.sampled_from([1, 2, 3, 4, 8, 128]),
    st.sampled_from([1, 7, 200, 65535]),
)
def test_tokenize_matches_the_reference_matcher(data, max_chain, block_limit):
    params = CompressParams(max_chain=max_chain, block_payload_limit=block_limit)
    tokens = tokenize(data, params)
    assert tokens == reference_tokenize(data, params)
    assert all(span == block_limit for span in block_spans(tokens)[:-1])


# -- block writers ----------------------------------------------------------


def test_write_static_block_reproduces_the_golden_bytes():
    sink = write_static_block(GOLDEN_TOKEN_STREAM, True, BitSink())
    assert sink.bit_length == 108
    assert sink.to_bytes() == GOLDEN_STATIC_BYTES


def test_write_static_block_empty_block():
    sink = write_static_block([END_OF_BLOCK], True, BitSink())
    assert sink.bit_length == 10
    assert sink.to_bytes() == b"\x03\x00"
    assert inflate(sink.to_bytes()) == b""


def test_write_static_block_validates_before_writing():
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    with pytest.raises(ValueOutOfRange):
        write_static_block([Literal(97)], True, sink)  # no end marker
    with pytest.raises(ValueOutOfRange):
        write_static_block([END_OF_BLOCK, Literal(97), END_OF_BLOCK], True, sink)
    with pytest.raises(ValueOutOfRange):
        write_static_block([], True, sink)
    with pytest.raises(ValueOutOfRange):
        write_static_block([Literal(97), "x", END_OF_BLOCK], True, sink)  # unknown token
    assert sink.bit_length == 1  # the sink was never touched


def write_static_fields(tokens, final: bool, sink: BitSink) -> BitSink:
    """write_static_block field by field through the checked write_bits_lsb."""
    lit_enc = FIXED_LIT.stream_codes
    dist_enc = FIXED_DIST.stream_codes
    write = sink.write_bits_lsb
    write(1 if final else 0, 1)
    write(1, 2)
    for t in tokens[:-1]:
        if type(t) is Literal:
            write(*lit_enc[t.value])
        else:
            cp, extra, ebits = LENGTH_ENCODING[t.length]
            write(*lit_enc[cp])
            write(extra, ebits)
            dcp = DISTANCE_CODEPOINT[t.distance]
            write(*dist_enc[dcp])
            debits, dbase = DISTANCE_CODES[dcp]
            write(t.distance - dbase, debits)
    write(*lit_enc[256])
    return sink


def extreme_code_tokens() -> list:
    """Every literal, then backrefs at both ends of each length and distance code."""
    lengths = []
    for length in range(MIN_MATCH_LENGTH, MAX_MATCH_LENGTH + 1):
        cp = LENGTH_ENCODING[length][0]
        if length == MIN_MATCH_LENGTH or LENGTH_ENCODING[length - 1][0] != cp:
            lengths.append(length)
        if length == MAX_MATCH_LENGTH or LENGTH_ENCODING[length + 1][0] != cp:
            lengths.append(length)
    distances = []
    for ebits, base in DISTANCE_CODES:
        distances += [base, base + (1 << ebits) - 1]
    pairs = max(len(lengths), len(distances))
    refs = [
        BackRef(lengths[k % len(lengths)], distances[k % len(distances)]) for k in range(pairs)
    ]
    return [Literal(v) for v in range(256)] + refs + [END_OF_BLOCK]


def test_static_writer_matches_a_field_by_field_writer():
    tokens = extreme_code_tokens()
    assert {LENGTH_ENCODING[t.length][0] for t in tokens if type(t) is BackRef} == set(
        range(257, 286)
    )
    assert {DISTANCE_CODEPOINT[t.distance] for t in tokens if type(t) is BackRef} == set(
        range(30)
    )
    text = english_text(3000, seed=9)
    blocks = [tokens, tokens[256:], [END_OF_BLOCK], tokenize(text + text)]
    for block in blocks:
        for final in (False, True):
            for lead in [*range(8), "stored"]:  # sink fill, or a stored block
                expected, got = BitSink(), BitSink()
                for sink in (expected, got):
                    if lead == "stored":
                        write_stored_block(b"raw", False, sink)
                    else:
                        sink.write_bits_lsb(0b1011011 >> (7 - lead), lead)
                write_static_fields(block, final, expected)
                assert write_static_block(block, final, got) is got
                assert got.bit_length == expected.bit_length, lead
                assert got.to_bytes() == expected.to_bytes(), lead


def test_write_stored_block_round_trips():
    for payload in (b"", b"x", b"stored bytes", bytes(1000)):
        sink = write_stored_block(payload, True, BitSink())
        outcome = parse_stored_block(BitCursor(sink.to_bytes(), 3))
        assert outcome.value == payload


def test_write_stored_block_from_an_odd_bit_position():
    sink = BitSink()
    sink.write_bits_lsb(0, 5)  # leave the sink unaligned
    write_stored_block(b"pad me", False, sink)
    outcome = parse_stored_block(BitCursor(sink.to_bytes(), 5 + 3))
    assert outcome.value == b"pad me"


def test_write_stored_block_size_limit():
    write_stored_block(bytes(MAX_STORED_BLOCK), True, BitSink())
    with pytest.raises(ValueOutOfRange):
        write_stored_block(bytes(MAX_STORED_BLOCK + 1), True, BitSink())


def test_distance_table_matches_distance_encode():
    assert len(DISTANCE_CODEPOINT) == MAX_DISTANCE + 1
    for d in range(1, MAX_DISTANCE + 1):
        cp = DISTANCE_CODEPOINT[d]
        bits, base = DISTANCE_TABLE[cp]
        assert (cp, d - base, bits) == distance_encode(d)


def test_length_table_matches_length_encode():
    assert len(LENGTH_ENCODING) == MAX_MATCH_LENGTH + 1
    for length in range(MIN_MATCH_LENGTH, MAX_MATCH_LENGTH + 1):
        assert LENGTH_ENCODING[length] == length_encode(length)


# -- deflate ----------------------------------------------------------------


def test_deflate_reproduces_the_golden_stream():
    assert deflate(GOLDEN_PLAINTEXT) == GOLDEN_STATIC_BYTES


def test_deflate_empty_input():
    out = deflate(b"")
    assert inflate(out) == b""
    assert zlib.decompress(out, -15) == b""


# -- byte identity ----------------------------------------------------------

# sha256 of deflate's output, recorded before the match finder moved from
# QueueOfDoom buckets to head/prev hash chains; any change to the matcher
# or the block writers that alters the stream shows here.  The
# chain4-block5000 entries of text, runs and wrap were re-pinned when
# matches came to stop at the block end.
DIGEST_PARAMS = {
    "default": CompressParams(),
    "chain1": CompressParams(max_chain=1),
    "chain4-block5000": CompressParams(max_chain=4, block_payload_limit=5000),
}
GOLDEN_DIGESTS = {
    ("text", "default"): "40b0581277238c4c62d496c8e1fc6eb99c91b29cad7ce64ff84f158a3fcaa1f5",
    ("text", "chain1"): "a8ef145eb919b16dfc0119d55e734159816d6825000583b2fcb46f1a54cef688",
    ("text", "chain4-block5000"): "492532b564bf7f548571236266fc32de5373766159131f9297d2d6d230a24ff3",
    ("random", "default"): "512fd432c710400e94eb339b4903c813aa83c9aa2fb00c5138da395299243a68",
    ("random", "chain1"): "512fd432c710400e94eb339b4903c813aa83c9aa2fb00c5138da395299243a68",
    ("random", "chain4-block5000"): "c4ab07480d75461958663d2bf44eba12e5164437eee202103313b3a9a84ba45c",
    ("runs", "default"): "e30e8b33924ac1a5c15c5fa9e47a21721a639f81e6a16d95c858577091b57228",
    ("runs", "chain1"): "e30e8b33924ac1a5c15c5fa9e47a21721a639f81e6a16d95c858577091b57228",
    ("runs", "chain4-block5000"): "d07cd7c917a71d1688f5849f616bd0d04d39ada6cf1ef320d5fcc0ea8a11996d",
    ("wrap", "default"): "66ec85e70cebcbcf1f67838089807871116a9587a56312ef56ddeea98f6efb2c",
    ("wrap", "chain1"): "8098c32c4f12f372552c18dbe2e1c200f81dc0fb08c9f182828485e1f496b60e",
    ("wrap", "chain4-block5000"): "c1591c7b7584747f51d9c8d423dfc0b927ff08d26c9899b90fba2ec9953a15e4",
}


def digest_inputs() -> dict:
    rng = random.Random(2027)
    far = rng.randbytes(32768)
    return {
        "text": english_text(16000, seed=11) + log_text(12000, seed=12),
        "random": rng.randbytes(6000),
        "runs": b"".join(
            (rng.randbytes(p) * 1100)[: 900 + 41 * p] for p in (1, 2, 3, 5, 7, 13, 31)
        ),
        # Over 64 KiB, so every prev slot is reused at least once, with a
        # random 3000-byte stretch repeated at distance exactly 32768.
        "wrap": english_text(40000, seed=13) + far + far[:3000] + log_text(6000, seed=14),
    }


def test_deflate_output_matches_the_golden_digests():
    digests = {
        (name, pname): hashlib.sha256(deflate(data, params)).hexdigest()
        for name, data in digest_inputs().items()
        for pname, params in DIGEST_PARAMS.items()
    }
    assert digests == GOLDEN_DIGESTS


# sha256 of repr(tokenize(data, params)), recorded before the matcher was
# fused into tokenize; pins the token stream itself, apart from the writer.
# Re-pinned with GOLDEN_DIGESTS for the block-end cap.
GOLDEN_TOKEN_DIGESTS = {
    ("text", "default"): "249c05a318395abd61c3ad371b39418064bf6e6d7f0b071d504a1edcf32f026d",
    ("text", "chain1"): "263aa0b644dbd78494c7905718110544fb196f35fe6d8f2bb98e255d71ccfae5",
    ("text", "chain4-block5000"): "94c8e27c03cc104371cb9ee33f9b2f021adde174006d36e650439448c1a1c7be",
    ("random", "default"): "16d1f4c554f03dfdc29da752d3cb22ec854c660fe3adff454b843b61d97b7783",
    ("random", "chain1"): "16d1f4c554f03dfdc29da752d3cb22ec854c660fe3adff454b843b61d97b7783",
    ("random", "chain4-block5000"): "884782730ca763b0a7233cdb2b8a6fbe822394483187e361b217af3dce0bcaff",
    ("runs", "default"): "b3198ac629e91a15fbf49bc00a5192c6c58202e818f93106cda2dfb63924cb54",
    ("runs", "chain1"): "b3198ac629e91a15fbf49bc00a5192c6c58202e818f93106cda2dfb63924cb54",
    ("runs", "chain4-block5000"): "8905d3dfa372f5dde6b2c5b983c73b4646f9d1a46b811d2d7f547ac65f171da4",
    ("wrap", "default"): "95977a8f3228a0a23e53b841dbaef5dbb6c176718c1edba2e20ef2fef19b25a2",
    ("wrap", "chain1"): "c4f5c983b6b6d5317f33cd23e0ebbf4ff4cb1053a70045adbb026a5061f1d337",
    ("wrap", "chain4-block5000"): "621cc8a2c0925f08c12ed2c69462b466b8e18d3d1cbb2ba9ac35bc7897e87dac",
}


def test_tokenize_output_matches_the_golden_token_digests():
    digests = {
        (name, pname): hashlib.sha256(repr(tokenize(data, params)).encode()).hexdigest()
        for name, data in digest_inputs().items()
        for pname, params in DIGEST_PARAMS.items()
    }
    assert digests == GOLDEN_TOKEN_DIGESTS


def far_copies(stream: bytes) -> int:
    """Backrefs of the stream at distance MAX_DISTANCE past 64 KiB of output."""
    produced = far = 0
    for _, item, _ in iter_blocks(stream):
        if isinstance(item, bytes):
            produced += len(item)
            continue
        for t in item:
            if type(t) is BackRef:
                far += t.distance == MAX_DISTANCE and produced > 2 * MAX_DISTANCE
                produced += t.length
            elif type(t) is Literal:
                produced += 1
    return far


def test_digest_streams_round_trip_through_both_decoders():
    # zlib never emits a distance past 32,506, so only our own streams
    # copy from exactly 32,768 back; the wrap input does so after 64 KiB
    # of output, where the decoder's one buffer is the only history.
    for name, data in digest_inputs().items():
        for pname, params in DIGEST_PARAMS.items():
            out = deflate(data, params)
            assert inflate(out) == data, (name, pname)
            assert zlib.decompress(out, -15) == data, (name, pname)
            if name == "wrap":
                assert far_copies(out) == 12, pname


def block_type_of(stream: bytes) -> int:
    return (stream[0] >> 1) & 3


def test_compressible_input_uses_a_static_block():
    out = deflate(b"ab" * 500)
    assert block_type_of(out) == 1
    assert len(out) < 200
    assert inflate(out) == b"ab" * 500


def test_incompressible_input_falls_back_to_stored():
    rng = random.Random(42)
    data = rng.randbytes(2000)
    out = deflate(data)
    assert block_type_of(out) == 0
    assert len(out) <= len(data) + 5 + 8
    assert inflate(out) == data
    assert zlib.decompress(out, -15) == data


def test_default_block_limit_is_whole_stored_chunks():
    # A block boundary then falls on a stored chunk boundary, so the
    # stored fallback frames the input as if it were one block.
    assert CompressParams().block_payload_limit % MAX_STORED_BLOCK == 0


def test_stored_bound_holds_across_block_boundaries():
    rng = random.Random(46)
    data = rng.randbytes(4 * 65536)
    out = deflate(data, CompressParams(block_payload_limit=MAX_STORED_BLOCK))
    n = len(data)
    assert len(out) <= n + 5 * math.ceil(n / MAX_STORED_BLOCK) + 8
    assert inflate(out) == data
    assert zlib.decompress(out, -15) == data


def test_stored_bound_holds_when_matches_straddle_block_ends():
    # Two 258-byte repeats; the first starts one byte before the first
    # block's limit.  Were matches free to run past the limit, each
    # repeat would straddle a block end and push its block 257 bytes
    # past MAX_STORED_BLOCK, to be stored as two chunks; the five
    # chunks' 25 bytes would exceed the bound's 23.
    rng = random.Random(47)
    n = 2 * (MAX_STORED_BLOCK + 257) + 64
    data = bytearray(rng.randbytes(n))
    for start in (MAX_STORED_BLOCK - 1, 2 * MAX_STORED_BLOCK + 256):
        data[start : start + 258] = data[start - 20000 : start - 19742]
    data = bytes(data)
    out = deflate(data, CompressParams(block_payload_limit=MAX_STORED_BLOCK))
    assert inflate(out) == data
    assert len(out) <= n + 5 * math.ceil(n / MAX_STORED_BLOCK) + 8


def test_large_incompressible_input_splits_into_stored_chunks():
    rng = random.Random(43)
    data = rng.randbytes(70000)
    out = deflate(data)
    n = len(data)
    assert len(out) <= n + 5 * math.ceil(n / MAX_STORED_BLOCK) + 8
    assert inflate(out) == data
    assert zlib.decompress(out, -15) == data


def test_matches_may_cross_block_boundaries():
    # Small blocks force splits; the window and match table persist, so
    # later blocks backreference into earlier ones.
    data = b"abcdefgh" * 100
    params = CompressParams(block_payload_limit=50)
    out = deflate(data, params)
    assert inflate(out) == data
    assert parse_deflate_queue(BitCursor(out)).value == data
    assert zlib.decompress(out, -15) == data
    assert len(out) < len(data) // 4


def test_window_sized_gap_prevents_matching():
    piece = b"unique piece of text!"
    data = piece + bytes(40000) + piece
    out = deflate(data)
    assert inflate(out) == data
    assert zlib.decompress(out, -15) == data


def test_round_trips_on_mixed_corpus():
    rng = random.Random(44)
    for _ in range(60):
        data = mixed_corpus_item(rng, rng.randrange(0, 3000))
        out = deflate(data)
        assert inflate(out) == data
        assert zlib.decompress(out, -15) == data


def test_round_trips_with_tiny_blocks_and_chains():
    rng = random.Random(45)
    params = CompressParams(max_chain=1, block_payload_limit=7)
    for _ in range(20):
        data = mixed_corpus_item(rng, rng.randrange(0, 400))
        out = deflate(data, params)
        assert inflate(out) == data
        assert zlib.decompress(out, -15) == data


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=800))
def test_round_trip_property(data):
    out = deflate(data)
    assert inflate(out) == data
    assert zlib.decompress(out, -15) == data


def test_compress_params_validation():
    with pytest.raises(ValueOutOfRange):
        CompressParams(max_chain=0)
    with pytest.raises(ValueOutOfRange):
        CompressParams(block_payload_limit=0)
