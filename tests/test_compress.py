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
    HashChains,
    MAX_STORED_BLOCK,
    WINDOW_MASK,
    _hash3,
    deflate,
    find_match,
    tokenize,
    write_static_block,
    write_stored_block,
)
from deflatekit.errors import ValueOutOfRange
from deflatekit.history_window import BackRef, END_OF_BLOCK, EndOfBlock, Literal
from deflatekit.inflate import inflate, parse_stored_block
from deflatekit.symbol_tables import (
    DISTANCE_CODEPOINT,
    DISTANCE_TABLE,
    LENGTH_ENCODING,
    MAX_DISTANCE,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
    distance_encode,
    length_encode,
)

from conftest import (
    GOLDEN_PLAINTEXT,
    GOLDEN_STATIC_BYTES,
    english_text,
    log_text,
    mixed_corpus_item,
    parse_deflate_queue,
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


def table_with_positions(data: bytes, stop: int) -> HashChains:
    table = HashChains()
    for j in range(stop):
        table.insert(_hash3(data[j], data[j + 1], data[j + 2]), j)
    return table


# -- find_match -----------------------------------------------------------


def test_find_match_worked_example():
    data = GOLDEN_PLAINTEXT
    table = table_with_positions(data, 8)
    assert find_match(data, 8, table) == (5, 8)


def test_find_match_run_example():
    data = b"aaaaaaaargh!"
    table = table_with_positions(data, 1)
    assert find_match(data, 1, table) == (7, 1)


def test_find_match_no_candidates():
    data = GOLDEN_PLAINTEXT
    assert find_match(data, 8, HashChains()) is None


def test_find_match_near_the_end():
    data = b"abcabc"
    table = table_with_positions(data, 3)
    assert find_match(data, 4, table) is None  # only two bytes left
    assert find_match(data, 6, table) is None  # zero bytes left
    assert find_match(data, 3, table) == (3, 3)


def test_find_match_short_candidates_are_rejected():
    # "ab" repeats but never three bytes' worth.
    data = b"abxaby"
    table = table_with_positions(data, 3)
    assert find_match(data, 3, table) is None


def test_ties_break_toward_the_smallest_distance():
    data = b"abcXabcYabc"
    table = table_with_positions(data, 8)
    assert find_match(data, 8, table) == (3, 4)


def test_longer_match_beats_closer_match():
    data = b"abcd" + b"abc!" + b"abcd"
    table = table_with_positions(data, 8)
    assert find_match(data, 8, table) == (4, 8)
    # With the chain capped at one candidate only the closest is seen.
    assert find_match(data, 8, table, CompressParams(max_chain=1)) == (3, 4)


def test_candidates_beyond_the_window_are_ignored():
    far = b"abc" + bytes(32766) + b"abc"  # distance 32769
    table = HashChains()
    table.insert(_hash3(*far[:3]), 0)
    assert find_match(far, 32769, table) is None
    edge = b"abc" + bytes(32765) + b"abc"  # distance 32768 exactly
    table = HashChains()
    table.insert(_hash3(*edge[:3]), 0)
    assert find_match(edge, 32768, table) == (3, 32768)


def test_match_length_is_capped_at_258():
    data = b"x" * 600
    table = table_with_positions(data, 1)
    assert find_match(data, 1, table) == (258, 1)


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


def test_tokenize_limit_crossing_mid_match_closes_after_the_token():
    tokens = tokenize(b"abcabcabcabc", CompressParams(block_payload_limit=4))
    spans = [0]
    for t in tokens:
        if type(t) is EndOfBlock:
            spans.append(0)
        else:
            spans[-1] += t.length if type(t) is BackRef else 1
    assert sum(spans) == 12
    assert all(s >= 4 for s in spans[:-2])  # every closed block met the limit


def test_tokens_resolve_back_to_the_input():
    rng = random.Random(41)
    from deflatekit.history_window import QueueOfDoom, resolve_tokens

    for _ in range(40):
        data = mixed_corpus_item(rng, rng.randrange(0, 2500))
        out, _ = resolve_tokens(tokenize(data), QueueOfDoom())
        assert out == data


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
    assert sink.bit_length == 1  # the sink was never touched


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
# or the block writers that alters the stream shows here.
DIGEST_PARAMS = {
    "default": CompressParams(),
    "chain1": CompressParams(max_chain=1),
    "chain4-block5000": CompressParams(max_chain=4, block_payload_limit=5000),
}
GOLDEN_DIGESTS = {
    ("text", "default"): "40b0581277238c4c62d496c8e1fc6eb99c91b29cad7ce64ff84f158a3fcaa1f5",
    ("text", "chain1"): "a8ef145eb919b16dfc0119d55e734159816d6825000583b2fcb46f1a54cef688",
    ("text", "chain4-block5000"): "ac613539bfdee98a6f80e4ffb5142515e565cf8a73c9e346e62c4faf6cd79b38",
    ("random", "default"): "512fd432c710400e94eb339b4903c813aa83c9aa2fb00c5138da395299243a68",
    ("random", "chain1"): "512fd432c710400e94eb339b4903c813aa83c9aa2fb00c5138da395299243a68",
    ("random", "chain4-block5000"): "c4ab07480d75461958663d2bf44eba12e5164437eee202103313b3a9a84ba45c",
    ("runs", "default"): "e30e8b33924ac1a5c15c5fa9e47a21721a639f81e6a16d95c858577091b57228",
    ("runs", "chain1"): "e30e8b33924ac1a5c15c5fa9e47a21721a639f81e6a16d95c858577091b57228",
    ("runs", "chain4-block5000"): "c19ac02d715fd24b34e517434c4335884867670dbe08b3c9b7d46b0eee11573b",
    ("wrap", "default"): "66ec85e70cebcbcf1f67838089807871116a9587a56312ef56ddeea98f6efb2c",
    ("wrap", "chain1"): "8098c32c4f12f372552c18dbe2e1c200f81dc0fb08c9f182828485e1f496b60e",
    ("wrap", "chain4-block5000"): "0043cb7bbb77bd9aca8ce040a27bf2e63b4c0eda29adfcf55148b9868ff4cd0f",
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
