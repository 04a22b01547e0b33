"""Greedy matching, tokenization, block writing, and whole-stream compression.

Round trips run against both our own decoder and zlib, so neither side
of the codec can quietly agree with its twin on a wrong answer.
"""

import hashlib
import math
import pickle
import random
import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflatekit import compress
from deflatekit.bitio import BitSink
from deflatekit.compress import (
    DEFAULT_PARAMS,
    CompressParams,
    CHUNK_BYTES,
    MAX_STORED_BLOCK,
    _chunks,
    _dynamic_plan,
    _rle_lengths,
    _static_cost_bits,
    _stored_cost_bits,
    deflate,
    huffman_lengths,
    tokenize,
    write_dynamic_block,
    write_static_block,
    write_stored_block,
)
from deflatekit.errors import ValueOutOfRange
from deflatekit.inflate import (
    BlockType,
    NoParse,
    Parsed,
    _rle_code_lengths,
    inflate,
    iter_blocks,
    parse_deflate,
    parse_dynamic_header,
    parse_stored_block,
)
from deflatekit.prefix_coding import (
    FIXED_DIST,
    FIXED_LIT,
    MAX_CL_CODE_LENGTH,
    DeflateCoding,
    canonical_codes,
)
from deflatekit.reference import (
    DISTANCE_TABLE,
    MAX_DISTANCE,
    bit_codes,
    check_axioms,
    distance_encode,
    length_encode,
)
from deflatekit.symbol_tables import (
    DISTANCE_CODEPOINT,
    DISTANCE_CODES,
    END_OF_BLOCK,
    LENGTH_CODES,
    LENGTH_ENCODING,
    LITERALS,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
    REPEAT_CODES,
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
    # tokenize keeps the same chains inline, also in inputs that just
    # fit, fill and overflow the window its prev table is sized by.
    text = english_text(32769, seed=15)
    for data in (edge, far, text[:32767], text[:32768], text):
        assert tokenize(data) == reference_tokenize(data)


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
    pieces repeated at distances 32767, 32768 and 32769, records of 17
    to 250 bytes repeated with one byte changed in each copy (matches
    of tens to hundreds of bytes at short distances that end before the
    cap), and inputs of fewer than three bytes; whatever comes last ends
    the input, so matches there stop at len(data).  Random stretches of
    1.5 to 6 KiB, built from a drawn seed, run long enough without a
    match to make the matcher skip.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=2))
    out = bytearray()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "long-random", "period", "records", "far"]))
        if kind == "random":
            out += draw(st.binary(min_size=1, max_size=300))
        elif kind == "long-random":
            rng = random.Random(draw(st.integers(0, 2**32 - 1)))
            out += rng.randbytes(draw(st.integers(1536, 6144)))
        elif kind == "period":
            unit = draw(st.binary(min_size=1, max_size=8))
            out += unit * draw(st.integers(1, 700 // len(unit)))
        elif kind == "records":
            record = draw(st.binary(min_size=17, max_size=250))
            for _ in range(draw(st.integers(2, 6))):
                copy = bytearray(record)
                copy[draw(st.integers(0, len(record) - 1))] ^= draw(st.integers(1, 255))
                out += copy
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


@pytest.mark.parametrize("block_limit", [1, 7, 200, 777, 65535])
def test_tokenize_matches_the_reference_matcher_through_skips(block_limit):
    # Random stretches miss long enough to skip, mixed items end the
    # misses with matches; skips must stop short of every block end.
    rng = random.Random(48)
    params = CompressParams(block_payload_limit=block_limit)
    for _ in range(4):
        data = rng.randbytes(rng.randrange(1500, 6000))
        data += mixed_corpus_item(rng, rng.randrange(0, 2000)) + data[:300]
        for item in (data, mixed_corpus_item(rng, rng.randrange(0, 3000))):
            tokens = tokenize(item, params)
            assert tokens == reference_tokenize(item, params)
            assert all(span == block_limit for span in block_spans(tokens)[:-1])


def pricing_inputs() -> list:
    """Prose, bytes of 9-bit literal codes, random stretches long enough
    to skip through, and short-period runs, in a seeded order."""
    rng = random.Random(49)
    items = []
    for _ in range(2):
        parts = [
            english_text(rng.randrange(300, 3000), seed=rng.randrange(100)),
            bytes(rng.choices(range(144, 256), k=rng.randrange(50, 600))),
            rng.randbytes(rng.randrange(1536, 6144)),
            rng.randbytes(rng.randrange(1, 9)) * rng.randrange(20, 120),
        ]
        rng.shuffle(parts)
        items.append(b"".join(parts))
    return items


@pytest.mark.parametrize(
    "block_limit", [1, 7, 200, 5000, 65535, CompressParams().block_payload_limit]
)
def test_block_counts_price_each_block_exactly(block_limit):
    # Each block's own counts give exactly the bits write_static_block
    # writes after its 3-bit header, and its record's floor, 8 bits per
    # skipped literal, is at most that.  The record ends one past the
    # block's EndOfBlock and at the byte past the block's last.
    skipped = skipped_high = 0
    for data in pricing_inputs():
        for max_chain in (1, 4, 128):
            blocks = []
            params = CompressParams(max_chain=max_chain, block_payload_limit=block_limit)
            tokens = tokenize(data, params, blocks=blocks)
            assert tokens == tokenize(data, params)
            start = offset = 0
            for k, (stop, record_lit, record_dist, record_skipped, end) in enumerate(blocks):
                block = tokens[start:stop]
                assert sum(type(t) is EndOfBlock for t in block) == 1
                assert block[-1] is END_OF_BLOCK
                span = sum(1 if type(t) is Literal else t.length for t in block[:-1])
                assert span == end - offset, (k, max_chain)
                lit, dist = symbol_counts(block)
                final = k == len(blocks) - 1
                bits = write_static_block(block, final, BitSink()).bit_length
                assert _static_cost_bits(lit, dist) + 3 == bits, (k, max_chain)
                floor = _static_cost_bits(record_lit, record_dist) + 8 * record_skipped
                assert floor + 3 <= bits, (k, max_chain)
                skipped += record_skipped
                skipped_high += sum(lit[144:256]) - sum(record_lit[144:256])
                start, offset = stop, end
            assert (start, offset) == (len(tokens), len(data))
    # The inputs reach the skip rule and skip 9-bit literals, except
    # where blocks are too short to search.
    if block_limit > MIN_MATCH_LENGTH:
        assert skipped > skipped_high > 0


def symbol_counts(tokens) -> tuple[list, list]:
    """Literal/length and distance symbol counts of a block's tokens, with its end of block."""
    lit, dist = [0] * 286, [0] * 30
    lit[256] = 1
    for t in tokens:
        if type(t) is Literal:
            lit[t.value] += 1
        elif type(t) is BackRef:
            lit[LENGTH_ENCODING[t.length][0]] += 1
            dist[DISTANCE_CODEPOINT[t.distance]] += 1
    return lit, dist


def dynamic_floor(lit, dist) -> int:
    """Bits no dynamic block of these symbol counts can undercut: 44 header
    bits, a bit per symbol, and the length and distance extra bits."""
    extra = sum(n * width for n, (width, _) in zip(lit[257:], LENGTH_CODES))
    extra += sum(n * width for n, (width, _) in zip(dist, DISTANCE_CODES))
    return 44 + sum(lit) + sum(dist) + extra


def written_items(stream: bytes) -> list:
    """[block type, first bit, end bit, payload or tokens] of each block in the stream."""
    blocks, start, last = [], 0, None
    for header, item, end in iter_blocks(stream):
        assert not isinstance(item, NoParse), item
        if header is not last:
            blocks.append([header.block_type, start, end, item[:0]])
            last = header
        blocks[-1][2] = start = end
        blocks[-1][3] += item
    return blocks


def written_blocks(stream: bytes) -> list:
    """[block type, first bit, end bit] of each block in the stream."""
    return [block[:3] for block in written_items(stream)]


def record_was_sampled(lit, dist, skipped, stored) -> bool:
    """Whether a record whose static floor loses to storing is counted after all:
    its searched literals' counts, scaled to all its literals, price 2 % below stored."""
    searched = sum(lit[:256])
    scaled = [c * (searched + skipped) // searched for c in lit[:256]] + lit[256:]
    return 50 * _dynamic_plan(scaled, dist)[0] < 49 * stored


@pytest.mark.parametrize("block_limit", [7, 200, 5000, CompressParams().block_payload_limit])
def test_each_block_is_written_at_its_price_as_the_cheapest_type(block_limit):
    # Every writer puts down exactly its price plus the 3-bit header, from
    # the bit where deflate's block starts, and deflate picks the least
    # price: static on a tie, then stored.  A record with skipped literals
    # whose static floor, 8 bits per skipped literal, loses to storing is
    # stored unpriced as dynamic, unless its sampled price is 2 % below
    # storing it.  Any other record is written as one block, or as blocks
    # of whole chunks when they take fewer bits than it would as one.
    seen = set()
    text = digest_inputs()["text"]
    inputs = [b"", b"ab" * 500, text[:3000]]
    if block_limit >= 200:
        inputs += pricing_inputs() + [text, random.Random(52).randbytes(3000)]
    params = CompressParams(block_payload_limit=block_limit)
    split = 0
    for data in inputs:
        blocks = []
        tokens = tokenize(data, params, blocks=blocks)
        written = iter(written_items(deflate(data, params)))
        start = offset = 0
        for stop, record_lit, record_dist, skipped, end in blocks:
            record = tokens[start:stop]
            lit, dist = symbol_counts(record)
            assert (lit[256:], dist) == (record_lit[256:], record_dist)
            assert sum(lit[:256]) - sum(record_lit[:256]) == skipped
            # The index past each chunk's last token, by the data offset it ends at.
            cuts = {end: index for index, _, _, end in _chunks(tokens, start, stop, offset, end)}
            record_offset, first_token, parts = offset, start, []
            while not parts or offset < end:  # an empty record is one empty block
                kind, first, end_bit, item = next(written)
                parts.append((first, end_bit))
                if kind is BlockType.STORED:
                    assert len(item) < MAX_STORED_BLOCK  # one stored block: the inputs are shorter
                    assert item == data[offset : offset + len(item)]
                    block_end = offset + len(item)
                else:
                    block_end = offset + sum(1 if type(t) is Literal else t.length
                                             for t in item[:-1])
                block = tokens[first_token : cuts[block_end]] + [END_OF_BLOCK]
                if kind is not BlockType.STORED:
                    assert item == block
                lit, dist = symbol_counts(block)
                plan = _dynamic_plan(lit, dist)
                assert plan[0] >= dynamic_floor(lit, dist)
                price = {
                    BlockType.STORED: _stored_cost_bits(block_end - offset, first),
                    BlockType.STATIC: _static_cost_bits(lit, dist),
                    BlockType.DYNAMIC: plan[0],
                }
                for block_type, write, args in ((BlockType.STATIC, write_static_block, ()),
                                                (BlockType.DYNAMIC, write_dynamic_block, (plan,))):
                    sink = BitSink()
                    sink.write_bits_lsb(0, first % 8)
                    write(block, False, sink, *args)
                    assert sink.bit_length == first % 8 + price[block_type] + 3
                # The decoder reads the plan's header field as the codings it prices.
                parsed = parse_dynamic_header(sink.to_bytes(), first % 8 + 3)
                header = parsed.value
                assert parsed.consumed_bits == plan[1][1]
                assert header.lit_coding.lengths == tuple(plan[2][: header.hlit])
                assert header.dist_coding.lengths == tuple(plan[3][: header.hdist])
                assert end_bit - first == price[kind] + 3
                floor = _static_cost_bits(record_lit, record_dist) + 8 * skipped
                stored = _stored_cost_bits(end - record_offset, parts[0][0])
                if (skipped and floor > stored
                        and not record_was_sampled(record_lit, record_dist, skipped, stored)):
                    assert (kind, len(parts), block_end) == (BlockType.STORED, 1, end)
                else:
                    best = min(price.values())
                    assert kind is next(t for t in (BlockType.STATIC, BlockType.STORED,
                                                    BlockType.DYNAMIC) if price[t] == best)
                seen.add(kind)
                first_token, offset = cuts[block_end], block_end
            if len(parts) > 1:
                # Several blocks only where they beat the record written as one.
                split += 1
                one = min(_stored_cost_bits(end - record_offset, parts[0][0]),
                          _static_cost_bits(*symbol_counts(record)),
                          _dynamic_plan(*symbol_counts(record))[0])
                assert parts[-1][1] - parts[0][0] < 3 + one
            start = stop
        assert next(written, None) is None
    # Seven bytes never pay for a dynamic header or a stored block's framing.
    assert seen == (set(BlockType) if block_limit >= 200 else {BlockType.STATIC})
    # Only records of at least two chunks are split, and text is.
    assert (split > 0) == (block_limit >= 2 * CHUNK_BYTES)


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


def assert_writer_validates_before_writing(write) -> None:
    sink = BitSink()
    sink.write_bits_lsb(1, 1)
    with pytest.raises(ValueOutOfRange):
        write([Literal(97)], True, sink)  # no end marker
    with pytest.raises(ValueOutOfRange):
        write([END_OF_BLOCK, Literal(97), END_OF_BLOCK], True, sink)
    with pytest.raises(ValueOutOfRange):
        write([], True, sink)
    with pytest.raises(ValueOutOfRange):
        write([Literal(97), "x", END_OF_BLOCK], True, sink)  # unknown token
    assert sink.bit_length == 1  # the sink was never touched


def test_write_static_block_validates_before_writing():
    assert_writer_validates_before_writing(write_static_block)


def write_planned_dynamic_block(tokens, final: bool, sink: BitSink) -> BitSink:
    """write_dynamic_block under the plan of the tokens' own symbol counts."""
    return write_dynamic_block(tokens, final, sink, _dynamic_plan(*symbol_counts(tokens)))


def test_write_dynamic_block_validates_before_writing():
    assert_writer_validates_before_writing(write_planned_dynamic_block)


def test_write_dynamic_block_refuses_a_token_its_plan_leaves_uncoded():
    # Literal 98, length symbol 257 and distance symbol 4 have no code
    # under these plans: each raises before the sink is touched, where
    # writing them as zero bits would decode to other bytes.
    literals = _dynamic_plan(*symbol_counts([Literal(97)] * 5))
    one_ref = _dynamic_plan(*symbol_counts([Literal(97), BackRef(3, 1)]))
    assert (literals[2][98], literals[2][257], one_ref[3][4]) == (0, 0, 0)
    for plan, token in ((literals, Literal(98)), (literals, BackRef(3, 1)),
                        (one_ref, BackRef(3, 5))):
        sink = BitSink()
        sink.write_bits_lsb(1, 1)
        with pytest.raises(ValueOutOfRange):
            write_dynamic_block([Literal(97), token, END_OF_BLOCK], False, sink, plan)
        assert (sink.bit_length, sink.to_bytes()) == (1, b"\x01")


def write_static_fields(tokens, final: bool, sink: BitSink) -> BitSink:
    """write_static_block field by field through the checked write_bits_lsb."""
    lit_enc = canonical_codes(FIXED_LIT.lengths)[1]
    dist_enc = canonical_codes(FIXED_DIST.lengths)[1]
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


@st.composite
def valid_tokens(draw):
    """Literals and backrefs of any valid length, each distance within the
    output so far.  A drawn number of BackRef(258, 1) first grows the
    output past 32 KiB at times, so every distance code can be drawn."""
    tokens = [Literal(draw(st.integers(0, 255)))] if draw(st.booleans()) else []
    produced = len(tokens)
    if tokens:
        tokens += [BackRef(MAX_MATCH_LENGTH, 1)] * draw(st.sampled_from([0, 0, 1, 20, 127, 130]))
        produced += MAX_MATCH_LENGTH * (len(tokens) - 1)
    for _ in range(draw(st.integers(0, 40))):
        if produced and draw(st.booleans()):
            far = min(produced, MAX_DISTANCE)
            distance = draw(st.one_of(st.integers(1, far), st.just(far)))
            length = draw(st.one_of(st.integers(MIN_MATCH_LENGTH, MAX_MATCH_LENGTH),
                                    st.sampled_from([MIN_MATCH_LENGTH, 257, MAX_MATCH_LENGTH])))
            tokens.append(BackRef(length, distance))
            produced += length
        else:
            tokens.append(Literal(draw(st.integers(0, 255))))
            produced += 1
    return tokens


def assert_block_parses_back(block: list, write, block_type: BlockType) -> bytes:
    """The written block parses back to exactly its tokens in exactly the
    bits written, and zlib decodes it to what they resolve to."""
    sink = write(block, True, BitSink())
    stream = sink.to_bytes()
    parsed, end = [], None
    for header, item, end in iter_blocks(stream):
        assert not isinstance(item, NoParse), item
        assert (header.block_type, header.is_final) == (block_type, True)
        parsed += item
    assert parsed == block
    assert end == sink.bit_length
    from deflatekit.history_window import QueueOfDoom, resolve_tokens

    d = zlib.decompressobj(wbits=-15)
    assert d.decompress(stream) == resolve_tokens(block[:-1], QueueOfDoom())[0]
    assert d.eof
    assert d.unused_data == b""
    return stream


def assert_dynamic_codings_are_canonical(stream: bytes) -> tuple:
    """The three codings of a dynamic block's header, each passing the four rules."""
    header = parse_dynamic_header(stream, 3).value
    codings = (header.cl_coding, header.lit_coding, header.dist_coding)
    for coding in codings:
        assert check_axioms(bit_codes(coding)).all_pass
    return codings


@settings(max_examples=60, deadline=None)
@given(valid_tokens())
def test_static_block_parses_back_to_its_tokens(tokens):
    assert_block_parses_back(tokens + [END_OF_BLOCK], write_static_block, BlockType.STATIC)


@settings(max_examples=60, deadline=None)
@given(valid_tokens())
def test_dynamic_block_parses_back_to_its_tokens(tokens):
    block = tokens + [END_OF_BLOCK]
    stream = assert_block_parses_back(block, write_planned_dynamic_block, BlockType.DYNAMIC)
    assert_dynamic_codings_are_canonical(stream)


def fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_a_fibonacci_weighted_block_repairs_both_length_limits():
    # Distance code k is used fib(k) times for k = 0..16, which makes an
    # unlimited Huffman tree 16 deep; literal s appears fib(popcount(s))
    # times, which skews the code-length counts into a tree 9 deep.
    block = [Literal(s) for s in range(256) for _ in range(fib(bin(s).count("1")))]
    block += [BackRef(3, DISTANCE_CODES[k][1]) for k in range(17) for _ in range(fib(k))]
    lit, dist = symbol_counts(block)
    _, _, lit_lengths, dist_lengths = _dynamic_plan(lit, dist)
    stream = assert_block_parses_back(block + [END_OF_BLOCK], write_planned_dynamic_block,
                                      BlockType.DYNAMIC)
    header = parse_dynamic_header(stream, 3).value
    runs = _rle_lengths(lit_lengths[: header.hlit] + dist_lengths[: header.hdist])
    cl_counts = [sum(sym == c for sym, _ in runs) for c in range(19)]
    assert max(huffman_lengths(dist, 64)) > 15
    assert max(huffman_lengths(cl_counts, 64)) > 7
    cl_coding, lit_coding, dist_coding = assert_dynamic_codings_are_canonical(stream)
    assert max(dist_coding.lengths) == 15
    assert max(cl_coding.lengths) == 7
    assert inflate(stream) == zlib.decompress(stream, -15)


def test_huffman_lengths_refuses_a_limit_too_short_for_the_used_symbols():
    # Beyond the small-scope test's five symbols: 2**max_len codes at most.
    for counts, max_len in (([1] * 17, 4), ([1] * 20, 4), ([1] * 286, 8)):
        with pytest.raises(ValueOutOfRange):
            huffman_lengths(counts, max_len)
    assert huffman_lengths([1] * 16, 4) == [4] * 16
    assert max(huffman_lengths([1] * 286, 9)) == 9


# Zero runs and runs of 8 at the repeat codes' boundaries: 17 covers 3..10
# zeros, 18 covers 11..138, and 16 repeats the previous length 3..6 times.
RLE_BOUNDARIES = {
    (0, 2): [(0, 0), (0, 0)],
    (0, 3): [(17, 0)],
    (0, 10): [(17, 7)],
    (0, 11): [(18, 0)],
    (0, 138): [(18, 127)],
    (0, 139): [(18, 127), (0, 0)],
    (0, 141): [(18, 127), (17, 0)],
    (0, 149): [(18, 127), (18, 0)],
    (8, 3): [(8, 0), (8, 0), (8, 0)],
    (8, 4): [(8, 0), (16, 0)],
    (8, 7): [(8, 0), (16, 3)],
    (8, 8): [(8, 0), (16, 3), (8, 0)],
    (8, 10): [(8, 0), (16, 3), (16, 0)],
}


def test_rle_lengths_expand_back_by_the_decoders_rule_on_every_run():
    for (length, run), pairs in RLE_BOUNDARIES.items():
        assert _rle_lengths([length] * run) == pairs, (length, run)
    flat = DeflateCoding([5] * 19, MAX_CL_CODE_LENGTH)
    flat_codes = canonical_codes(flat.lengths, MAX_CL_CODE_LENGTH)[1]
    for length, left, right in ((0, 3, 4), (8, 0, 5)):
        for run in range(1, 301):
            lengths = [left] + [length] * run + [right]
            sink = BitSink()
            for sym, extra in _rle_lengths(lengths):
                width = REPEAT_CODES[sym - 16][0] if sym > 15 else 0
                assert 0 <= extra < 1 << width, (length, run, sym, extra)
                sink.write_bits_lsb(*flat_codes[sym])
                sink.write_bits_lsb(extra, width)
            data = sink.to_bytes()
            got, pos = _rle_code_lengths(data, 0, 8 * len(data), flat, len(lengths))
            assert (got, pos) == (bytearray(lengths), sink.bit_length), (length, run)


def test_write_stored_block_round_trips():
    for payload in (b"", b"x", b"stored bytes", bytes(1000)):
        sink = write_stored_block(payload, True, BitSink())
        outcome = parse_stored_block(sink.to_bytes(), 3)
        assert outcome.value == payload
    # A buffer of wider items is stored as its bytes, as zlib reads it.
    items = array("I", [1, 2, 3])
    for payload in (items, memoryview(items)):
        sink = write_stored_block(payload, True, BitSink())
        assert zlib.decompress(sink.to_bytes(), -15) == items.tobytes()


def test_write_stored_block_from_an_odd_bit_position():
    sink = BitSink()
    sink.write_bits_lsb(0, 5)  # leave the sink unaligned
    write_stored_block(b"pad me", False, sink)
    outcome = parse_stored_block(sink.to_bytes(), 5 + 3)
    assert outcome.value == b"pad me"


def test_write_stored_block_size_limit():
    write_stored_block(bytes(MAX_STORED_BLOCK), True, BitSink())
    with pytest.raises(ValueOutOfRange):
        write_stored_block(bytes(MAX_STORED_BLOCK + 1), True, BitSink())
    # The limit counts bytes, not a buffer's wider items.
    wide = array("I", bytes(MAX_STORED_BLOCK + 1))
    with pytest.raises(ValueOutOfRange, match="^stored block of 65536 bytes exceeds 65535$"):
        write_stored_block(wide, True, BitSink())


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
# matches came to stop at the block end, and the wrap entries when the
# matcher came to skip after a run of misses (skipped positions are not
# hashed, so part of the random stretch's repeat goes unfound).  The text
# and wrap entries were re-pinned when deflate came to write a dynamic
# block wherever it is the smallest; random and runs stay stored and static.
# The default and chain1 entries of text and wrap were re-pinned when
# deflate came to split a record of two chunks or more into the blocks
# that cost least (each output shorter than before); the chain4-block5000
# records are shorter than two chunks, so their blocks are as they were.
DIGEST_PARAMS = {
    "default": CompressParams(),
    "chain1": CompressParams(max_chain=1),
    "chain4-block5000": CompressParams(max_chain=4, block_payload_limit=5000),
}
GOLDEN_DIGESTS = {
    ("text", "default"): "352eaab77733e9c39abc0a5b4f19f1e59e57878f2d2f7ee9455c5f47ea7e0167",
    ("text", "chain1"): "a8cea27a3ccf5526d12496e8efa8663b17195ab9911791c953aeaf2bf1842f64",
    ("text", "chain4-block5000"): "3aee21723e4494f304d1e6a94ed928f670fc05b5c636b368c98a87ce955c6440",
    ("random", "default"): "512fd432c710400e94eb339b4903c813aa83c9aa2fb00c5138da395299243a68",
    ("random", "chain1"): "512fd432c710400e94eb339b4903c813aa83c9aa2fb00c5138da395299243a68",
    ("random", "chain4-block5000"): "c4ab07480d75461958663d2bf44eba12e5164437eee202103313b3a9a84ba45c",
    ("runs", "default"): "e30e8b33924ac1a5c15c5fa9e47a21721a639f81e6a16d95c858577091b57228",
    ("runs", "chain1"): "e30e8b33924ac1a5c15c5fa9e47a21721a639f81e6a16d95c858577091b57228",
    ("runs", "chain4-block5000"): "d07cd7c917a71d1688f5849f616bd0d04d39ada6cf1ef320d5fcc0ea8a11996d",
    ("wrap", "default"): "802021f81a1ffb133eff6293158532ce180fd29d1acb9e4c02cc4fffbb4f864f",
    ("wrap", "chain1"): "cd4a88fcbc85ac31a664e5e8dbc387f8ce120dfcaa273c360699b70b912507c4",
    ("wrap", "chain4-block5000"): "ac9e6792c72af48c0daef1ba95555aa4822039eecfadb843e821e2adafba437c",
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
# Re-pinned with GOLDEN_DIGESTS for the block-end cap; the random and
# wrap entries again for the skip after a run of misses.
GOLDEN_TOKEN_DIGESTS = {
    ("text", "default"): "249c05a318395abd61c3ad371b39418064bf6e6d7f0b071d504a1edcf32f026d",
    ("text", "chain1"): "263aa0b644dbd78494c7905718110544fb196f35fe6d8f2bb98e255d71ccfae5",
    ("text", "chain4-block5000"): "94c8e27c03cc104371cb9ee33f9b2f021adde174006d36e650439448c1a1c7be",
    ("random", "default"): "aaaee3c250c9bcbfe9f0bb59e19d44504ebb01112ea57bdbd2215e898ec274f7",
    ("random", "chain1"): "aaaee3c250c9bcbfe9f0bb59e19d44504ebb01112ea57bdbd2215e898ec274f7",
    ("random", "chain4-block5000"): "e3d0b96b19f0f342959523763eb8a1648400022b6451ddb5562efd91a46e76e4",
    ("runs", "default"): "b3198ac629e91a15fbf49bc00a5192c6c58202e818f93106cda2dfb63924cb54",
    ("runs", "chain1"): "b3198ac629e91a15fbf49bc00a5192c6c58202e818f93106cda2dfb63924cb54",
    ("runs", "chain4-block5000"): "8905d3dfa372f5dde6b2c5b983c73b4646f9d1a46b811d2d7f547ac65f171da4",
    ("wrap", "default"): "0c79bc9382997601c1ef7584b35a53f24b0ca6f1321257d2abd63dd485fffaa7",
    ("wrap", "chain1"): "5015c7818426c98ce1f7faf1f63c5a2a000a99876de517c0e0120309826ca2ae",
    ("wrap", "chain4-block5000"): "8a7be29cfa9a7eef3c55843750fdd9364f709897cf586e7b6f90a1e8029f1dbf",
}


def test_tokenize_output_matches_the_golden_token_digests():
    digests = {
        (name, pname): hashlib.sha256(repr(tokenize(data, params)).encode()).hexdigest()
        for name, data in digest_inputs().items()
        for pname, params in DIGEST_PARAMS.items()
    }
    assert digests == GOLDEN_TOKEN_DIGESTS


def test_skipping_still_finds_the_copy_at_the_window_edge():
    # wrap repeats 3000 bytes at distance 32768 after a random stretch
    # long enough that the matcher is skipping when the repeat begins.
    tokens = tokenize(digest_inputs()["wrap"])
    assert any(type(t) is BackRef and t.distance == MAX_DISTANCE for t in tokens)


def assert_shared_tokens(tokens) -> None:
    """Every Literal is LITERALS[value] itself and every end of block END_OF_BLOCK."""
    for k, t in enumerate(tokens):
        if type(t) is Literal:
            assert t is LITERALS[t.value], k
        elif type(t) is EndOfBlock:
            assert t is END_OF_BLOCK, k


def test_tokens_are_the_shared_literal_and_end_of_block_objects():
    # The equality checks (reference_tokenize, the golden digests) cannot
    # tell a shared token from an equal new one, which costs about 40
    # bytes of peak per literal held.  Random bytes are nearly all skipped
    # runs.
    for data in digest_inputs().values():
        for params in DIGEST_PARAMS.values():
            assert_shared_tokens(tokenize(data, params))
    skippy = random.Random(50).randbytes(20000)
    for limit in (7, 200, DEFAULT_PARAMS.block_payload_limit):
        blocks = []
        params = CompressParams(block_payload_limit=limit)
        assert_shared_tokens(tokenize(skippy, params, blocks=blocks))
        assert sum(skipped for _, _, _, skipped, _ in blocks) > 0, limit
    data = digest_inputs()["wrap"]
    level6 = zlib.compressobj(6, zlib.DEFLATED, -15)
    for stream in (deflate(data), level6.compress(data) + level6.flush()):
        for _, item, _ in iter_blocks(stream):
            if not isinstance(item, bytes):
                assert_shared_tokens(item)


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


def assert_strongly_unique(stream: bytes, rng: random.Random) -> None:
    """The parse consumes all but the last byte's padding, and junk after
    the stream changes neither the output nor the bits consumed."""
    base = parse_deflate(stream)
    assert isinstance(base, Parsed)
    assert 0 <= 8 * len(stream) - base.consumed_bits < 8
    for junk in (rng.randbytes(1), rng.randbytes(2), rng.randbytes(rng.randrange(3, 64)),
                 rng.randbytes(64), b"\xff" * 64):
        extended = parse_deflate(stream + junk)
        assert extended == base


def test_digest_streams_are_strongly_unique():
    # Criterion 8 sees only short single-block static streams; these
    # have many blocks, skips, and stored, static and dynamic blocks.
    rng = random.Random(50)
    kinds = set()
    for data in digest_inputs().values():
        for params in DIGEST_PARAMS.values():
            stream = deflate(data, params)
            assert_strongly_unique(stream, rng)
            kinds.update(kind for kind, _, _ in written_blocks(stream))
    assert kinds == set(BlockType)


@settings(max_examples=12, deadline=None)
@given(
    matcher_inputs(),
    st.sampled_from([1, 4, 128]),
    st.sampled_from([7, 200, 65535]),
    st.randoms(use_true_random=False),
)
def test_deflate_output_is_strongly_unique(data, max_chain, block_limit, rng):
    params = CompressParams(max_chain=max_chain, block_payload_limit=block_limit)
    assert_strongly_unique(deflate(data, params), rng)


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


def test_high_half_random_bytes_compress_below_their_size():
    # Every skipped literal of these takes 9 bits static, so the static
    # floor loses to storing; the sampled price does not, and the block
    # is counted and written dynamic.
    data = bytes(random.Random(3).choices(range(128, 256), k=20000))
    out = deflate(data)
    assert len(out) < len(data)
    assert [kind for kind, _, _ in written_blocks(out)] == [BlockType.DYNAMIC]
    assert zlib.decompress(out, -15) == data


def one_block_per_record(monkeypatch, data: bytes, params: CompressParams = DEFAULT_PARAMS):
    """deflate's stream of data with its chunks off: each record one block."""
    with monkeypatch.context() as patch:
        patch.setattr(compress, "CHUNK_BYTES", 1 << 62)
        return deflate(data, params)


def test_deflate_is_no_longer_than_one_block_per_record(monkeypatch):
    # The golden inputs, criterion 9's corpus, and prose and log lines on
    # their own: a split is written only where it takes fewer bits.
    cases = [(data, params) for data in digest_inputs().values()
             for params in DIGEST_PARAMS.values()]
    cases += [(english_text(150_000), DEFAULT_PARAMS), (log_text(150_000), DEFAULT_PARAMS)]
    shorter = 0
    for data, params in cases:
        out, one = deflate(data, params), one_block_per_record(monkeypatch, data, params)
        assert len(out) <= len(one)
        shorter += len(out) < len(one)
    assert shorter >= 4  # the default and chain1 text and wrap entries at least


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_split_dearer_than_one_block_is_written_as_one_block(monkeypatch, seed):
    # Four words at random: every chunk codes alike, so each split block
    # would pay a header of its own.  With merging off, deflate's guard
    # must fall back to the record as one block, as chunking off writes it.
    rng = random.Random(seed)
    data = " ".join(rng.choice(("alpha", "beta", "gamma", "delta")) for _ in range(8000))
    data = data.encode()
    counted = []

    def unmerged(chunks):
        counted.append(len(chunks))
        return [[stop, lit, dist, end, compress._price(lit, dist)]
                for stop, lit, dist, end in chunks]

    with monkeypatch.context() as patch:
        patch.setattr(compress, "_merge", unmerged)
        out = deflate(data)
    assert counted == [6]
    assert out == one_block_per_record(monkeypatch, data)
    assert len(written_blocks(out)) == 1
    assert inflate(out) == data


def test_a_mixed_input_is_split_into_blocks_smaller_than_one(monkeypatch):
    # Prose, 8 KiB of random bytes on a chunk of their own, then prose:
    # the random bytes would cost every coding of the prose, so they are
    # stored in a block of their own.
    rng = random.Random(53)
    data = english_text(2 * CHUNK_BYTES, seed=15) + rng.randbytes(CHUNK_BYTES)
    data += english_text(2 * CHUNK_BYTES, seed=16)
    out = deflate(data)
    kinds = [kind for kind, _, _ in written_blocks(out)]
    assert len(kinds) > 1 and BlockType.STORED in kinds
    assert len(out) < len(one_block_per_record(monkeypatch, data))
    assert inflate(out) == data
    assert zlib.decompress(out, -15) == data


def test_a_skewed_block_under_its_static_floor_is_priced_dynamic():
    # Its skipped literals come mostly from a 64-byte alphabet: static
    # loses to storing, but the floor does not, so the block is counted
    # and priced dynamic rather than stored.
    r = random.Random(6)
    data = bytes(r.choices(range(64), k=2000)) + r.randbytes(1000)
    blocks = []
    tokens = tokenize(data, blocks=blocks)
    [(_, record_lit, record_dist, skipped, end)] = blocks
    floor = _static_cost_bits(record_lit, record_dist) + 8 * skipped
    assert floor <= _stored_cost_bits(end, 0) < _static_cost_bits(*symbol_counts(tokens))
    out = deflate(data)
    assert [kind for kind, _, _ in written_blocks(out)] == [BlockType.DYNAMIC]
    assert len(out) < len(data)
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
    assert parse_deflate_queue(out).value == data
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


def test_deflate_takes_bytes_bytearray_and_memoryview_alike():
    # Long enough a random stretch to skip, so every type reaches the
    # skipped literals' count too.
    data = random.Random(51).randbytes(3000) + english_text(2000, seed=5)
    out = deflate(data)
    assert deflate(bytearray(data)) == out
    assert deflate(memoryview(data)) == out
    assert inflate(out) == data


def test_deflate_and_tokenize_read_wide_items_as_their_bytes():
    # A buffer of items wider than a byte, or of more than one dimension,
    # is read as its bytes, as zlib reads it, not item by item: an item
    # past 255 would not even be one.
    wide = array("I", [1, 2, 3, 4] * 10 + [70000, 2**32 - 1] * 50)
    data = bytes(wide)
    assert tokenize(wide) == tokenize(memoryview(wide)) == tokenize(data)
    grid = memoryview(data).cast("B", (8, len(data) // 8))
    for buffer in (wide, memoryview(wide), memoryview(array("H", [300, 7, 65535] * 30)), grid):
        out = deflate(buffer)
        assert out == deflate(bytes(buffer))
        assert zlib.decompress(out, -15) == bytes(buffer) == zlib.decompress(zlib.compress(buffer))


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=800))
def test_round_trip_property(data):
    out = deflate(data)
    assert inflate(out) == data
    assert zlib.decompress(out, -15) == data


def test_compress_params_validation():
    with pytest.raises(ValueOutOfRange, match="^max_chain must be at least 1$"):
        CompressParams(max_chain=0)
    with pytest.raises(ValueOutOfRange, match="^block_payload_limit must be at least 1$"):
        CompressParams(block_payload_limit=0)
    with pytest.raises(ValueOutOfRange):
        CompressParams(1, -5)
    # Frozen values: equal and hashed by their fields, in declaration order.
    params = CompressParams(4, 7)
    assert params == CompressParams(block_payload_limit=7, max_chain=4) != CompressParams(4)
    assert CompressParams() == DEFAULT_PARAMS
    assert hash(params) == hash((4, 7))
    assert repr(DEFAULT_PARAMS) == "CompressParams(max_chain=128, block_payload_limit=1048560)"
    for name in ("max_chain", "block_payload_limit", "other"):
        with pytest.raises(AttributeError):
            setattr(params, name, 1)
    assert params.max_chain == 4
    assert pickle.loads(pickle.dumps(params)) == params
    # Every way to build one runs the constructor's checks.
    with pytest.raises(ValueOutOfRange, match="^max_chain must be at least 1$"):
        DEFAULT_PARAMS._replace(max_chain=0)
    with pytest.raises(ValueOutOfRange, match="^max_chain must be an int, not bool$"):
        CompressParams._make((True, 5))


@pytest.mark.parametrize("value", [2.5, 2.0, "8", None, True, False])
@pytest.mark.parametrize("field", ["max_chain", "block_payload_limit"])
def test_compress_params_reject_settings_that_are_not_ints(field, value):
    # Each would otherwise fail later, or with a bare TypeError, which is
    # not a DeflateError: a float max_chain only inside tokenize.  A bool
    # is an int to Python, but max_chain=True would quietly search one
    # candidate per position.
    kind = type(value).__name__
    with pytest.raises(ValueOutOfRange, match=f"^{field} must be an int, not {kind}$"):
        CompressParams(**{field: value})
