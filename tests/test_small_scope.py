"""Small-scope exhaustive checks of the paper's theorems.

The paper proves its properties for every input, and the other tests
sample them.  Here every case of a scope small enough to run in a few
seconds is checked instead (the small-scope hypothesis behind Jackson's
Alloy):

* every length vector over 1-5 characters with lengths 0-5: the coding
  exists exactly when the Kraft sum is at most 1, equals the sorted
  construction, satisfies the four rules, saturates exactly when it has
  an all-ones code, and reads each of its codes back;
* every raw input of at most 2 bytes: parsing is total and agrees with
  zlib on value and end byte, except where we fail before zlib does,
  and a failure other than running out of input is final: one more
  byte fails at the same bit for the same reason (strong decidability);
* every static block holding one backreference, for each match length
  and the first and last distance of each distance code, behind a stored
  block of history: it parses back to its token in exactly the bits
  written, and zlib decodes it to the same bytes;
* every count vector over 2-5 symbols with counts 0-4, under each length
  limit from the smallest feasible one up to 4: the encoder's code
  lengths give each used symbol a code (and pad to two codes), respect
  the limit, form a complete code, and cost what the best lengths cost
  whenever the unlimited Huffman tree fits the limit; every limit below
  the smallest feasible one, down to -1, raises;
* every string over ``ab`` of length 0-9 and over the bytes 00, 01 and
  ff of length 0-6, under block limits 1, 3 and the default: tokenize
  equals the reference matcher, each block is written at its exact price
  as the cheapest type, no dynamic block costs less than 44 bits plus
  one per symbol and its extra bits, the stream keeps the stored bound,
  decodes back in our decoder and in zlib, and consumes exactly the bits
  written whatever follows it; the block of each one-block stream also
  parses back when written by each of the three writers;
* the bytes a0..cf followed by every string over ``ab`` of length 0-8,
  under block limits 24, 40 and the default, which reach the matcher's
  skip rule: the same checks, except that a block whose static floor
  loses to storing is stored unpriced, unless the dynamic price of its
  searched literals scaled to all its literals is 2 % below storing it;
  between them the limits store blocks unpriced, recount the literals of
  others (some after that sampled price), price blocks with no skipped
  literal, and write every block type.
"""

import itertools
import random
import zlib
from collections import Counter

import pytest

from deflatekit.bitio import BitSink
from deflatekit.compress import (
    DEFAULT_PARAMS,
    CompressParams,
    _dynamic_plan,
    _static_cost_bits,
    _stored_cost_bits,
    deflate,
    huffman_lengths,
    tokenize,
    write_dynamic_block,
    write_static_block,
    write_stored_block,
)
from deflatekit.errors import KraftViolation, ValueOutOfRange
from deflatekit.inflate import BlockType, FailReason, NoParse, Parsed, iter_blocks, parse_deflate
from deflatekit.prefix_coding import FIXED_DIST, FIXED_LIT, build_coding
from deflatekit.reference import (
    DISTANCE_TABLE,
    bit_codes,
    build_coding_sorted,
    check_axioms,
    distance_encode,
    has_all_ones_code,
    kraft_sum,
    length_encode,
)
from deflatekit.symbol_tables import (
    END_OF_BLOCK,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
    WINDOW_SIZE,
    BackRef,
)

from conftest import reference_tokenize, write_code_msb
from test_compress import dynamic_floor, record_was_sampled, symbol_counts, written_blocks


def test_every_length_vector_over_five_characters_up_to_length_five():
    vectors = [v for n in range(1, 6) for v in itertools.product(range(6), repeat=n)]
    assert len(vectors) == 9330
    kinds = Counter()
    for lengths in vectors:
        ks = kraft_sum(lengths)
        if ks > 1:
            with pytest.raises(KraftViolation):
                build_coding(lengths)
            kinds["over-subscribed"] += 1
            continue
        coding = build_coding(lengths)
        codes = bit_codes(coding)
        assert coding.values == build_coding_sorted(lengths), lengths
        assert check_axioms(codes).all_pass, lengths
        assert has_all_ones_code(coding) == (ks == 1), lengths
        kinds["saturated" if ks == 1 else "unsaturated"] += 1
        for ch, code in enumerate(codes):
            if code:
                sink = BitSink()
                write_code_msb(sink, code)
                assert coding.read_symbol(sink.to_bytes(), 0, len(code)) == (ch, len(code))
    assert kinds == {"over-subscribed": 2425, "saturated": 218, "unsaturated": 6687}


def zlib_outcome(data: bytes):
    """zlib's verdict on a raw stream: (value, end byte), "error" or "more"."""
    d = zlib.decompressobj(-15)
    try:
        value = d.decompress(data)
    except zlib.error:
        return "error"
    if d.eof:
        return value, len(data) - len(d.unused_data)
    return "more"


# Inputs we reject while zlib still asks for more, both deliberate: we
# fail at the first bit that rules out every continuation.  zlib checks
# HLIT only after reading HDIST and HCLEN, and it takes length codepoint
# 284 with extra value 31 as length 258 and reads on.
EARLY_FAILURES = {FailReason.FORBIDDEN_HLIT: 1028, FailReason.INVALID_LENGTH_EXTRA: 2}


def test_every_input_of_at_most_two_bytes():
    inputs = [bytes(v) for n in range(3) for v in itertools.product(range(256), repeat=n)]
    assert len(inputs) == 65793
    early = Counter()
    for i, data in enumerate(inputs):
        outcome = parse_deflate(data)
        theirs = zlib_outcome(data)
        if isinstance(outcome, Parsed):
            assert theirs == (outcome.value, (outcome.consumed_bits + 7) >> 3), data
            continue
        assert isinstance(outcome, NoParse), data
        if outcome.reason is FailReason.END_OF_INPUT:
            assert theirs == "more", data
            continue
        if theirs == "more":
            early[outcome.reason] += 1
        else:
            assert theirs == "error", data
        # One extension byte per input, cycling through every byte value.
        assert parse_deflate(data + bytes([i & 255])) == outcome, data
    assert early == EARLY_FAILURES


def test_every_single_backref_static_block_behind_a_stored_history():
    history = random.Random(12).randbytes(WINDOW_SIZE)
    # A non-final stored block of WINDOW_SIZE bytes: header bits 000, LEN, NLEN.
    prefix = b"\x00" + WINDOW_SIZE.to_bytes(2, "little")
    prefix += (WINDOW_SIZE ^ 0xFFFF).to_bytes(2, "little") + history
    distances = sorted(
        {d for extra, base in DISTANCE_TABLE.values() for d in (base, base + (1 << extra) - 1)}
    )
    assert len(distances) == 56
    lit, dist = bit_codes(FIXED_LIT), bit_codes(FIXED_DIST)
    streams = 0
    for length in range(MIN_MATCH_LENGTH, MAX_MATCH_LENGTH + 1):
        for distance in distances:
            sink = BitSink()
            sink.write_bits_lsb(0b011, 3)  # final, static
            codepoint, extra, width = length_encode(length)
            write_code_msb(sink, lit[codepoint])
            sink.write_bits_lsb(extra, width)
            codepoint, extra, width = distance_encode(distance)
            write_code_msb(sink, dist[codepoint])
            sink.write_bits_lsb(extra, width)
            write_code_msb(sink, lit[256])
            stream = prefix + sink.to_bytes()
            (_, payload, stored_end), (_, tokens, end) = iter_blocks(stream)
            assert (payload, stored_end) == (history, 8 * len(prefix))
            assert tokens == [BackRef(length, distance), END_OF_BLOCK], (length, distance)
            assert end == 8 * len(prefix) + sink.bit_length, (length, distance)
            d = zlib.decompressobj(-15)
            assert d.decompress(stream) == parse_deflate(stream).value
            assert d.eof and not d.unused_data
            streams += 1
    assert streams == 14336


def best_cost(counts, limit: int) -> int:
    """The least sum of count * length over the used symbols, by exhaustion.

    A multiset of lengths 1..limit with Kraft sum at most 1 serves best
    when its shortest lengths go to the largest counts, so every such
    multiset of the right size is tried that way.  At least two symbols
    get codes, as for the encoder.
    """
    ranked = sorted((c for c in counts if c), reverse=True)
    ranked += [0] * (2 - len(ranked))
    return min(
        sum(map(int.__mul__, ranked, lengths))
        for lengths in itertools.combinations_with_replacement(range(1, limit + 1), len(ranked))
        if sum(1 << (limit - l) for l in lengths) <= 1 << limit
    )


def test_every_small_count_vector_gets_complete_limited_best_lengths():
    with pytest.raises(ValueOutOfRange):
        huffman_lengths([3], 4)
    vectors = [v for n in range(2, 6) for v in itertools.product(range(5), repeat=n)]
    assert len(vectors) == 3900
    checked = Counter()
    for counts in vectors:
        used = [s for s, c in enumerate(counts) if c]
        codes = max(2, len(used))
        depth = max(huffman_lengths(counts, 15))  # five symbols never reach 15
        for limit in range(-1, (codes - 1).bit_length()):
            with pytest.raises(ValueOutOfRange):
                huffman_lengths(counts, limit)
            checked["infeasible"] += 1
        for limit in range((codes - 1).bit_length(), 5):
            lengths = huffman_lengths(counts, limit)
            coded = [s for s, l in enumerate(lengths) if l]
            assert set(used) <= set(coded) and len(coded) == codes, (counts, limit)
            assert max(lengths) <= limit, (counts, limit)
            assert kraft_sum(lengths) == 1, (counts, limit)
            if depth <= limit:
                cost = sum(map(int.__mul__, counts, lengths))
                assert cost == best_cost(counts, limit), (counts, limit)
                checked["optimal"] += 1
            else:
                checked["limited"] += 1
    assert checked["limited"] > 0 and checked["optimal"] > checked["limited"]
    assert checked["infeasible"] > len(vectors)


SHORT_INPUTS = sorted(
    {bytes(v) for n in range(10) for v in itertools.product(b"ab", repeat=n)}
    | {bytes(v) for n in range(7) for v in itertools.product(b"\x00\x01\xff", repeat=n)}
)
# 48 distinct bytes run the matcher into its skip rule; the ``ab`` tail
# then matches, or is skipped too.
SKIPPING_INPUTS = [
    bytes(range(160, 208)) + bytes(v) for n in range(9) for v in itertools.product(b"ab", repeat=n)
]
STORED, STATIC, DYNAMIC = BlockType.STORED, BlockType.STATIC, BlockType.DYNAMIC
# The order deflate breaks a tie in: static, then stored, then dynamic.
TIE_ORDER = (STATIC, STORED, DYNAMIC)


def assert_cheapest_blocks(data, params, plans):
    """Check deflate's stream of data block by block; returns its tokens
    and each block's (type, pricing path, dynamic plan).

    tokenize equals the reference matcher; a block whose static floor loses
    to storing is stored unpriced unless its sampled price, the dynamic price
    of its searched literals' counts scaled to all its literals, is below
    49/50 of storing it (path "sampled"), and any other is written at its
    exact price as the cheapest type (path "recounted" if it has skipped
    literals, else "unskipped") and no dynamic block of its counts costs less than 44
    bits plus one per symbol and its extra bits; the stream keeps the stored
    bound, and decodes in our decoder and in zlib to data in exactly the
    bits written, whatever follows it.  ``plans`` caches plans by counts:
    short blocks repeat theirs, and a plan takes about 0.1 ms.
    """
    blocks = []
    tokens = tokenize(data, params, blocks=blocks)
    assert tokens == reference_tokenize(data, params), data
    out = deflate(data, params)
    priced, expected, bit, start, offset = [], [], 0, 0, 0
    for stop, lit, dist, skipped, end in blocks:
        stored = _stored_cost_bits(end - offset, bit)
        unpriced = skipped and _static_cost_bits(lit, dist) + 8 * skipped > stored
        sampled = unpriced and record_was_sampled(lit, dist, skipped, stored)
        if unpriced and not sampled:
            kind, path, plan, cost = STORED, "stored unpriced", None, stored
        else:
            if skipped:
                lit, dist = symbol_counts(tokens[start:stop])
            key = (tuple(lit), tuple(dist))
            if key not in plans:
                plans[key] = _dynamic_plan(lit, dist)
                assert plans[key][0] >= dynamic_floor(lit, dist), data
            plan = plans[key]
            price = {STATIC: _static_cost_bits(lit, dist), STORED: stored, DYNAMIC: plan[0]}
            kind = min(TIE_ORDER, key=price.__getitem__)
            path = "sampled" if sampled else "recounted" if skipped else "unskipped"
            cost = price[kind]
        expected.append([kind, bit, bit + cost + 3])
        priced.append((kind, path, plan))
        bit += cost + 3
        start, offset = stop, end
    # Blocks end where priced, within the stored bound of 5 bytes per
    # block; junk changes neither the output nor the bits consumed, in
    # our decoder or in zlib.
    assert written_blocks(out) == expected, data
    assert len(out) == -(-bit // 8) <= len(data) + 5 * len(blocks), data
    junk = bytes([len(data) * 37 & 255, 0xA5])
    parsed = parse_deflate(out + junk)
    assert parsed == Parsed(data, bit), data
    d = zlib.decompressobj(-15)
    assert (d.decompress(out + junk), d.eof, d.unused_data) == (data, True, junk), data
    return tokens, priced


@pytest.mark.parametrize("block_limit", [1, 3, DEFAULT_PARAMS.block_payload_limit])
def test_every_short_input_compresses_to_its_cheapest_blocks(block_limit):
    assert len(SHORT_INPUTS) == 2115
    params = CompressParams(block_payload_limit=block_limit)
    reached, plans = set(), {}
    for data in SHORT_INPUTS:
        tokens, priced = assert_cheapest_blocks(data, params, plans)
        reached.update((kind, path) for kind, path, _ in priced)
        if len(priced) == 1:  # no history before it, so it parses back alone
            assert_each_writer_parses_back(tokens, data, priced[0][2])
    # Too short to reach the skip rule, and blocks this short are never
    # worth a stored block's framing or a dynamic block's header.
    assert reached == {(STATIC, "unskipped")}


# The blocks of each type and pricing path under each block limit: between
# them the limits reach every path and write every type.
SKIPPING_REACHED = {
    24: {(STATIC, "recounted"): 1007, (STATIC, "unskipped"): 525},
    40: {(STORED, "stored unpriced"): 511, (STATIC, "recounted"): 511},
    DEFAULT_PARAMS.block_payload_limit: {
        (DYNAMIC, "sampled"): 378, (STORED, "sampled"): 29, (DYNAMIC, "recounted"): 104},
}


@pytest.mark.parametrize("block_limit", list(SKIPPING_REACHED))
def test_every_skipping_input_compresses_to_its_cheapest_blocks(block_limit):
    assert len(SKIPPING_INPUTS) == 511
    params = CompressParams(block_payload_limit=block_limit)
    plans = {}
    assert Counter(
        (kind, path)
        for data in SKIPPING_INPUTS
        for kind, path, _ in assert_cheapest_blocks(data, params, plans)[1]
    ) == SKIPPING_REACHED[block_limit]


def assert_each_writer_parses_back(block, data, plan) -> None:
    """The one block of data, written by each writer as a final block,
    parses back to its tokens or bytes in exactly the bits written."""
    for kind, write, item in (
        (BlockType.STATIC, lambda sink: write_static_block(block, True, sink), block),
        (BlockType.DYNAMIC, lambda sink: write_dynamic_block(block, True, sink, plan), block),
        (BlockType.STORED, lambda sink: write_stored_block(data, True, sink), data),
    ):
        sink = write(BitSink())
        parsed, end = [], None
        for header, batch, end in iter_blocks(sink.to_bytes()):
            assert header.block_type is kind and not isinstance(batch, NoParse), (data, kind)
            parsed += batch
        assert (bytes(parsed) if kind is BlockType.STORED else parsed) == item, (data, kind)
        assert end == sink.bit_length, (data, kind)
