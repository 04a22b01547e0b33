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
  the smallest feasible one, down to -1, raises.
"""

import itertools
import random
import zlib
from collections import Counter

import pytest

from deflatekit.bitio import BitCursor, BitSink
from deflatekit.compress import huffman_lengths
from deflatekit.errors import KraftViolation, ValueOutOfRange
from deflatekit.inflate import FailReason, NoParse, Parsed, iter_blocks, parse_deflate
from deflatekit.prefix_coding import FIXED_DIST, FIXED_LIT, build_coding
from deflatekit.reference import (
    DISTANCE_TABLE,
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

from conftest import write_code_msb


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
        assert coding.values == build_coding_sorted(lengths), lengths
        assert check_axioms(coding.codes).all_pass, lengths
        assert has_all_ones_code(coding) == (ks == 1), lengths
        kinds["saturated" if ks == 1 else "unsaturated"] += 1
        for ch, code in enumerate(coding.codes):
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
        outcome = parse_deflate(BitCursor(data))
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
        assert parse_deflate(BitCursor(data + bytes([i & 255]))) == outcome, data
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
    streams = 0
    for length in range(MIN_MATCH_LENGTH, MAX_MATCH_LENGTH + 1):
        for distance in distances:
            sink = BitSink()
            sink.write_bits_lsb(0b011, 3)  # final, static
            codepoint, extra, width = length_encode(length)
            write_code_msb(sink, FIXED_LIT[codepoint])
            sink.write_bits_lsb(extra, width)
            codepoint, extra, width = distance_encode(distance)
            write_code_msb(sink, FIXED_DIST[codepoint])
            sink.write_bits_lsb(extra, width)
            write_code_msb(sink, FIXED_LIT[256])
            stream = prefix + sink.to_bytes()
            (_, payload, stored_end), (_, tokens, end) = iter_blocks(stream)
            assert (payload, stored_end) == (history, 8 * len(prefix))
            assert tokens == [BackRef(length, distance), END_OF_BLOCK], (length, distance)
            assert end == 8 * len(prefix) + sink.bit_length, (length, distance)
            d = zlib.decompressobj(-15)
            assert d.decompress(stream) == parse_deflate(BitCursor(stream)).value
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
