"""Greedy LZ77 tokenizer and deflate block writer.

``tokenize`` runs zlib's hash-chain search (``deflate.c``) inline: each
candidate is first rejected on the one byte at ``best_len``, then on its
first ``best_len + 1`` bytes, which it shares exactly when it beats the
best match so far; only those are extended.  The longest match wins,
ties to the smallest distance, else a shared ``Literal``.

No match runs past its block's end, so every block but the last covers
exactly ``block_payload_limit`` input bytes, and ``deflate`` computes
each block's byte range.  A block uses the fixed codings, or stored
blocks when those come out larger (e.g. on incompressible input).  The
static writer ORs codes and extra bits into a local int and hands it to
the sink's one LSB-first writer, ``write_bits_lsb``, which emits whole
bytes at once; headers and stored blocks use the same call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitSink
from .errors import ValueOutOfRange
from .inflate import BlockType
from .prefix_coding import FIXED_DIST, FIXED_LIT
from .symbol_tables import (
    DISTANCE_CODEPOINT,
    DISTANCE_CODES,
    END_OF_BLOCK,
    LENGTH_ENCODING,
    LITERALS,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
    WINDOW_SIZE,
    BackRef,
    EndOfBlock,
    Literal,
)

MAX_STORED_BLOCK = 65535
HASH_BITS = 15
_HASH_MASK = (1 << HASH_BITS) - 1
WINDOW_MASK = WINDOW_SIZE - 1
NO_POS = -WINDOW_SIZE - 1  # below pos - WINDOW_SIZE for every pos >= 0


@dataclass(frozen=True)
class CompressParams:
    """Tuning knobs; defaults favour speed over the last few percent."""

    max_chain: int = 128  # candidates examined per position
    # Source bytes in every block but the last; a multiple of
    # MAX_STORED_BLOCK, so that a stored fallback's chunks tile the input
    # as if it were one block.
    block_payload_limit: int = 16 * MAX_STORED_BLOCK

    def __post_init__(self):
        if self.max_chain < 1:
            raise ValueOutOfRange("max_chain must be at least 1")
        if self.block_payload_limit < 1:
            raise ValueOutOfRange("block_payload_limit must be at least 1")


DEFAULT_PARAMS = CompressParams()


# Search-effort heuristics, within the "at most max_chain examined"
# budget: a match of _GOOD_MATCH bytes shrinks the remaining budget to a
# quarter, and one of _NICE_MATCH bytes is taken without further search.
_GOOD_MATCH = 8
_NICE_MATCH = 128


def tokenize(data: bytes, params: CompressParams = DEFAULT_PARAMS):
    """Greedy token stream for data; EndOfBlock closes every block.

    At each position the longest match among the most recent
    candidates wins, ties going to the smallest distance; a match of
    fewer than MIN_MATCH_LENGTH bytes leaves a literal.  A match stops
    at its block's end, so every block but the last covers exactly
    params.block_payload_limit source bytes.  The hash chains persist
    across block boundaries, matching the decoder's window, which
    likewise never resets between blocks.
    """
    tokens = []
    append = tokens.append
    literals = LITERALS
    # head[key]: newest position whose three-byte group hashes to key;
    # prev[pos & WINDOW_MASK]: the next older position with pos's key.
    head = [NO_POS] * (1 << HASH_BITS)
    prev = [NO_POS] * WINDOW_SIZE
    max_chain = params.max_chain
    good_cap = max(1, max_chain >> 2)
    block_limit = params.block_payload_limit
    n = len(data)
    last_hash = n - 3  # last position with a full three-byte group
    # Rolled: the key of i is ((key of i - 1) << 5 ^ data[i + 2]) & mask.
    key = (data[0] << 5) ^ data[1] if n >= 3 else 0
    i = 0
    while True:
        block_end = min(i + block_limit, n)
        # Search only where a match of MIN_MATCH_LENGTH fits the block.
        last_search = block_end - MIN_MATCH_LENGTH
        while i <= last_search:
            key = ((key << 5) ^ data[i + 2]) & _HASH_MASK
            first = cand = head[key]
            min_cand = i - WINDOW_SIZE
            best_dist = 0
            if cand >= min_cand:
                limit = block_end - i
                if limit > MAX_MATCH_LENGTH:
                    limit = MAX_MATCH_LENGTH
                nice_stop = _NICE_MATCH if _NICE_MATCH < limit else limit
                # A candidate whose byte at best_len differs from scan
                # matches at most best_len bytes.
                best_len = MIN_MATCH_LENGTH - 1
                scan = data[i + best_len]
                chain = max_chain
                while True:
                    if data[cand + best_len] == scan:
                        k = best_len + 1
                        # Equal first best_len + 1 bytes: it beats best_len.
                        if data[cand : cand + k] == data[i : i + k]:
                            if data[cand : cand + limit] == data[i : i + limit]:
                                k = limit
                            else:
                                while limit - k >= 16 and (
                                    data[cand + k : cand + k + 16] == data[i + k : i + k + 16]
                                ):
                                    k += 16
                                while data[cand + k] == data[i + k]:
                                    k += 1
                            best_len = k
                            best_dist = i - cand
                            if k >= nice_stop:
                                break
                            scan = data[i + k]
                            if k >= _GOOD_MATCH and chain > good_cap:
                                chain = good_cap
                    chain -= 1
                    if not chain:
                        break
                    cand = prev[cand & WINDOW_MASK]
                    if cand < min_cand:
                        break
            # Insert i after its search: its prev slot is that of
            # i - WINDOW_SIZE, the oldest candidate the walk may reach.
            prev[i & WINDOW_MASK] = first
            head[key] = i
            if best_dist:
                append(BackRef(best_len, best_dist))
                # Hash the covered positions; later matches may start there.
                stop = i + best_len
                if stop > last_hash:
                    stop = last_hash + 1
                for j in range(i + 1, stop):
                    key = ((key << 5) ^ data[j + 2]) & _HASH_MASK
                    prev[j & WINDOW_MASK] = head[key]
                    head[key] = j
                i += best_len
            else:
                append(literals[data[i]])
                i += 1
        # The block's last one or two bytes (all of a block shorter than
        # a match) are literals; those that start a three-byte group
        # still enter the chains.
        while i < block_end:
            if i <= last_hash:
                key = ((key << 5) ^ data[i + 2]) & _HASH_MASK
                prev[i & WINDOW_MASK] = head[key]
                head[key] = i
            append(literals[data[i]])
            i += 1
        append(END_OF_BLOCK)
        if i == n:
            return tokens


# -- block writers ------------------------------------------------------

# (reversed code, width) per literal/length symbol, and per match length
# its code with the extra bits above it; distance codes are all 5 bits.
_LIT_CODES = FIXED_LIT.stream_codes
_LENGTH_CODES = (None,) * MIN_MATCH_LENGTH + tuple(
    (_LIT_CODES[cp][0] | extra << _LIT_CODES[cp][1], _LIT_CODES[cp][1] + ebits)
    for cp, extra, ebits in LENGTH_ENCODING[MIN_MATCH_LENGTH:]
)
_DIST_CODES = FIXED_DIST.stream_codes
_WRITE_RUN = 64  # tokens per accumulator, so it stays a small int


def write_static_block(tokens, final: bool, sink: BitSink) -> BitSink:
    """Write one block under the fixed codings; returns the sink.

    ``tokens`` must contain exactly one EndOfBlock, as its last element;
    the sink is touched only once the whole block has been coded.
    """
    body = list(tokens)
    if not body or type(body.pop()) is not EndOfBlock:
        raise ValueOutOfRange("block tokens must end with EndOfBlock")
    lits, lens, dists = _LIT_CODES, _LENGTH_CODES, _DIST_CODES
    fields = []
    for start in range(0, len(body), _WRITE_RUN):
        acc = fill = 0
        for t in body[start : start + _WRITE_RUN]:
            tt = type(t)
            if tt is Literal:
                code, nb = lits[t.value]
                acc |= code << fill
                fill += nb
            elif tt is BackRef:
                code, nb = lens[t.length]
                acc |= code << fill
                fill += nb
                d = t.distance
                dcp = DISTANCE_CODEPOINT[d]
                dbits, base = DISTANCE_CODES[dcp]
                acc |= (dists[dcp][0] | (d - base) << 5) << fill
                fill += 5 + dbits
            elif tt is EndOfBlock:
                raise ValueOutOfRange("EndOfBlock before the end of the block's tokens")
            else:
                raise ValueOutOfRange(f"unknown token {t!r}")
        fields.append((acc, fill))
    fields.append(lits[256])
    sink.write_bits_lsb(1 if final else 0, 1)
    sink.write_bits_lsb(BlockType.STATIC, 2)
    write = sink.write_bits_lsb
    for acc, fill in fields:
        write(acc, fill)
    return sink


def write_stored_block(data: bytes, final: bool, sink: BitSink) -> BitSink:
    """Write one stored (uncompressed) block of at most 65535 bytes."""
    if len(data) > MAX_STORED_BLOCK:
        raise ValueOutOfRange(f"stored block of {len(data)} bytes exceeds {MAX_STORED_BLOCK}")
    sink.write_bits_lsb(1 if final else 0, 1)
    sink.write_bits_lsb(BlockType.STORED, 2)
    sink.align_to_byte()
    sink.write_bits_lsb(len(data), 16)
    sink.write_bits_lsb(len(data) ^ 0xFFFF, 16)
    sink.write_bytes_aligned(data)
    return sink


def _static_cost_bits(tokens) -> int:
    """Exact payload size of write_static_block, excluding the 3 header bits."""
    lits, lens = _LIT_CODES, _LENGTH_CODES
    bits = 0
    for t in tokens:
        tt = type(t)
        if tt is Literal:
            bits += lits[t.value][1]
        elif tt is BackRef:
            bits += lens[t.length][1] + 5 + DISTANCE_CODES[DISTANCE_CODEPOINT[t.distance]][0]
        else:
            bits += lits[256][1]
    return bits


def _stored_cost_bits(span: int) -> int:
    """Worst-case size of storing span bytes, excluding the first header."""
    chunks = max(1, -(-span // MAX_STORED_BLOCK))
    # Per chunk: up to 7 alignment bits after the 3-bit header, then
    # LEN/NLEN and the payload; later chunks repeat the 3-bit header.
    return chunks * (7 + 32) + (chunks - 1) * 3 + 8 * span


def deflate(data: bytes, params: CompressParams = DEFAULT_PARAMS) -> bytes:
    """Compress data into a raw deflate stream (static/stored blocks)."""
    tokens = tokenize(data, params)
    sink = BitSink()
    n = len(data)
    start = 0
    # tokenize's blocks tile the input at params.block_payload_limit.
    for offset in range(0, n or 1, params.block_payload_limit):
        end = min(offset + params.block_payload_limit, n)
        index = start
        while tokens[index] is not END_OF_BLOCK:
            index += 1
        block = tokens[start : index + 1]
        final = end == n
        if _static_cost_bits(block) <= _stored_cost_bits(end - offset):
            write_static_block(block, final, sink)
        else:
            for chunk in range(offset, end, MAX_STORED_BLOCK):
                stop = min(chunk + MAX_STORED_BLOCK, end)
                write_stored_block(data[chunk:stop], final and stop == end, sink)
        start = index + 1
    return sink.to_bytes()
