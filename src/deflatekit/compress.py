"""Greedy LZ77 tokenizer and deflate block writer.

The tokenizer scans left to right, hashing every three-byte group into
zlib-style hash chains (RFC 1951 section 4).  At each position it takes
the longest match among the most recent candidates (ties to the
smallest distance, i.e. the first candidate examined) or falls back to
a literal.  Positions covered by an emitted match are still hashed so
later matches can start inside them.

Blocks are encoded with the fixed codings only; when that would come
out larger than simply storing the bytes (e.g. on incompressible
input), stored blocks are written instead.  The choice is per block, so
output never exceeds the input by more than the stored-block framing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitSink
from .errors import ValueOutOfRange
from .history_window import BackRef, END_OF_BLOCK, EndOfBlock, Literal, WINDOW_SIZE
from .prefix_coding import fixed_dist_coding, fixed_lit_coding
from .symbol_tables import (
    DISTANCE_CODEPOINT,
    DISTANCE_CODES,
    LENGTH_ENCODING,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
)

BTYPE_STORED = 0
BTYPE_STATIC = 1

MAX_STORED_BLOCK = 65535
HASH_BITS = 15
_HASH_MASK = (1 << HASH_BITS) - 1
WINDOW_MASK = WINDOW_SIZE - 1
NO_POS = -WINDOW_SIZE - 1  # below pos - WINDOW_SIZE for every pos >= 0


@dataclass(frozen=True)
class CompressParams:
    """Tuning knobs; defaults favour speed over the last few percent."""

    max_chain: int = 128  # candidates examined per position
    # Source bytes per block; a multiple of MAX_STORED_BLOCK, so that a
    # stored fallback's chunks tile the input as if it were one block.
    block_payload_limit: int = 16 * MAX_STORED_BLOCK

    def __post_init__(self):
        if self.max_chain < 1:
            raise ValueOutOfRange("max_chain must be at least 1")
        if self.block_payload_limit < 1:
            raise ValueOutOfRange("block_payload_limit must be at least 1")


DEFAULT_PARAMS = CompressParams()


def _hash3(b0: int, b1: int, b2: int) -> int:
    """Fold a three-byte group into a bucket index by shift-and-xor."""
    return ((b0 << 10) ^ (b1 << 5) ^ b2) & _HASH_MASK


class HashChains:
    """Hash chains over the positions already seen, as in zlib's deflate.c.

    ``head[key]`` is the newest position whose three-byte group hashes
    to key, and ``prev[pos & WINDOW_MASK]`` the next older position
    with the same key as pos, so following prev from head visits a
    key's positions newest first.  Slots hold NO_POS until filled.

    Positions are inserted in increasing order, and a search from pos
    runs before pos is inserted.  A prev slot is reused only when the
    position WINDOW_SIZE later is inserted, so every candidate inside
    the window still links to its true predecessor.
    """

    __slots__ = ("head", "prev")

    def __init__(self):
        self.head = [NO_POS] * (1 << HASH_BITS)
        self.prev = [NO_POS] * WINDOW_SIZE

    def insert(self, key: int, pos: int) -> None:
        self.prev[pos & WINDOW_MASK] = self.head[key]
        self.head[key] = pos


def _match_length(data: bytes, cand: int, pos: int, limit: int) -> int:
    """Longest common prefix of data[cand:] and data[pos:], capped at limit."""
    if data[cand : cand + limit] == data[pos : pos + limit]:
        return limit
    n = 0
    while limit - n >= 16 and data[cand + n : cand + n + 16] == data[pos + n : pos + n + 16]:
        n += 16
    while n < limit and data[cand + n] == data[pos + n]:
        n += 1
    return n


# Search-effort heuristics, within the "at most max_chain examined"
# budget: a match of _GOOD_MATCH bytes shrinks the remaining budget to a
# quarter, and one of _NICE_MATCH bytes is taken without further search.
_GOOD_MATCH = 8
_NICE_MATCH = 128


def find_match(
    data: bytes, pos: int, chains: HashChains, params: CompressParams = DEFAULT_PARAMS
):
    """Longest match for data[pos:] among recent candidates, or None.

    Returns (length, distance) with length >= MIN_MATCH_LENGTH.  Among
    equally long matches the smallest distance wins.  At most
    params.max_chain candidates are examined, fewer once a good match
    is in hand.
    """
    avail = len(data) - pos
    limit = MAX_MATCH_LENGTH
    if limit > avail:
        limit = avail
    if limit < MIN_MATCH_LENGTH:
        return None
    cand = chains.head[_hash3(data[pos], data[pos + 1], data[pos + 2])]
    min_cand = pos - WINDOW_SIZE
    if cand < min_cand:
        return None  # even the newest candidate is beyond the window
    prev = chains.prev
    # Starting best_len one short of MIN_MATCH_LENGTH arms the one-byte
    # reject below from the first candidate: anything it skips could
    # match at most MIN_MATCH_LENGTH - 1 bytes and so could never become
    # the best.
    best_len = MIN_MATCH_LENGTH - 1
    best_dist = 0
    chain = params.max_chain
    good_cap = max(1, chain >> 2)
    nice_stop = _NICE_MATCH if _NICE_MATCH < limit else limit
    while cand >= min_cand:
        if data[cand + best_len] == data[pos + best_len]:
            n = _match_length(data, cand, pos, limit)
            if n > best_len:
                best_len = n
                best_dist = pos - cand
                if n >= nice_stop:
                    break
                if n >= _GOOD_MATCH and chain > good_cap:
                    chain = good_cap
        chain -= 1
        if not chain:
            break
        cand = prev[cand & WINDOW_MASK]
    if best_dist:
        return best_len, best_dist
    return None


def tokenize(data: bytes, params: CompressParams = DEFAULT_PARAMS):
    """Greedy token stream for data; EndOfBlock closes every block.

    The hash chains persist across block boundaries, matching the
    decoder's window, which likewise never resets between blocks.
    """
    tokens = []
    chains = HashChains()
    # Inline of chains.insert: every input position passes through here.
    head = chains.head
    prev = chains.prev
    mask = _HASH_MASK
    n = len(data)
    last_hash = n - 3  # last position with a full three-byte group
    i = 0
    block_left = params.block_payload_limit
    while i < n:
        m = find_match(data, i, chains, params) if i <= last_hash else None
        if m is not None:
            length, dist = m
            tokens.append(BackRef(length, dist))
            stop = min(i + length, last_hash + 1)
            for j in range(i, stop):
                key = ((data[j] << 10) ^ (data[j + 1] << 5) ^ data[j + 2]) & mask
                prev[j & WINDOW_MASK] = head[key]
                head[key] = j
            i += length
            block_left -= length
        else:
            tokens.append(Literal(data[i]))
            if i <= last_hash:
                key = ((data[i] << 10) ^ (data[i + 1] << 5) ^ data[i + 2]) & mask
                prev[i & WINDOW_MASK] = head[key]
                head[key] = i
            i += 1
            block_left -= 1
        if block_left <= 0 and i < n:
            tokens.append(END_OF_BLOCK)
            block_left = params.block_payload_limit
    tokens.append(END_OF_BLOCK)
    return tokens


# -- block writers ------------------------------------------------------


def write_static_block(tokens, final: bool, sink: BitSink) -> BitSink:
    """Write one block under the fixed codings; returns the sink.

    ``tokens`` must contain exactly one EndOfBlock, as its last element.
    """
    tokens = list(tokens)
    if not tokens or type(tokens[-1]) is not EndOfBlock:
        raise ValueOutOfRange("block tokens must end with EndOfBlock")
    if any(type(t) is EndOfBlock for t in tokens[:-1]):
        raise ValueOutOfRange("EndOfBlock before the end of the block's tokens")
    lit_enc = fixed_lit_coding().stream_codes
    dist_enc = fixed_dist_coding().stream_codes
    write = sink.write_bits_lsb
    write(1 if final else 0, 1)
    write(BTYPE_STATIC, 2)
    for t in tokens[:-1]:
        if type(t) is Literal:
            rev, nb = lit_enc[t.value]
            write(rev, nb)
        elif type(t) is BackRef:
            cp, extra, ebits = LENGTH_ENCODING[t.length]
            rev, nb = lit_enc[cp]
            write(rev, nb)
            if ebits:
                write(extra, ebits)
            dcp = DISTANCE_CODEPOINT[t.distance]
            rev, nb = dist_enc[dcp]
            write(rev, nb)
            debits, dbase = DISTANCE_CODES[dcp]
            if debits:
                write(t.distance - dbase, debits)
        else:
            raise ValueOutOfRange(f"unknown token {t!r}")
    rev, nb = lit_enc[256]
    write(rev, nb)
    return sink


def write_stored_block(data: bytes, final: bool, sink: BitSink) -> BitSink:
    """Write one stored (uncompressed) block of at most 65535 bytes."""
    if len(data) > MAX_STORED_BLOCK:
        raise ValueOutOfRange(f"stored block of {len(data)} bytes exceeds {MAX_STORED_BLOCK}")
    sink.write_bits_lsb(1 if final else 0, 1)
    sink.write_bits_lsb(BTYPE_STORED, 2)
    sink.align_to_byte()
    sink.write_bits_lsb(len(data), 16)
    sink.write_bits_lsb(len(data) ^ 0xFFFF, 16)
    sink.write_bytes_aligned(data)
    return sink


def _static_cost_bits(tokens) -> int:
    """Exact payload size of write_static_block, excluding the 3 header bits."""
    lit_enc = fixed_lit_coding().stream_codes
    dist_enc = fixed_dist_coding().stream_codes
    bits = 0
    for t in tokens:
        if type(t) is Literal:
            bits += lit_enc[t.value][1]
        elif type(t) is BackRef:
            cp, _, ebits = LENGTH_ENCODING[t.length]
            bits += lit_enc[cp][1] + ebits
            dcp = DISTANCE_CODEPOINT[t.distance]
            bits += dist_enc[dcp][1] + DISTANCE_CODES[dcp][0]
        else:
            bits += lit_enc[256][1]
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
    blocks = []
    current = []
    for t in tokens:
        current.append(t)
        if type(t) is EndOfBlock:
            blocks.append(current)
            current = []
    sink = BitSink()
    offset = 0
    for bi, block in enumerate(blocks):
        final = bi == len(blocks) - 1
        span = sum(
            t.length if type(t) is BackRef else 1
            for t in block
            if type(t) is not EndOfBlock
        )
        if _static_cost_bits(block) <= _stored_cost_bits(span):
            write_static_block(block, final, sink)
        else:
            payload = data[offset : offset + span]
            for start in range(0, span, MAX_STORED_BLOCK):
                chunk = payload[start : start + MAX_STORED_BLOCK]
                write_stored_block(chunk, final and start + MAX_STORED_BLOCK >= span, sink)
        offset += span
    return sink.to_bytes()
