"""Shared helpers: golden bit listings, bit packing, reference encoders, corpora.

The two golden listings below are transcriptions of a worked example of
the block formats: the same 20-byte string compressed once as a static
block and once as a dynamic block.  Spaces and line breaks are for
readability only; bits are packed in listing order, least significant
bit of each byte first.  Both transcriptions are cross-checked against
zlib in test_inflate.py before anything else relies on them.
"""

from __future__ import annotations

import random

from deflatekit.bitio import BitSink
from deflatekit.compress import (
    DEFAULT_PARAMS,
    MAX_STORED_BLOCK,
    CompressParams,
    write_static_block,
    write_stored_block,
)
from deflatekit.errors import ValueOutOfRange
from deflatekit.history_window import QueueOfDoom, resolve_tokens
from deflatekit.inflate import BlockType, NoParse, Parsed, iter_blocks
from deflatekit.symbol_tables import (
    END_OF_BLOCK,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
    WINDOW_SIZE,
    BackRef,
    EndOfBlock,
    Literal,
)

GOLDEN_PLAINTEXT = b"ananas_banana_batata"

# BFINAL=1, BTYPE=static, then each token under the fixed codings
# (codes written most significant bit first, extra bits least
# significant bit first), the end-of-block code, and byte padding.
GOLDEN_STATIC_LISTING = """
1 1 0
10010001 10011110 0000001 00001 10100011 10001111 10010010
0000011 00101 1 0000001 00101 0 10100100 0000001 00001
0000000
0000
"""

# The same tokens as a dynamic block: block header, HLIT/HDIST/HCLEN,
# code-length-code lengths, run-length-encoded code lengths for both
# codings, the payload, and byte padding.
GOLDEN_DYNAMIC_LISTING = """
1 0 1
11000 10100 0111
000 110 110 110 000 000 000 000 000
000 000 010 000 010 000 001 000 001
110 0010101 01 100 00 00 110 0000000 00 101 100 01 00
110 1111111 100 01 1111 100 01 100 1110 101 000 1110
010 100 00 0 1101 1100 011 1111 1 1 00 1 0 101 00 0 1110
0000000
"""


def listing_bits(listing: str) -> list[int]:
    """The 0/1 digits of a listing, in order."""
    return [int(c) for c in listing if c in "01"]


def pack_bits(listing: str) -> bytes:
    """Pack a bit listing into bytes, bit k going to byte k>>3, slot k&7."""
    bits = listing_bits(listing)
    out = bytearray((len(bits) + 7) // 8)
    for k, b in enumerate(bits):
        out[k >> 3] |= b << (k & 7)
    return bytes(out)


GOLDEN_STATIC_BYTES = pack_bits(GOLDEN_STATIC_LISTING)
GOLDEN_DYNAMIC_BYTES = pack_bits(GOLDEN_DYNAMIC_LISTING)

# Bits consumed by a parse that stops at the final block's last bit,
# i.e. everything except the byte-filling pad line.
GOLDEN_STATIC_CONSUMED = len(listing_bits(GOLDEN_STATIC_LISTING)) - 4
GOLDEN_DYNAMIC_CONSUMED = len(listing_bits(GOLDEN_DYNAMIC_LISTING)) - 7


def write_code_msb(sink: BitSink, code) -> None:
    """Append a code's bits leftmost first.

    The block writers emit a coding's ``stream_codes``, each code's bits
    already reversed into an LSB-first field; this writes the bit tuple
    itself, one bit at a time in reading order, as the independent check.
    """
    rev = 0
    for i, bit in enumerate(code):
        if bit not in (0, 1):
            raise ValueOutOfRange(f"code bit {bit!r} is not 0 or 1")
        rev |= bit << i
    sink.write_bits_lsb(rev, len(code))


def parse_deflate_queue(data: bytes, bit_pos: int = 0):
    """``parse_deflate`` on the paper's reference model.

    Folds the items of ``iter_blocks`` through the QueueOfDoom window
    (``resolve_tokens`` and ``push_bytes``) instead of the ring, and
    returns the same Parsed or NoParse as ``parse_deflate``.
    """
    window = QueueOfDoom()
    out = bytearray()
    end = bit_pos
    for header, item, end in iter_blocks(data, bit_pos):
        if isinstance(item, NoParse):
            return item
        if header.block_type is BlockType.STORED:
            window = window.push_bytes(item)
            out += item
        else:
            resolved, window = resolve_tokens(item, window)
            out += resolved
    return Parsed(bytes(out), end - bit_pos)


# -- reference greedy matcher ----------------------------------------------
#
# The hash-chain matcher as it stood before compress.tokenize inlined it:
# one find_match call per position over a HashChains object, with the
# match length taken byte by byte and no quick reject (neither changes
# which candidate wins).  It is the differential oracle for tokenize,
# which must produce the same tokens.

HASH_BITS = 15
_HASH_MASK = (1 << HASH_BITS) - 1
WINDOW_MASK = WINDOW_SIZE - 1
NO_POS = -WINDOW_SIZE - 1  # below pos - WINDOW_SIZE for every pos >= 0
_GOOD_MATCH = 8
_NICE_MATCH = 128
_SKIP_TRIGGER = 32
_SKIP_SHIFT = 5


def _hash3(b0: int, b1: int, b2: int) -> int:
    """Fold a three-byte group into a bucket index by shift-and-xor."""
    return ((b0 << 10) ^ (b1 << 5) ^ b2) & _HASH_MASK


class HashChains:
    """Hash chains over the positions already seen, as in zlib's deflate.c.

    ``head[key]`` is the newest position whose three-byte group hashes
    to key, and ``prev[pos & WINDOW_MASK]`` the next older position
    with the same key as pos, so following prev from head visits a
    key's positions newest first.  Slots hold NO_POS until filled.
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
    n = 0
    while n < limit and data[cand + n] == data[pos + n]:
        n += 1
    return n


def find_match(
    data: bytes,
    pos: int,
    chains: HashChains,
    params: CompressParams = DEFAULT_PARAMS,
    end: int | None = None,
):
    """Longest match for data[pos:end] among recent candidates, or None.

    Returns (length, distance) with length >= MIN_MATCH_LENGTH; among
    equally long matches the smallest distance wins.  At most
    params.max_chain candidates are examined, a quarter of that once a
    match of _GOOD_MATCH bytes is in hand, and a match of _NICE_MATCH
    bytes ends the search.
    """
    limit = min(MAX_MATCH_LENGTH, (len(data) if end is None else end) - pos)
    if limit < MIN_MATCH_LENGTH:
        return None
    cand = chains.head[_hash3(data[pos], data[pos + 1], data[pos + 2])]
    min_cand = pos - WINDOW_SIZE
    best_len = MIN_MATCH_LENGTH - 1
    best_dist = 0
    chain = params.max_chain
    good_cap = max(1, chain >> 2)
    nice_stop = min(_NICE_MATCH, limit)
    while cand >= min_cand:
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
        cand = chains.prev[cand & WINDOW_MASK]
    if best_dist:
        return best_len, best_dist
    return None


def reference_tokenize(
    data: bytes,
    params: CompressParams = DEFAULT_PARAMS,
    cap_at_block_end: bool = True,
    skip: bool = True,
) -> list:
    """Greedy token stream for data by find_match at each position.

    Every searched or matched position with a full three-byte group is
    inserted into the chains.  With cap_at_block_end, as in tokenize, a
    match stops at its block's end, so every block but the last covers
    exactly params.block_payload_limit source bytes.  Without it, a
    match may run on to the end of the input, and a block closes after
    the token that reaches the limit.

    With skip, as in tokenize, a miss at a searched position (one with
    room for a match before the block's end) counts; from the 32nd miss
    in a row on, each miss lets the next ``misses >> 5`` bytes, up to the
    block's last searched position, pass as literals that are neither
    searched nor inserted.  A match resets the count.
    """
    tokens = []
    chains = HashChains()
    n = len(data)
    i = 0
    misses = 0
    block_end = min(params.block_payload_limit, n)
    while i < n:
        m = find_match(data, i, chains, params, block_end if cap_at_block_end else n)
        step = m[0] if m else 1
        tokens.append(BackRef(*m) if m else Literal(data[i]))
        for j in range(i, min(i + step, n - 2)):
            chains.insert(_hash3(data[j], data[j + 1], data[j + 2]), j)
        last_search = block_end - MIN_MATCH_LENGTH
        searched = i <= last_search
        i += step
        if m:
            misses = 0
        elif skip and searched:
            misses += 1
            if misses >= _SKIP_TRIGGER:
                stop = min(i + (misses >> _SKIP_SHIFT), last_search + 1)
                tokens.extend(Literal(b) for b in data[i:stop])
                i = stop
        if i >= block_end and i < n:
            tokens.append(END_OF_BLOCK)
            block_end = min(i + params.block_payload_limit, n)
    tokens.append(END_OF_BLOCK)
    return tokens


def reference_deflate(data: bytes, params: CompressParams = DEFAULT_PARAMS) -> bytes:
    """A frozen copy of ``deflate``: reference_tokenize's tokens, with
    matches free to run past a block's limit, in the same blocks, each
    written static or stored by the same rule.

    A block is written static when that takes no more bits than storing
    its bytes in 65535-byte chunks at worst-case alignment.  The
    decoder's pinned parse digest is built with it, so a change to the
    live encoder's tokens leaves that digest alone.
    """
    tokens = reference_tokenize(data, params, cap_at_block_end=False, skip=False)
    sink = BitSink()
    start = offset = 0
    for index, t in enumerate(tokens):
        if type(t) is not EndOfBlock:
            continue
        block = tokens[start : index + 1]
        final = index == len(tokens) - 1
        span = sum(1 if type(x) is Literal else x.length for x in block[:-1])
        end = offset + span
        chunks = max(1, -(-span // MAX_STORED_BLOCK))
        stored_bits = chunks * (3 + 7 + 32) + 8 * span
        if write_static_block(block, final, BitSink()).bit_length <= stored_bits:
            write_static_block(block, final, sink)
        else:
            for chunk in range(offset, end, MAX_STORED_BLOCK):
                stop = min(chunk + MAX_STORED_BLOCK, end)
                write_stored_block(data[chunk:stop], final and stop == end, sink)
        start, offset = index + 1, end
    return sink.to_bytes()


def random_code_lengths(rng: random.Random, max_alphabet: int = 300, max_len: int = 15):
    """A random Kraft-feasible length vector.

    Lengths are drawn against a randomly sized slice of the code space
    (sometimes the whole of it, topped up to exact saturation), then
    shuffled over the alphabet with zero padding, so the corpus covers
    sparse, dense, and exactly saturated codings.
    """
    full = 1 << max_len  # whole code space in units of 2^-max_len
    saturate = rng.random() < 0.4
    if saturate:
        # Leave room for the top-up codes (at most one per set bit).
        alphabet = rng.randrange(1, max_alphabet - max_len)
        capacity = full
    else:
        alphabet = rng.randrange(1, max_alphabet + 1)
        capacity = rng.randrange(0, full + 1)
    lengths = []
    for _ in range(alphabet):
        if capacity <= 0 or rng.random() < 0.2:
            lengths.append(0)
            continue
        weight = 1 << (max_len - 1)  # cost of a length-1 code
        length = 1
        # Randomly walk down to an affordable, usually longer, length.
        while weight > capacity or (length < max_len and rng.random() < 0.55):
            weight >>= 1
            length += 1
        lengths.append(length)
        capacity -= weight
    while saturate and capacity > 0:
        # Spend the exact remainder, largest affordable code first.
        length = max_len
        weight = 1
        while length > 1 and weight * 2 <= capacity:
            weight <<= 1
            length -= 1
        lengths.append(length)
        capacity -= weight
    rng.shuffle(lengths)
    return lengths


_WORDS = (
    "the of and a to in is was he for it with as his on be at by had".split()
    + "not are but from or have an they which one you were her all she".split()
    + "there would their we him been has when who will more no if out".split()
    + "so said what up its about into than them can only other new some".split()
    + "time could these two may then do first any my now such like our".split()
    + "over man me even most made after also did many before must through".split()
)


def english_text(size: int, seed: int = 2026) -> bytes:
    """Deterministic English-like prose of about ``size`` bytes."""
    rng = random.Random(seed)
    words = _WORDS
    weights = [1.0 / (i + 1) for i in range(len(words))]
    out = []
    total = 0
    while total < size:
        sentence_words = rng.choices(words, weights=weights, k=rng.randrange(5, 16))
        sentence_words[0] = sentence_words[0].capitalize()
        sentence = " ".join(sentence_words) + ". "
        if rng.random() < 0.08:
            sentence += "\n\n"
        out.append(sentence)
        total += len(sentence)
    return "".join(out).encode("ascii")[:size]


def log_text(size: int, seed: int = 1) -> bytes:
    """Deterministic log-like text of exactly ``size`` bytes."""
    rng = random.Random(seed)
    levels = [b"INFO", b"WARN", b"DEBUG", b"ERROR"]
    subsystems = [b"scheduler", b"netlink", b"cache", b"indexer", b"storage", b"auth"]
    verbs = [b"started", b"finished", b"retrying", b"accepted", b"rejected", b"flushed"]
    lines = []
    total = 0
    t = 0
    while total < size:
        t += rng.randrange(1, 30)
        line = b"2026-08-14T%02d:%02d:%02d %s %s: task %d %s in %d ms\n" % (
            (t // 3600) % 24,
            (t // 60) % 60,
            t % 60,
            rng.choice(levels),
            rng.choice(subsystems),
            rng.randrange(10000),
            rng.choice(verbs),
            rng.randrange(500),
        )
        lines.append(line)
        total += len(line)
    return b"".join(lines)[:size]


def mixed_corpus_item(rng: random.Random, size: int) -> bytes:
    """One input drawn from the uniform/periodic/text-like mix."""
    kind = rng.randrange(3)
    if size == 0:
        return b""
    if kind == 0:
        return rng.randbytes(size)
    if kind == 1:
        period = rng.randrange(1, min(size, 97) + 1)
        unit = rng.randbytes(period)
        return (unit * (size // period + 1))[:size]
    alphabet = b"etaoin shrdlu\n"
    return bytes(rng.choices(alphabet, k=size))


# -- acceptance reporting -------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
