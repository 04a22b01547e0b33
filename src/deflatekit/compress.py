"""Greedy LZ77 tokenizer and deflate block writer.

``tokenize`` runs zlib's hash-chain search (``deflate.c``) inline: each
candidate is first rejected on the one byte at ``best_len``, then on its
first ``best_len + 1`` bytes, which it shares exactly when it beats the
best match so far.  Only those are extended: by one compare of the whole
possible match, else by a byte loop to the first difference.  The
longest match wins, ties to the smallest distance, else a shared
``Literal``.  After 32 searched positions in a row without a match it
skips ahead, as Snappy and LZ4 do (see ``tokenize``), so incompressible
input costs a few thousand searches per 96 KiB instead of one per byte.
A skipped run still costs one token-list slot per byte: one ``map`` pass
in C appends the shared ``LITERALS`` objects, through a list's bound
``__getitem__`` (a tuple's is a slot wrapper, nearly twice as slow).

No match runs past its record's end, so every ``tokenize`` record but the
last covers exactly ``block_payload_limit`` input bytes.  ``tokenize``
records each one's end and symbol counts (zlib's ``_tr_tally``), skipped
literals only in total.  ``deflate`` prices blocks from counts stored,
static (the fixed codings) and dynamic (codes built for the block, RFC
1951 section 3.2.7), each to the exact bit, and writes the smallest.  A
record whose static floor, 8 bits per skipped literal, exceeds storing it
is stored uncounted, unless a dynamic price of its sampled literals says
otherwise; any other is counted from its tokens in soft chunks of about
``CHUNK_BYTES``, which are merged by exact price (after zlib's
``_tr_flush_block`` and zopfli's cost-based block splitting), so one
record may be written as several blocks, and ``block_payload_limit`` is
the most one block covers.  A dynamic block is planned only where static
costs more than the least any dynamic block can (see ``_price``).  Its
code lengths are length-limited Huffman lengths (``huffman_lengths``), its
codes the canonical ones the decoder rebuilds from them
(``DeflateCoding``), and its plan (``_dynamic_plan``) builds and prices
its header once; the writer writes that header and refuses a token the
plan leaves uncoded.  One rule prices a static or dynamic body
(``_body_bits``), and one token writer ORs its codes and extra bits into
local ints for ``write_bits_lsb``, which emits whole bytes at once; the
stored writer calls it too.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, groupby
from math import inf, log2
from operator import add, mul

from .bitio import BitSink, byte_view
from .errors import ValueOutOfRange
from .prefix_coding import (
    FIXED_DIST,
    FIXED_LIT,
    MAX_CL_CODE_LENGTH,
    MAX_CODE_LENGTH,
    DeflateCoding,
)
from .record import Record
from .symbol_tables import (
    CL_CODE_ORDER,
    DISTANCE_CODEPOINT,
    DISTANCE_CODES,
    END_OF_BLOCK,
    LENGTH_CODES,
    LENGTH_ENCODING,
    LITERALS,
    MAX_MATCH_LENGTH,
    MIN_MATCH_LENGTH,
    REPEAT_CODES,
    WINDOW_SIZE,
    BackRef,
    BlockType,
    EndOfBlock,
    Literal,
)

MAX_STORED_BLOCK = 65535
HASH_BITS = 15
_HASH_MASK = (1 << HASH_BITS) - 1
WINDOW_MASK = WINDOW_SIZE - 1
NO_POS = -WINDOW_SIZE - 1  # below pos - WINDOW_SIZE for every pos >= 0


class CompressParams(Record, namedtuple("CompressParams", ("max_chain", "block_payload_limit"))):
    """Tuning knobs; defaults favour speed over the last few percent.

    ``max_chain`` is the number of candidates examined per position.
    ``block_payload_limit`` is the most source bytes one block may cover:
    ``tokenize`` ends a record every that many bytes, and ``deflate``
    writes a record as one block or as several shorter ones.  The default
    is a multiple of MAX_STORED_BLOCK, so that a stored fallback's chunks
    tile the input as if it were one block.
    Each must be an int, not a bool, of at least 1, else ValueOutOfRange.
    """

    __slots__ = ()

    def __new__(cls, max_chain: int = 128, block_payload_limit: int = 16 * MAX_STORED_BLOCK):
        for name, value in zip(cls._fields, (max_chain, block_payload_limit)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueOutOfRange(f"{name} must be an int, not {type(value).__name__}")
            if value < 1:
                raise ValueOutOfRange(f"{name} must be at least 1")
        return super().__new__(cls, max_chain, block_payload_limit)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__ and its checks.
        return cls(*iterable)


DEFAULT_PARAMS = CompressParams()


# Search-effort heuristics, within the "at most max_chain examined"
# budget: a match of _GOOD_MATCH bytes shrinks the remaining budget to a
# quarter, and one of _NICE_MATCH bytes is taken without further search.
_GOOD_MATCH = 8
_NICE_MATCH = 128

# Skip-ahead after a run of misses (see tokenize), after Snappy's
# bytes_between_hash_lookups and LZ4's skip trigger.
_SKIP_TRIGGER = 32
_SKIP_SHIFT = 5
# LITERALS as a list: its bound __getitem__ maps a skipped run at C speed.
_LITERAL_LIST = list(LITERALS)


def tokenize(data: bytes, params: CompressParams = DEFAULT_PARAMS, *, blocks=None):
    """Greedy token stream for data; EndOfBlock closes every block.

    At each position the longest match among the most recent
    candidates wins, ties going to the smallest distance; a match of
    fewer than MIN_MATCH_LENGTH bytes leaves a literal.  A match stops
    at its block's end, so every block but the last covers exactly
    params.block_payload_limit source bytes; ``deflate`` may write one of
    these blocks as several, none longer.  The hash chains persist
    across block boundaries, matching the decoder's window, which
    likewise never resets between blocks.

    Misses accelerate: once 32 searched positions in a row found no
    match, each further miss emits the next ``misses >> 5`` bytes as
    literals without searching them, then searches the position after
    them.  Skipped positions are not inserted into the hash chains.  A
    skip stops where the block's last search would be, the count
    carries across blocks, and any match resets it.  Each skipped byte b
    still takes one slot of the returned list, holding ``LITERALS[b]``
    itself, as every literal does.

    Each block appends ``(stop, lit, dist, skipped, end)`` to ``blocks``,
    if given: the index past its EndOfBlock, its counts of symbols 0..285
    and distance symbols 0..29 over all but its skipped literals, how
    many literals it skipped, and the index in ``data`` past its end.
    """
    data = byte_view(data)
    tokens = []
    append = tokens.append
    literals = _LITERAL_LIST
    # head[key]: newest position whose three-byte group hashes to key;
    # prev[pos & WINDOW_MASK]: the next older position with pos's key.
    head = [NO_POS] * (1 << HASH_BITS)
    n = len(data)
    prev = [NO_POS] * min(n, WINDOW_SIZE)  # every pos < n, so n slots hold a short input
    max_chain = params.max_chain
    good_cap = max(1, max_chain >> 2)
    block_limit = params.block_payload_limit
    last_hash = n - 3  # last position with a full three-byte group
    # Rolled: the key of i is ((key of i - 1) << 5 ^ data[i + 2]) & mask.
    key = (data[0] << 5) ^ data[1] if n >= 3 else 0
    misses = 0  # searched positions since the last match
    i = 0
    while True:
        lit_counts = [0] * 256 + [1] + [0] * 29
        dist_counts = [0] * 30
        skipped = 0
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
                            # One compare takes a whole match: runs are 1.48x slower without it.
                            if data[cand : cand + limit] == data[i : i + limit]:
                                k = limit
                            else:  # it stops short of limit, so this loop is bounded
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
                misses = 0
                append(BackRef(best_len, best_dist))
                lit_counts[LENGTH_ENCODING[best_len][0]] += 1
                dist_counts[DISTANCE_CODEPOINT[best_dist]] += 1
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
                lit_counts[data[i]] += 1
                i += 1
                misses += 1
                if misses >= _SKIP_TRIGGER:
                    stop = i + (misses >> _SKIP_SHIFT)
                    if stop > last_search + 1:
                        stop = last_search + 1
                    tokens.extend(map(literals.__getitem__, data[i:stop]))
                    skipped += stop - i
                    i = stop
                    # The rolled key skipped these bytes too: start over at i.
                    if i <= last_hash:
                        key = (data[i] << 5) ^ data[i + 1]
        # The block's last one or two bytes (all of a block shorter than
        # a match) are literals; those that start a three-byte group
        # still enter the chains.
        while i < block_end:
            if i <= last_hash:
                key = ((key << 5) ^ data[i + 2]) & _HASH_MASK
                prev[i & WINDOW_MASK] = head[key]
                head[key] = i
            append(literals[data[i]])
            lit_counts[data[i]] += 1
            i += 1
        append(END_OF_BLOCK)
        if blocks is not None:
            blocks.append((len(tokens), lit_counts, dist_counts, skipped, i))
        if i == n:
            return tokens


# -- block writers ------------------------------------------------------


def _code_tables(lit, dist):
    """What the token loop ORs in under the codings ``lit`` and ``dist``: per
    literal/length symbol its stream code, per match length its code with
    the extra bits above it, and per distance symbol (code, width, extra
    bits, base distance); None for a symbol its coding leaves uncoded."""
    lits = tuple(code if code[1] else None for code in lit.stream_codes)
    lens = (None,) * MIN_MATCH_LENGTH + tuple(
        lits[cp] and (lits[cp][0] | extra << lits[cp][1], lits[cp][1] + ebits)
        for cp, extra, ebits in LENGTH_ENCODING[MIN_MATCH_LENGTH:]
    )
    dists = tuple(c + spec if c[1] else None for c, spec in zip(dist.stream_codes, DISTANCE_CODES))
    return lits, lens, dists


_STATIC_TABLES = _code_tables(FIXED_LIT, FIXED_DIST)
# Extra bits of length symbols 257..285 and of distance symbols 0..29.
_LENGTH_EXTRA = [ebits for ebits, _ in LENGTH_CODES]
# Length/literal symbol of each match length 3..258.
_LENGTH_SYMBOL = [entry and entry[0] for entry in LENGTH_ENCODING]
_DIST_EXTRA = [ebits for ebits, _ in DISTANCE_CODES]
_WRITE_RUN = 64  # tokens per accumulator, so it stays a small int


def _write_block(tokens, final: bool, sink: BitSink, block_type, tables, header=(0, 0)) -> BitSink:
    """Write the 3-bit block header with the (bits, width) ``header`` field,
    then ``tokens`` (as for write_static_block) and the end-of-block code
    under ``_code_tables``, refusing a symbol they map to None; returns the sink."""
    body = list(tokens)
    if not body or type(body.pop()) is not EndOfBlock:
        raise ValueOutOfRange("block tokens must end with EndOfBlock")
    lits, lens, dists = tables
    acc, fill = header
    fields = [((1 if final else 0) | block_type << 1 | acc << 3, 3 + fill)]
    try:
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
                    code, nb, dbits, base = dists[DISTANCE_CODEPOINT[d]]
                    acc |= (code | (d - base) << nb) << fill
                    fill += nb + dbits
                else:
                    raise ValueOutOfRange(
                        f"{t!r} before the block's end is not a Literal or BackRef")
            fields.append((acc, fill))
        code, nb = lits[256]
    except TypeError:  # from unpacking a table's None
        raise ValueOutOfRange("a symbol of the block has no code in its codings") from None
    fields.append((code, nb))
    write = sink.write_bits_lsb
    for acc, fill in fields:
        write(acc, fill)
    return sink


def write_static_block(tokens, final: bool, sink: BitSink) -> BitSink:
    """Write one block under the fixed codings; returns the sink.

    ``tokens`` must contain exactly one EndOfBlock, as its last element;
    the sink is touched only once the whole block has been coded.
    """
    return _write_block(tokens, final, sink, BlockType.STATIC, _STATIC_TABLES)


def write_stored_block(data: bytes, final: bool, sink: BitSink) -> BitSink:
    """Write one stored (uncompressed) block of at most 65535 bytes."""
    data = byte_view(data)
    if len(data) > MAX_STORED_BLOCK:
        raise ValueOutOfRange(f"stored block of {len(data)} bytes exceeds {MAX_STORED_BLOCK}")
    sink.write_bits_lsb((1 if final else 0) | BlockType.STORED << 1, 3)
    sink.align_to_byte()
    sink.write_bits_lsb(len(data) | (len(data) ^ 0xFFFF) << 16, 32)
    sink.write_bytes_aligned(data)
    return sink


# -- dynamic blocks ------------------------------------------------------


def huffman_lengths(counts, max_len: int) -> list[int]:
    """Code lengths of at most max_len bits for symbol counts; 0 for an unused symbol.

    As zlib's ``build_tree`` does, a coding gets at least two codes: when
    fewer than two symbols are used, the lowest unused ones join them.
    Raises ValueOutOfRange when max_len bits cannot code that many
    symbols.  Huffman's construction runs on two queues (van Leeuwen):
    the used symbols by rising count, and the merged trees in the order
    they are made, which is by rising weight too; a tie takes the
    symbol first, which keeps the tree shallow.  It runs in place on one
    list of weights (Moffat and Katajainen): a merged tree's slot takes
    its weight, then its parent's index, then its depth, and a last pass
    counts the leaves at each depth from the internal nodes per level.
    Leaves deeper than max_len are lifted to it; then,
    while the Kraft sum exceeds 1, a leaf above max_len moves down one
    level and a leaf at max_len becomes its sibling, which lowers the
    sum by 2**-max_len (zlib ``gen_bitlen``'s overflow repair).  The
    lengths go to the symbols by falling count, ties to the lower
    symbol, so the code is complete: its Kraft sum is exactly 1.
    """
    if len(counts) < 2:
        raise ValueOutOfRange("a coding of at least two codes needs two symbols")
    used = list(compress(range(len(counts)), counts))
    if len(used) < 2:
        used += [s for s in (0, 1) if s not in used][: 2 - len(used)]
    n = len(used)
    if max_len < 1 or n > 1 << max_len:
        raise ValueOutOfRange(f"max_len {max_len} cannot code {n} symbols")
    # Most frequent first; the sort is stable, so ties keep the lower symbol first.
    order = sorted(used, key=counts.__getitem__, reverse=True)
    a = [counts[s] for s in reversed(order)]
    # Leaves are a[leaf:], trees a[root:merged]; tree `merged` goes to a[merged].
    a[0] += a[1]
    root, leaf = 0, 2
    for merged in range(1, n - 1):
        weight = 0
        for _ in range(2):
            # The lighter of the next leaf and the next tree made, the leaf on a tie.
            if leaf < n and (root == merged or a[leaf] <= a[root]):
                weight += a[leaf]
                leaf += 1
            else:
                weight += a[root]
                a[root] = merged
                root += 1
        a[merged] = weight
    # Depth of each tree: its parent's plus one; the root, a[n - 2], is at 0.
    a[n - 2] = 0
    for k in range(n - 3, -1, -1):
        a[k] = a[a[k]] + 1
    bl_count = [0] * (max_len + 1)
    nodes, depth, k = 1, 0, n - 2  # nodes at depth, and the next tree by depth
    while nodes:
        trees = 0
        while k >= 0 and a[k] == depth:
            trees += 1
            k -= 1
        bl_count[min(depth, max_len)] += nodes - trees
        nodes, depth = 2 * trees, depth + 1
    excess = sum(c << (max_len - l) for l, c in enumerate(bl_count)) - (1 << max_len)
    while excess > 0:
        bits = max_len - 1
        while not bl_count[bits]:
            bits -= 1
        bl_count[bits] -= 1
        bl_count[bits + 1] += 2
        bl_count[max_len] -= 1
        excess -= 1
    lengths = [0] * len(counts)
    for s, length in zip(order, (l for l, c in enumerate(bl_count) for _ in range(c))):
        lengths[s] = length
    return lengths


def _rle_lengths(lengths) -> list[tuple[int, int]]:
    """The (symbol, extra) pairs that inflate's ``_rle_code_lengths`` expands to lengths.

    A zero run takes symbol 18, then 17, as long as it fills their
    ``REPEAT_CODES`` base count; a nonzero length is written once, then
    repeated by 16 likewise.  Shorter remainders are written as they are.
    """
    out = []
    for length, group in groupby(lengths):
        run = len(list(group))
        if run < (4 if length else 3):  # too short to repeat
            out += [(length, 0)] * run
            continue
        if length:
            out.append((length, 0))
            run -= 1
        for sym in (16,) if length else (18, 17):
            width, base = REPEAT_CODES[sym - 16]
            while run >= base:
                k = min(run, base + (1 << width) - 1)
                out.append((sym, k - base))
                run -= k
        out += [(length, 0)] * run
    return out


def _body_bits(lit, dist, lit_lengths, dist_lengths) -> int:
    """Bits of a block's codes and extra bits for its symbol counts under these lengths."""
    return (
        sum(map(mul, lit, lit_lengths))
        + sum(map(mul, lit[257:], _LENGTH_EXTRA))
        + sum(map(mul, dist, dist_lengths))
        + sum(map(mul, dist, _DIST_EXTRA))
    )


def _dynamic_plan(lit, dist):
    """A dynamic block's header and code lengths for symbol counts, and its exact size.

    ``lit`` holds the counts of literal/length symbols 0..285 and
    ``dist`` those of distance symbols 0..29, each over the whole block.
    Returns ``(bits, header, lit_lengths, dist_lengths)``: the bits
    write_dynamic_block writes after the 3-bit block header; the
    (bits, width) field that follows it: HLIT, HDIST, HCLEN, the first
    HCLEN code-length lengths in CL_CODE_ORDER, and the first HLIT and
    HDIST lengths run-length coded under the code-length coding; and
    the literal/length and distance codings' lengths.
    """
    lit_lengths = huffman_lengths(lit, MAX_CODE_LENGTH)
    dist_lengths = huffman_lengths(dist, MAX_CODE_LENGTH)
    hlit = max(257, 1 + max(compress(range(286), lit_lengths)))
    hdist = 1 + max(compress(range(30), dist_lengths))
    runs = _rle_lengths(lit_lengths[:hlit] + dist_lengths[:hdist])
    cl_counts = [0] * 19
    for sym, _ in runs:
        cl_counts[sym] += 1
    cl_lengths = huffman_lengths(cl_counts, MAX_CL_CODE_LENGTH)
    cl_codes = DeflateCoding(cl_lengths, MAX_CL_CODE_LENGTH).stream_codes
    # The code-length lengths as 3-bit fields in CL_CODE_ORDER, trailing
    # zeros trimmed; a length 1..15 is always coded (the end of block has
    # one), and each sits past the first four, so HCLEN >= 5.
    cl_field = sum(cl_lengths[sym] << 3 * i for i, sym in enumerate(CL_CODE_ORDER))
    hclen = -(-cl_field.bit_length() // 3)
    acc = (hlit - 257) | (hdist - 1) << 5 | (hclen - 4) << 10 | cl_field << 14
    fill = 14 + 3 * hclen
    for sym, extra in runs:
        code, nb = cl_codes[sym]
        acc |= (code | extra << nb) << fill
        fill += nb + (REPEAT_CODES[sym - 16][0] if sym > 15 else 0)
    bits = fill + _body_bits(lit, dist, lit_lengths, dist_lengths)
    return bits, (acc, fill), lit_lengths, dist_lengths


def write_dynamic_block(tokens, final: bool, sink: BitSink, plan) -> BitSink:
    """Write one block under codings built for its own symbol counts; returns the sink.

    ``tokens`` are as for write_static_block, and ``plan`` is
    ``_dynamic_plan`` of their symbol counts.  It writes the plan's
    header field, and codes from the plan's lengths (``DeflateCoding``,
    as the decoder rebuilds them from that header); a token they leave
    uncoded raises ValueOutOfRange, sink untouched.
    """
    _, header, lit_lengths, dist_lengths = plan
    tables = _code_tables(DeflateCoding(lit_lengths), DeflateCoding(dist_lengths))
    return _write_block(tokens, final, sink, BlockType.DYNAMIC, tables, header)


# -- block choice --------------------------------------------------------


def _static_cost_bits(lit, dist) -> int:
    """Exact payload size of write_static_block for a block of these
    symbol counts (as for _dynamic_plan), excluding the 3 header bits."""
    return _body_bits(lit, dist, FIXED_LIT.lengths, FIXED_DIST.lengths)


def _stored_cost_bits(span: int, bit_pos: int) -> int:
    """Exact size of storing span bytes from bit_pos on, excluding the first header."""
    chunks = max(1, -(-span // MAX_STORED_BLOCK))
    # The first chunk pads its 3-bit header to a byte; each later one
    # starts on a byte, so its header takes 3 + 5 bits.  Then LEN/NLEN.
    return -(bit_pos + 3) % 8 + 32 + (chunks - 1) * (8 + 32) + 8 * span


# Soft chunk size: deflate weighs a block boundary after the first token
# boundary at or past this many bytes from the last one (see _chunks).
CHUNK_BYTES = 8192


def _sampled_bits(lit, dist, skipped) -> int:
    """_dynamic_plan's price of a block's counts with its searched
    literals' counts scaled up to all its literals, the skipped ones too."""
    searched = sum(lit[:256])  # at least one: a skip follows a searched miss
    total = searched + skipped
    return _dynamic_plan([c * total // searched for c in lit[:256]] + lit[256:], dist)[0]


def _chunks(tokens, start: int, stop: int, offset: int, end: int) -> list:
    """Cut the block tokens[start:stop], which covers data[offset:end], into soft chunks.

    A chunk ends after the first token that reaches the next multiple of
    CHUNK_BYTES past ``offset``, so no token is split; a block shorter
    than twice CHUNK_BYTES is one chunk.  Each chunk is ``[stop, lit,
    dist, end]``: the index past its last token (the block's EndOfBlock
    excluded), its counts of every symbol, with one end of block, and the
    index in data past its last byte.
    """
    chunks = []
    lit, dist = [0] * 256 + [1] + [0] * 29, [0] * 30
    pos = offset
    cut = offset + CHUNK_BYTES if end - offset >= 2 * CHUNK_BYTES else end
    length_symbol, distance_symbol = _LENGTH_SYMBOL, DISTANCE_CODEPOINT
    for k in range(start, stop - 1):
        t = tokens[k]
        if type(t) is Literal:
            lit[t.value] += 1
            pos += 1
        else:
            lit[length_symbol[t.length]] += 1
            dist[distance_symbol[t.distance]] += 1
            pos += t.length
        if pos >= cut and pos < end:
            chunks.append([k + 1, lit, dist, pos])
            lit, dist = [0] * 256 + [1] + [0] * 29, [0] * 30
            cut += CHUNK_BYTES  # a token is shorter than a chunk: pos < cut again
    chunks.append([stop - 1, lit, dist, end])
    return chunks


def _dynamic_floor(lit, dist) -> float:
    """Bits no dynamic block of these counts can undercut, after its 3-bit header.

    Its header pays 14 bits of HLIT/HDIST/HCLEN, 5 * 3 of code-length
    lengths (the end of block's sits past CL_CODE_ORDER's first four) and
    258 * 8/138 > 14 for its lengths (symbol 18, the cheapest per length:
    1+ code bits and 7 extra for at most 138).  Each coding's codes then
    take at least a bit per symbol, and at least the counts' entropy, which
    no prefix code undercuts (Kraft-McMillan); the extra bits are as
    static pays them.  One bit comes off for the float entropy's rounding.
    """
    bits = 43 + sum(map(mul, lit[257:], _LENGTH_EXTRA)) + sum(map(mul, dist, _DIST_EXTRA))
    for counts in (lit, dist):
        used = list(filter(None, counts))
        n = sum(used)
        if n:
            bits += max(n, n * log2(n) - sum(map(mul, used, map(log2, used))))
    return bits


def _price(lit, dist, limit=inf):
    """(bits, plan) of the cheaper of a static and a dynamic block of these
    counts, after the 3-bit header; plan is None when static is no dearer.
    A dynamic block is planned only when static exceeds the least it can
    cost (``_dynamic_floor``), and that floor is at most ``limit``: above
    it, the static price stands for a price known to exceed ``limit``."""
    static = _static_cost_bits(lit, dist)
    floor = _dynamic_floor(lit, dist)
    if floor < static and floor <= limit:
        plan = _dynamic_plan(lit, dist)
        if plan[0] < static:
            return plan[0], plan
    return static, None


def _merge(chunks) -> list:
    """Merge chunks greedily into blocks: the next chunk joins the block
    before it when their merged counts price no dearer than the two apart.
    Each block is ``[stop, lit, dist, end, (bits, plan)]``."""
    blocks = []
    for stop, lit, dist, end in chunks:
        priced = _price(lit, dist)
        if blocks:
            last = blocks[-1]
            merged_lit = list(map(add, last[1], lit))
            merged_lit[256] = 1
            merged_dist = list(map(add, last[2], dist))
            apart = last[4][0] + priced[0]
            merged = _price(merged_lit, merged_dist, apart)
            if merged[0] <= apart:
                blocks[-1] = [stop, merged_lit, merged_dist, end, merged]
                continue
        blocks.append([stop, lit, dist, end, priced])
    return blocks


def _written_bits(blocks, offset: int, bit_pos: int) -> int:
    """Exact bits of writing blocks from bit_pos on, each the cheaper of
    its price and storing its bytes, which starts at ``offset``."""
    pos = bit_pos
    for _, _, _, end, (bits, _) in blocks:
        pos += 3 + min(bits, _stored_cost_bits(end - offset, pos))
        offset = end
    return pos - bit_pos


def _write_stored(data, offset: int, end: int, final: bool, sink: BitSink) -> None:
    """Store data[offset:end] in as many blocks as MAX_STORED_BLOCK needs."""
    for chunk in range(offset, end, MAX_STORED_BLOCK):
        chunk_end = min(chunk + MAX_STORED_BLOCK, end)
        write_stored_block(data[chunk:chunk_end], final and chunk_end == end, sink)


def deflate(data: bytes, params: CompressParams = DEFAULT_PARAMS) -> bytes:
    """Compress data into a raw deflate stream, each block stored, static or
    dynamic, whichever is smallest by exact size; a tie goes to static,
    then to stored.

    Each tokenize record spans at most ``block_payload_limit`` bytes.  One
    with skipped literals whose static floor, 8 bits per skipped literal,
    exceeds storing it is stored uncounted, unless its sampled dynamic
    price (``_sampled_bits``) is below 49/50 of storing it.  Any other is
    counted from its tokens in soft chunks (``_chunks``), and the chunks
    are merged by exact price (``_merge``).  When the merged blocks cost
    fewer bits than the record written as one block, from the same bit,
    they are written; otherwise the one block is, as a record shorter
    than two chunks always is.  A dynamic block is planned only when
    static exceeds the least it can cost (see ``_price``).
    """
    data = byte_view(data)
    records = []
    tokens = tokenize(data, params, blocks=records)
    sink = BitSink()
    n = len(data)
    start = offset = 0
    for stop, lit, dist, skipped, end in records:
        final = end == n
        stored = _stored_cost_bits(end - offset, sink.bit_length)
        # Counted only when the sample prices it 2 % below storing: uniform
        # random bytes sample at 0.993 to 1.000 of their stored price.
        if (skipped and _static_cost_bits(lit, dist) + 8 * skipped > stored
                and 50 * _sampled_bits(lit, dist, skipped) >= 49 * stored):
            _write_stored(data, offset, end, final, sink)
            start, offset = stop, end
            continue
        chunks = _chunks(tokens, start, stop, offset, end)
        blocks = _merge(chunks)
        if len(blocks) > 1:
            lit = list(map(sum, zip(*(chunk[1] for chunk in chunks))))
            lit[256] = 1
            dist = list(map(sum, zip(*(chunk[2] for chunk in chunks))))
            whole = [stop - 1, lit, dist, end, _price(lit, dist)]
            if _written_bits([whole], offset, sink.bit_length) <= _written_bits(
                    blocks, offset, sink.bit_length):
                blocks = [whole]
        first = start
        for last, _, _, block_end, (bits, plan) in blocks:
            block = tokens[first:last]
            block.append(END_OF_BLOCK)
            block_final = final and block_end == end
            stored = _stored_cost_bits(block_end - offset, sink.bit_length)
            if plan is not None and bits < stored:
                write_dynamic_block(block, block_final, sink, plan)
            elif plan is None and bits <= stored:
                write_static_block(block, block_final, sink)
            else:
                _write_stored(data, offset, block_end, block_final, sink)
            first, offset = last, block_end
        start = stop
    return sink.to_bytes()
