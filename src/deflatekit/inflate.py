"""Deflate stream parsing with explicit outcomes and consumption accounting.

The parsers work on a raw buffer and absolute bit position, reading
fields with ``bitio.read_bits``, and return (value, new position).  On
a malformed stream they, the bit reader and the prefix decoder all raise
``InflateError``, carrying the ``FailReason``, ``bit_pos`` and ``detail``
of its ``NoParse(reason, bit_pos, detail)``.  The public parsers
(``parse_block_header``, ``parse_stored_block``, ``parse_dynamic_header``,
``parse_deflate``) take ``(data, bit_pos=0)``, a buffer and an absolute
bit offset, an int in ``0..8 * len(data)``, and return a ParseOutcome:
``Parsed(value, consumed_bits)`` or that NoParse; a caller who parses
on starts at ``bit_pos + consumed_bits``.  Parsers read strictly
left to right and never look past the bits they consume, which gives
the layer two global properties:

* strong uniqueness: appending arbitrary bits to a parseable input
  changes neither the value nor the number of bits consumed;
* strong decidability: parsing is total, so every input either yields
  a value or a specific failure reason at a specific bit offset.

``iter_blocks`` is the one walk of the block grammar: block by block,
batch by batch, up to the final block's last bit.  It calls the public
parsers through ``_parsed``, which raises a NoParse as its error, so
every failure leaves the walk through one exit: a last item pairing the
NoParse with its block's header, or with None when a block header itself
failed.  ``parse_deflate`` folds it into one output buffer, a
``RingWindow`` (a bytearray) that persists across blocks (the format
never resets the history) and that ``resolve_tokens_ring`` copies
backreferences from by slices; ``dump-tokens`` prints the same items.
The tests hold that resolver to the paper's window model,
``history_window.resolve_tokens``.

A decode holds its output and one batch of at most ``_TOKEN_CHUNK``
tokens: neither the walk nor ``parse_deflate`` keeps a batch once it is
resolved, so the next batch is decoded with the last one already freed.
Its peak is the output buffer plus the ``bytes`` copy that ``Parsed``
returns, about twice the output, and one batch.
"""

from __future__ import annotations

from collections import namedtuple

from .bitio import byte_view, read_bits
from .errors import (
    DistanceTooFar,
    FailReason,
    InflateError,
    KraftViolation,
    ValueOutOfRange,
)
from .prefix_coding import (
    DeflateCoding,
    FIXED_DIST,
    FIXED_LIT,
    MAX_CL_CODE_LENGTH,
    MAX_CODE_LENGTH,
    build_coding,
)
from .record import Record
from .symbol_tables import (
    CL_CODE_ORDER,
    DISTANCE_CODES,
    END_OF_BLOCK,
    LENGTH_CODES,
    LITERALS,
    REPEAT_CODES,
    BackRef,
    BlockType,
    Literal,
)

# Tokens per batch.  A BackRef costs up to about 90 bytes (the object, its
# distance int and its list slot), so a batch of 4,096 tokens outweighed a
# 96 KiB output: its decode peaked at 0.71 MiB, against 0.20 MiB at 256.
# 256 decodes no slower than 512, 1,024 or 4,096.
_TOKEN_CHUNK = 256

_LENGTH_FIELDS = (None,) * 257 + tuple((w, b, (1 << w) - 1) for w, b in LENGTH_CODES)
_DISTANCE_FIELDS = tuple((w, b, (1 << w) - 1) for w, b in DISTANCE_CODES)


class Parsed(Record, namedtuple("Parsed", ("value", "consumed_bits"))):
    """Parsed(value, consumed_bits); parsing on starts at bit_pos + consumed_bits."""

    __slots__ = ()


class NoParse(Record, namedtuple("NoParse", ("reason", "bit_pos", "detail"), defaults=("",))):
    """Failed parse: the reason and the absolute bit offset of failure."""

    __slots__ = ()

    def error(self) -> InflateError:
        """The exception the raising entry points report this failure with."""
        return InflateError(self.reason, self.bit_pos, self.detail)


ParseOutcome = Parsed | NoParse


class BlockHeader(Record, namedtuple("BlockHeader", ("is_final", "block_type"))):
    __slots__ = ()


class DynamicHeader(Record, namedtuple(
        "DynamicHeader", ("hlit", "hdist", "hclen", "cl_coding", "lit_coding", "dist_coding"))):
    """Everything a dynamic block declares before its token payload."""

    __slots__ = ()


def _outcome(raw, data: bytes, bit_pos: int) -> ParseOutcome:
    """Run raw(data, pos) -> (value, pos) from ``bit_pos``, as a ParseOutcome."""
    if isinstance(bit_pos, bool) or not isinstance(bit_pos, int):
        raise ValueOutOfRange(f"bit_pos must be an int, not {type(bit_pos).__name__}")
    data = byte_view(data)
    if not 0 <= bit_pos <= 8 * len(data):
        raise ValueOutOfRange(f"bit_pos {bit_pos} outside a {len(data)}-byte buffer")
    try:
        value, pos = raw(data, bit_pos)
    except InflateError as e:
        return NoParse(e.reason, e.bit_pos, e.detail)
    return Parsed(value, pos - bit_pos)


def parse_block_header(data: bytes, bit_pos: int = 0) -> ParseOutcome:
    """One bit of is-final, two bits of block type (reserved value fails)."""
    return _outcome(_block_header, data, bit_pos)


def parse_stored_block(data: bytes, bit_pos: int = 0) -> ParseOutcome:
    """Byte-align, LEN, one's-complement NLEN, then LEN raw bytes."""
    return _outcome(_stored_block, data, bit_pos)


def parse_dynamic_header(data: bytes, bit_pos: int = 0) -> ParseOutcome:
    """HLIT/HDIST/HCLEN counts, the code-length coding, both codings."""
    return _outcome(_dynamic_header, data, bit_pos)


def _block_header(data: bytes, pos: int) -> tuple[BlockHeader, int]:
    bit_end = 8 * len(data)
    # Two reads: with one or two bits left, the failure is at the type field.
    final, pos = read_bits(data, pos, 1, bit_end)
    btype, pos = read_bits(data, pos, 2, bit_end)
    if btype == 3:
        raise InflateError(FailReason.RESERVED_BLOCK_TYPE, pos - 2)
    return BlockHeader(bool(final), BlockType(btype)), pos


def _stored_block(data: bytes, pos: int) -> tuple[bytes, int]:
    bit_end = 8 * len(data)
    pos = (pos + 7) & ~7
    length, pos = read_bits(data, pos, 16, bit_end)
    nlen, pos = read_bits(data, pos, 16, bit_end)
    if nlen != length ^ 0xFFFF:
        detail = f"LEN {length:#06x} vs NLEN {nlen:#06x}"
        raise InflateError(FailReason.LEN_NLEN_MISMATCH, pos - 16, detail)
    start = pos >> 3
    if start + length > len(data):
        raise InflateError(FailReason.END_OF_INPUT, pos)
    return bytes(data[start : start + length]), pos + 8 * length


def _rle_code_lengths(
    data: bytes, pos: int, bit_end: int, cl_coding: DeflateCoding, total: int
) -> tuple[list[int], int]:
    """Expand the run-length-encoded length list to exactly ``total`` entries.

    Symbols 0..15 are literal lengths; 16 repeats the previous length
    and 17 and 18 write zeros, each as many times as ``REPEAT_CODES``
    gives.  Runs may cross the literal/distance boundary of the
    combined list.  Symbols are read as ``_decode_some`` reads tokens:
    looked up in ``cl_coding.table`` from held bits, refilled 32 bytes at
    a time; a -1 entry, or fewer than MAX_CL_CODE_LENGTH bits in hand,
    goes to ``cl_coding.entry``.
    """
    table = cl_coding.table
    mask = len(table) - 1
    lengths: list[int] = []
    append = lengths.append
    hold = have = 0
    top = pos
    while len(lengths) < total:
        # 14 bits hold any symbol: a 7-bit code and 7 extra bits.
        if have < 14:
            pos = top - have
            i = pos >> 3
            hold = int.from_bytes(data[i : i + 32], "little") >> (pos & 7)
            top = min((i + 32) << 3, bit_end)
            have = top - pos
        entry = table[hold & mask]
        if entry < 0 or have < MAX_CL_CODE_LENGTH:
            entry = cl_coding.entry(hold, have, top - have)
        n = entry & 15
        hold >>= n
        have -= n
        sym = entry >> 4
        if sym <= 15:
            append(sym)
            continue
        if sym == 16 and not lengths:
            raise InflateError(FailReason.REPEAT_WITHOUT_PREVIOUS, top - have)
        width, count = REPEAT_CODES[sym - 16]
        if width > have:
            raise InflateError(FailReason.END_OF_INPUT, top - have)
        count += hold & ((1 << width) - 1)
        hold >>= width
        have -= width
        if len(lengths) + count > total:
            detail = f"{len(lengths)} + {count} lengths exceeds {total}"
            raise InflateError(FailReason.REPEAT_OVERRUN, top - have, detail)
        lengths.extend([lengths[-1] if sym == 16 else 0] * count)
    return lengths, top - have


def _coding(lengths: list[int], max_len: int, pos: int) -> DeflateCoding:
    """build_coding, with an over-subscribed vector failing at ``pos``."""
    try:
        return build_coding(lengths, max_len)
    except KraftViolation as e:
        raise InflateError(FailReason.BAD_CODING, pos, str(e)) from None


def _dynamic_header(data: bytes, pos: int) -> tuple[DynamicHeader, int]:
    bit_end = 8 * len(data)
    hlit_raw, pos = read_bits(data, pos, 5, bit_end)
    if hlit_raw >= 30:
        raise InflateError(FailReason.FORBIDDEN_HLIT, pos - 5, f"hlit {257 + hlit_raw}")
    hdist_raw, pos = read_bits(data, pos, 5, bit_end)
    hclen_raw, pos = read_bits(data, pos, 4, bit_end)
    hlit = 257 + hlit_raw
    hdist = 1 + hdist_raw
    hclen = 4 + hclen_raw

    # hclen three-bit lengths for the code-length coding, in its wire order,
    # read at once; if they run past the end, the first field that does fails.
    if pos + 3 * hclen > bit_end:
        raise InflateError(FailReason.END_OF_INPUT, pos + (bit_end - pos) // 3 * 3)
    fields = int.from_bytes(data[pos >> 3 : (pos >> 3) + 8], "little") >> (pos & 7)
    pos += 3 * hclen
    cl_lengths = [0] * 19
    for sym in CL_CODE_ORDER[:hclen]:
        cl_lengths[sym] = fields & 7
        fields >>= 3
    cl_coding = _coding(cl_lengths, MAX_CL_CODE_LENGTH, pos)
    combined, pos = _rle_code_lengths(data, pos, bit_end, cl_coding, hlit + hdist)
    lit_coding = _coding(combined[:hlit], MAX_CODE_LENGTH, pos)
    dist_coding = _coding(combined[hlit:], MAX_CODE_LENGTH, pos)
    header = DynamicHeader(hlit, hdist, hclen, cl_coding, lit_coding, dist_coding)
    return header, pos


def _decode_some(
    data: bytes,
    pos: int,
    bit_end: int,
    lit_coding: DeflateCoding,
    dist_coding: DeflateCoding,
    produced: int,
):
    """Decode up to _TOKEN_CHUNK tokens; returns (tokens, pos, produced, done).

    ``done`` reports whether the end-of-block symbol was consumed, which
    is then the last of ``tokens``; a block of an exact multiple of
    _TOKEN_CHUNK tokens before it ends with the batch ``[END_OF_BLOCK]``.
    Each call decodes into a new list, which the caller owns.  A
    distance must reach no further back than the ``produced`` bytes.
    Malformed content raises ``InflateError`` at an exact offset.

    ``hold`` caches the ``have`` bits before bit ``top``, reloaded 32 bytes
    at a time (fewer at ``bit_end``): the position is ``top - have``, and
    the output ``base + len(tokens)``, ``base`` adding ``length - 1`` per
    backref.  Symbols are looked up inline in the codings' primary
    ``table`` (zlib ``inffast.c``); a -1 entry, or fewer than 15 bits in
    hand, sends the same bits to the coding's ``entry``.  Extra bits past
    ``bit_end`` raise END_OF_INPUT at their first bit.
    """
    tokens: list = []
    append = tokens.append
    literals, length_fields, distance_fields = LITERALS, _LENGTH_FIELDS, _DISTANCE_FIELDS
    # The codepoint checks below already keep every length in 3..258 and
    # every distance in 1..32768, so a BackRef is minted with two slot
    # stores instead of its constructor, which would check them again.
    new = object.__new__
    lit_table, dist_table = lit_coding.table, dist_coding.table
    lit_mask, dist_mask = len(lit_table) - 1, len(dist_table) - 1
    hold = have = 0
    top, base = pos, produced
    for _ in range(_TOKEN_CHUNK):
        # 48 bits hold any token: 15 + 5 extra + 15 + 13 extra.
        if have < 48:
            pos = top - have
            i = pos >> 3
            hold = int.from_bytes(data[i : i + 32], "little") >> (pos & 7)
            top = min((i + 32) << 3, bit_end)
            have = top - pos
        entry = lit_table[hold & lit_mask]
        if entry < 0 or have < 15:
            entry = lit_coding.entry(hold, have, top - have)
        n = entry & 15
        hold >>= n
        have -= n
        if entry < 256 << 4:
            append(literals[entry >> 4])
            continue
        sym = entry >> 4
        if sym == 256:
            append(END_OF_BLOCK)
            return tokens, top - have, base + len(tokens) - 1, True
        if sym > 285:
            detail = f"codepoint {sym}"
            raise InflateError(FailReason.INVALID_LENGTH_CODEPOINT, top - have - n, detail)
        width, length, mask = length_fields[sym]
        if width > have:
            raise InflateError(FailReason.END_OF_INPUT, top - have)
        extra = hold & mask
        hold >>= width
        have -= width
        if extra == 31 and sym == 284:
            # 227 + 31 would be 258, which codepoint 285 owns.
            detail = "length codepoint 284 with extra value 31"
            raise InflateError(FailReason.INVALID_LENGTH_EXTRA, top - have, detail)
        length += extra
        entry = dist_table[hold & dist_mask]
        if entry < 0 or have < 15:
            entry = dist_coding.entry(hold, have, top - have)
        n = entry & 15
        hold >>= n
        have -= n
        dsym = entry >> 4
        if dsym >= 30:
            detail = f"codepoint {dsym}"
            raise InflateError(FailReason.INVALID_DISTANCE_CODEPOINT, top - have - n, detail)
        width, distance, mask = distance_fields[dsym]
        if width > have:
            raise InflateError(FailReason.END_OF_INPUT, top - have)
        distance += hold & mask
        hold >>= width
        have -= width
        if distance > base + len(tokens):
            detail = f"distance {distance} with only {base + len(tokens)} bytes produced"
            raise InflateError(FailReason.DISTANCE_TOO_FAR, top - have, detail)
        ref = new(BackRef)
        ref.length = length
        ref.distance = distance
        append(ref)
        base += length - 1
    return tokens, top - have, base + len(tokens), False


def _parsed(parse, data: bytes, pos: int):
    """Run a public parser at ``pos``: (value, end bit), or its NoParse raised."""
    outcome = parse(data, pos)
    if isinstance(outcome, NoParse):
        raise outcome.error()
    return outcome.value, pos + outcome.consumed_bits


def iter_blocks(data: bytes, bit_pos: int = 0):
    """Walk a raw stream block by block, up to the final block's last bit.

    Yields ``(header, item, end_bit)``, where ``end_bit`` is the bit
    offset just past ``item``.  For a stored block the item is its
    payload, as ``bytes``; for a compressed block it is the next batch
    of at most _TOKEN_CHUNK tokens, the block's last batch ending with
    END_OF_BLOCK (alone, when the tokens before it fill whole batches).
    The walk keeps no batch once it resumes, so a consumer that drops
    each batch before asking for the next holds one at a time.  Each
    header is a new object, so a change of header marks a new block.
    Every distance is checked against all the output produced so far.
    A malformed stream ends the walk with one item, a NoParse from the
    one ``except`` below, paired with the header of the block it broke
    in, or with None if a block header failed.  A ``bit_pos`` that is no
    int in the buffer raises ValueOutOfRange at the first step.
    """
    data = byte_view(data)
    bit_end = 8 * len(data)
    pos = bit_pos
    produced = 0
    try:
        while True:
            header = None
            header, pos = _parsed(parse_block_header, data, pos)
            if header.block_type is BlockType.STORED:
                payload, pos = _parsed(parse_stored_block, data, pos)
                produced += len(payload)
                yield header, payload, pos
            else:
                if header.block_type is BlockType.STATIC:
                    lit_coding, dist_coding = FIXED_LIT, FIXED_DIST
                else:
                    dynamic, pos = _parsed(parse_dynamic_header, data, pos)
                    lit_coding, dist_coding = dynamic.lit_coding, dynamic.dist_coding
                done = False
                while not done:
                    tokens, pos, produced, done = _decode_some(
                        data, pos, bit_end, lit_coding, dist_coding, produced
                    )
                    yield header, tokens, pos
                    del tokens  # not alive while the next batch is decoded
            if header.is_final:
                return
    except InflateError as e:
        yield header, NoParse(e.reason, e.bit_pos, e.detail), e.bit_pos


class RingWindow(bytearray):
    """Every byte of output so far, oldest first: the window is the buffer.

    The output is its own history: a backreference reaches at most
    32768 bytes back, into the window itself.  The class keeps its
    ring-era name because ``bench/traced.py`` wraps its push_bytes.
    """

    __slots__ = ()

    def push_bytes(self, data) -> None:
        """Append data to the output."""
        self += data


def resolve_tokens_ring(tokens, window: RingWindow) -> None:
    """Resolve tokens onto the end of ``window``, as ``history_window.resolve_tokens`` does.

    The window grows in place, and every backreference is a slice copy:
    one slice when the length is at most the distance, else the last
    ``distance`` bytes repeated, which is what a byte-at-a-time copy
    writes.  A distance past the output raises DistanceTooFar and
    leaves the window as it was.
    """
    start = len(window)
    append = window.append
    for t in tokens:
        if type(t) is Literal:
            append(t.value)
        elif type(t) is BackRef:
            d = t.distance
            if d > len(window):
                message = f"distance {d} exceeds the {len(window)} bytes of available history"
                del window[start:]
                raise DistanceTooFar(message)
            n = t.length
            if n <= d:
                src = len(window) - d
                window += window[src : src + n]
            else:
                window += (window[-d:] * (n // d + 1))[:n]


def parse_deflate(data: bytes, bit_pos: int = 0) -> ParseOutcome:
    """Parse a whole deflate stream into its decompressed bytes.

    The window is the one output buffer; backreferences copy from it.
    Each item is dropped once it is in the window, so only the output
    and the batch being decoded are alive.  Consumption stops at the
    final block's last bit; trailing bits are ignored and left unconsumed.
    """
    window = RingWindow()
    for header, item, end in iter_blocks(data, bit_pos):
        if isinstance(item, NoParse):
            return item
        if header.block_type is BlockType.STORED:
            window.push_bytes(item)
        else:
            resolve_tokens_ring(item, window)
        del item  # not alive while the next batch is decoded, nor at the copy
    return Parsed(bytes(window), end - bit_pos)


def inflate(data: bytes) -> bytes:
    """Decompress a raw deflate stream; raises InflateError on bad input."""
    outcome = parse_deflate(data)
    if isinstance(outcome, NoParse):
        raise outcome.error()
    return outcome.value
