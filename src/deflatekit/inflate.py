"""Deflate stream parsing with explicit outcomes and consumption accounting.

The parsers work on a raw buffer and absolute bit position, reading
fields with ``bitio.read_bits``, and return (value, new position).  On
a malformed stream they raise: a grammar violation raises ``_Fail``
with its reason, the prefix decoder and the bit reader raise ``BadCode``
and ``EndOfInput``.  ``_no_parse`` is the one place that turns any of
these into ``NoParse(reason, bit_pos, detail)``.  The public parsers
(``parse_block_header``, ``parse_stored_block``,
``parse_dynamic_header``, ``parse_deflate``) take a BitCursor and
return a ParseOutcome: ``Parsed(value, consumed_bits, rest)`` or that
NoParse.  Parsers read strictly left to right and never look past the
bits they consume, which gives the layer two global properties:

* strong uniqueness: appending arbitrary bits to a parseable input
  changes neither the value nor the number of bits consumed;
* strong decidability: parsing is total, so every input either yields
  a value or a specific failure reason at a specific bit offset.

``iter_blocks`` is the one walk of the block grammar: block by block,
batch by batch, up to the final block's last bit.  It calls the public
parsers through ``_parsed``, which raises a NoParse as ``_Fail``, so
every failure leaves the walk through one exit: a last item pairing the
NoParse with its block's header, or with None when a block header
itself failed.  ``parse_deflate``
folds it into one output buffer, a ``RingWindow`` (a bytearray) that
persists across blocks (the format never resets the history) and that
``resolve_tokens_ring`` copies backreferences from by slices;
``dump-tokens`` prints the same items.  The tests hold that resolver to
the paper's window model, ``history_window.resolve_tokens``.
"""

from __future__ import annotations

import enum

from .bitio import BitCursor, read_bits
from .errors import (
    BadCode,
    DistanceTooFar,
    EndOfInput,
    InflateError,
    KraftViolation,
)
from .prefix_coding import (
    DeflateCoding,
    FIXED_DIST,
    FIXED_LIT,
    MAX_CL_CODE_LENGTH,
    MAX_CODE_LENGTH,
    build_coding,
)
from .record import Record, set_field
from .symbol_tables import (
    CL_CODE_ORDER,
    DISTANCE_CODES,
    END_OF_BLOCK,
    LENGTH_CODES,
    LITERALS,
    REPEAT_CODES,
    BackRef,
    Literal,
)

_TOKEN_CHUNK = 4096  # tokens resolved per batch while streaming


class FailReason(enum.Enum):
    """Why a parse failed; the human meaning is the value."""

    END_OF_INPUT = "ran out of input bits"
    RESERVED_BLOCK_TYPE = "reserved block type 3"
    LEN_NLEN_MISMATCH = "stored-block length complement check failed"
    REPEAT_WITHOUT_PREVIOUS = "repeat code with no previous length"
    REPEAT_OVERRUN = "repeat runs past the declared number of lengths"
    BAD_CODE = "bits match no code of the coding"
    FORBIDDEN_HLIT = "literal alphabet larger than 286"
    BAD_CODING = "length vector admits no prefix-free coding"
    INVALID_LENGTH_CODEPOINT = "length codepoint not allowed in data"
    INVALID_LENGTH_EXTRA = "length extra bits name an impossible length"
    INVALID_DISTANCE_CODEPOINT = "distance codepoint not allowed in data"
    DISTANCE_TOO_FAR = "backreference reaches beyond the produced output"


class Parsed(Record):
    """Successful parse: the value, exact bit consumption, and the rest."""

    __slots__ = ("value", "consumed_bits", "rest")

    def __init__(self, value: object, consumed_bits: int, rest: BitCursor):
        set_field(self, "value", value)
        set_field(self, "consumed_bits", consumed_bits)
        set_field(self, "rest", rest)


class NoParse(Record):
    """Failed parse: the reason and the absolute bit offset of failure."""

    __slots__ = ("reason", "bit_pos", "detail")

    def __init__(self, reason: FailReason, bit_pos: int, detail: str = ""):
        set_field(self, "reason", reason)
        set_field(self, "bit_pos", bit_pos)
        set_field(self, "detail", detail)

    def error(self) -> InflateError:
        """The exception the raising entry points report this failure with."""
        return InflateError(self.reason.value, self.bit_pos, self.detail)


ParseOutcome = Parsed | NoParse


class BlockType(enum.IntEnum):
    STORED = 0
    STATIC = 1
    DYNAMIC = 2


class BlockHeader(Record):
    __slots__ = ("is_final", "block_type")

    def __init__(self, is_final: bool, block_type: BlockType):
        set_field(self, "is_final", is_final)
        set_field(self, "block_type", block_type)


class DynamicHeader(Record):
    """Everything a dynamic block declares before its token payload."""

    __slots__ = ("hlit", "hdist", "hclen", "cl_coding", "lit_coding", "dist_coding")

    def __init__(self, hlit: int, hdist: int, hclen: int, cl_coding: DeflateCoding,
                 lit_coding: DeflateCoding, dist_coding: DeflateCoding):
        set_field(self, "hlit", hlit)
        set_field(self, "hdist", hdist)
        set_field(self, "hclen", hclen)
        set_field(self, "cl_coding", cl_coding)
        set_field(self, "lit_coding", lit_coding)
        set_field(self, "dist_coding", dist_coding)


class _Fail(Exception):
    """A grammar violation at an exact bit offset, raised by the raw parsers."""

    def __init__(self, reason: FailReason, bit_pos: int, detail: str = ""):
        self.reason = reason
        self.bit_pos = bit_pos
        self.detail = detail


# Everything a raw parser raises for a malformed stream.
_PARSE_ERRORS = (_Fail, EndOfInput, BadCode)


def _no_parse(exc: Exception) -> NoParse:
    """The NoParse for a failure the raw parsers raised."""
    if isinstance(exc, EndOfInput):
        return NoParse(FailReason.END_OF_INPUT, exc.bit_pos)
    if isinstance(exc, BadCode):
        return NoParse(FailReason.BAD_CODE, exc.bit_pos)
    return NoParse(exc.reason, exc.bit_pos, exc.detail)


def _outcome(raw, cursor: BitCursor) -> ParseOutcome:
    """Run raw(data, pos) -> (value, pos) from a cursor, as a ParseOutcome."""
    try:
        value, pos = raw(cursor.data, cursor.bit_pos)
    except _PARSE_ERRORS as e:
        return _no_parse(e)
    return Parsed(value, pos - cursor.bit_pos, BitCursor(cursor.data, pos))


def parse_block_header(cursor: BitCursor) -> ParseOutcome:
    """One bit of is-final, two bits of block type (reserved value fails)."""
    return _outcome(_block_header, cursor)


def parse_stored_block(cursor: BitCursor) -> ParseOutcome:
    """Byte-align, LEN, one's-complement NLEN, then LEN raw bytes."""
    return _outcome(_stored_block, cursor)


def parse_dynamic_header(cursor: BitCursor) -> ParseOutcome:
    """HLIT/HDIST/HCLEN counts, the code-length coding, both codings."""
    return _outcome(_dynamic_header, cursor)


def _block_header(data: bytes, pos: int) -> tuple[BlockHeader, int]:
    bit_end = 8 * len(data)
    # Two reads: with one or two bits left, the failure is at the type field.
    final, pos = read_bits(data, pos, 1, bit_end)
    btype, pos = read_bits(data, pos, 2, bit_end)
    if btype == 3:
        raise _Fail(FailReason.RESERVED_BLOCK_TYPE, pos - 2)
    return BlockHeader(bool(final), BlockType(btype)), pos


def _stored_block(data: bytes, pos: int) -> tuple[bytes, int]:
    bit_end = 8 * len(data)
    pos = (pos + 7) & ~7
    length, pos = read_bits(data, pos, 16, bit_end)
    nlen, pos = read_bits(data, pos, 16, bit_end)
    if nlen != length ^ 0xFFFF:
        raise _Fail(
            FailReason.LEN_NLEN_MISMATCH, pos - 16, f"LEN {length:#06x} vs NLEN {nlen:#06x}"
        )
    start = pos >> 3
    if start + length > len(data):
        raise EndOfInput(pos, f"{length} stored bytes")
    return bytes(data[start : start + length]), pos + 8 * length


def _cl_lengths(data: bytes, pos: int, hclen: int) -> tuple[list[int], int]:
    """hclen three-bit lengths for the code-length coding, in its wire order."""
    bit_end = 8 * len(data)
    lengths = [0] * 19
    for i in range(hclen):
        lengths[CL_CODE_ORDER[i]], pos = read_bits(data, pos, 3, bit_end)
    return lengths, pos


def _rle_code_lengths(
    data: bytes, pos: int, bit_end: int, cl_coding: DeflateCoding, total: int
) -> tuple[list[int], int]:
    """Expand the run-length-encoded length list to exactly ``total`` entries.

    Symbols 0..15 are literal lengths; 16 repeats the previous length
    and 17 and 18 write zeros, each as many times as ``REPEAT_CODES``
    gives.  Runs may cross the literal/distance boundary of the
    combined list.
    """
    lengths: list[int] = []
    while len(lengths) < total:
        sym, pos = cl_coding.read_symbol(data, pos, bit_end)
        if sym <= 15:
            lengths.append(sym)
            continue
        if sym == 16 and not lengths:
            raise _Fail(FailReason.REPEAT_WITHOUT_PREVIOUS, pos)
        width, count = REPEAT_CODES[sym - 16]
        extra, pos = read_bits(data, pos, width, bit_end)
        count += extra
        if len(lengths) + count > total:
            raise _Fail(
                FailReason.REPEAT_OVERRUN,
                pos,
                f"{len(lengths)} + {count} lengths exceeds {total}",
            )
        lengths.extend([lengths[-1] if sym == 16 else 0] * count)
    return lengths, pos


def _coding(lengths: list[int], max_len: int, pos: int) -> DeflateCoding:
    """build_coding, with an over-subscribed vector failing at ``pos``."""
    try:
        return build_coding(lengths, max_len)
    except KraftViolation as e:
        raise _Fail(FailReason.BAD_CODING, pos, str(e)) from None


def _dynamic_header(data: bytes, pos: int) -> tuple[DynamicHeader, int]:
    bit_end = 8 * len(data)
    hlit_raw, pos = read_bits(data, pos, 5, bit_end)
    if hlit_raw >= 30:
        raise _Fail(FailReason.FORBIDDEN_HLIT, pos - 5, f"hlit {257 + hlit_raw}")
    hdist_raw, pos = read_bits(data, pos, 5, bit_end)
    hclen_raw, pos = read_bits(data, pos, 4, bit_end)
    hlit = 257 + hlit_raw
    hdist = 1 + hdist_raw
    hclen = 4 + hclen_raw

    cl_lengths, pos = _cl_lengths(data, pos, hclen)
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

    ``done`` reports whether the end-of-block symbol was consumed.  A
    distance must reach no further back than the ``produced`` bytes.
    Malformed content raises one of ``_PARSE_ERRORS`` at an exact offset.

    ``hold`` caches ``have`` stream bits from ``pos`` on, reloaded 16
    bytes at a time, or up to ``bit_end`` (a byte boundary) near it, so
    it serves every field.  Symbols are looked up inline in the codings'
    primary ``table`` (zlib ``inffast.c``); a -1 entry, or fewer than 15
    bits in hand, sends the same bits to the coding's ``entry``.  Extra
    bits past ``bit_end`` raise EndOfInput at their first bit.
    """
    tokens: list = []
    append = tokens.append
    literals = LITERALS
    # The codepoint checks below already keep every length in 3..258 and
    # every distance in 1..32768, so a BackRef is minted with two slot
    # stores instead of its constructor, which would check them again.
    new = object.__new__
    lit_table, dist_table = lit_coding.table, dist_coding.table
    lit_mask, dist_mask = len(lit_table) - 1, len(dist_table) - 1
    hold = have = 0
    reload_end = bit_end - 128
    for _ in range(_TOKEN_CHUNK):
        # 48 bits hold any token: 15 + 5 extra + 15 + 13 extra.
        if have < 48:
            i = pos >> 3
            hold = int.from_bytes(data[i : i + 16], "little") >> (pos & 7)
            have = 128 - (pos & 7) if pos <= reload_end else bit_end - pos
        entry = lit_table[hold & lit_mask]
        if entry < 0 or have < 15:
            entry = lit_coding.entry(hold, have, pos)
        n = entry & 15
        hold >>= n
        have -= n
        pos += n
        sym = entry >> 4
        if sym < 256:
            append(literals[sym])
            produced += 1
            continue
        if sym == 256:
            append(END_OF_BLOCK)
            return tokens, pos, produced, True
        if sym > 285:
            raise _Fail(FailReason.INVALID_LENGTH_CODEPOINT, pos - n, f"codepoint {sym}")
        width, length = LENGTH_CODES[sym - 257]
        if width > have:
            raise EndOfInput(pos, f"a {width}-bit field")
        extra = hold & ((1 << width) - 1)
        hold >>= width
        have -= width
        pos += width
        if extra == 31 and sym == 284:
            # 227 + 31 would be 258, which codepoint 285 owns.
            detail = "length codepoint 284 with extra value 31"
            raise _Fail(FailReason.INVALID_LENGTH_EXTRA, pos, detail)
        length += extra
        entry = dist_table[hold & dist_mask]
        if entry < 0 or have < 15:
            entry = dist_coding.entry(hold, have, pos)
        n = entry & 15
        hold >>= n
        have -= n
        pos += n
        dsym = entry >> 4
        if dsym >= 30:
            raise _Fail(FailReason.INVALID_DISTANCE_CODEPOINT, pos - n, f"codepoint {dsym}")
        width, distance = DISTANCE_CODES[dsym]
        if width > have:
            raise EndOfInput(pos, f"a {width}-bit field")
        extra = hold & ((1 << width) - 1)
        hold >>= width
        have -= width
        pos += width
        distance += extra
        if distance > produced:
            raise _Fail(
                FailReason.DISTANCE_TOO_FAR,
                pos,
                f"distance {distance} with only {produced} bytes produced",
            )
        ref = new(BackRef)
        ref.length = length
        ref.distance = distance
        append(ref)
        produced += length
    return tokens, pos, produced, False


def _parsed(parse, data: bytes, pos: int):
    """Run a public parser at ``pos``: (value, end bit), or its NoParse raised as _Fail."""
    outcome = parse(BitCursor(data, pos))
    if isinstance(outcome, NoParse):
        raise _Fail(outcome.reason, outcome.bit_pos, outcome.detail)
    return outcome.value, outcome.rest.bit_pos


def iter_blocks(data: bytes, bit_pos: int = 0):
    """Walk a raw stream block by block, up to the final block's last bit.

    Yields ``(header, item, end_bit)``, where ``end_bit`` is the bit
    offset just past ``item``.  For a stored block the item is its
    payload, as ``bytes``; for a compressed block it is the next batch
    of at most _TOKEN_CHUNK tokens, the block's last batch ending with
    END_OF_BLOCK.  Each header is a new object, so a change of header
    marks a new block.  Every distance is checked against all the output
    produced so far.  A malformed stream ends the walk with one item
    that is a NoParse, paired with the header of the block it broke in.
    Every failure leaves the walk through the one ``except`` below; the
    header is reset before each block header is parsed, so a failed
    block header, the first or a later one, pairs with None.
    """
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
            if header.is_final:
                return
    except _PARSE_ERRORS as e:
        failure = _no_parse(e)
        yield header, failure, failure.bit_pos


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


def resolve_tokens_ring(tokens, window: RingWindow) -> tuple[bytes, RingWindow]:
    """Resolve tokens against a RingWindow, as ``history_window.resolve_tokens`` does.

    The batch is resolved in place at the end of ``window``, and every
    backreference is a slice copy: one slice when the length is at most
    the distance, else the last ``distance`` bytes repeated, which is
    what a byte-at-a-time copy writes.  A distance past the output
    raises DistanceTooFar and leaves the window as it was.  The window
    object is updated in place and returned with the batch's bytes.
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
    return bytes(window[start:]), window


def parse_deflate(cursor: BitCursor) -> ParseOutcome:
    """Parse a whole deflate stream into its decompressed bytes.

    The window is the one output buffer; backreferences copy from it.
    Consumption stops at the final block's last bit; trailing bits are
    ignored and left unconsumed.
    """
    window = RingWindow()
    end = cursor.bit_pos
    for header, item, end in iter_blocks(cursor.data, cursor.bit_pos):
        if isinstance(item, NoParse):
            return item
        if header.block_type is BlockType.STORED:
            window.push_bytes(item)
        else:
            resolve_tokens_ring(item, window)
    return Parsed(bytes(window), end - cursor.bit_pos, BitCursor(cursor.data, end))


def inflate(data: bytes) -> bytes:
    """Decompress a raw deflate stream; raises InflateError on bad input."""
    outcome = parse_deflate(BitCursor(data, 0))
    if isinstance(outcome, NoParse):
        raise outcome.error()
    return outcome.value
