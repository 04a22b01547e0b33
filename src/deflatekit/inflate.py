"""Deflate stream parsing with explicit outcomes and consumption accounting.

Every parser here is a pure function from a BitCursor to a ParseOutcome:
either ``Parsed(value, consumed_bits, rest)`` or ``NoParse(reason,
bit_pos)``.  Parsers read strictly left to right and never look past
the bits they consume, which gives the layer two global properties:

* strong uniqueness: appending arbitrary bits to a parseable input
  changes neither the value nor the number of bits consumed;
* strong decidability: parsing is total, so every input either yields
  a value or a specific failure reason at a specific bit offset.

``iter_blocks`` is the one walk of the block grammar: block by block,
batch by batch, up to the final block's last bit.  ``parse_deflate``
folds it into bytes against a ring window that persists across blocks
(the format never resets it); ``dump-tokens`` prints the same items.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bitio import BitCursor
from .errors import (
    BadCode,
    EndOfInput,
    InflateError,
    InvalidLengthExtra,
    KraftViolation,
    ValueOutOfRange,
)
from .history_window import (
    BackRef,
    END_OF_BLOCK,
    Literal,
    RingWindow,
    resolve_tokens_ring,
)
from .prefix_coding import (
    CodeLengths,
    DeflateCoding,
    MAX_CL_CODE_LENGTH,
    build_coding,
    fixed_dist_coding,
    fixed_lit_coding,
)
from .symbol_tables import (
    CL_CODE_ORDER,
    distance_decode,
    distance_extra_bits,
    length_decode,
    length_extra_bits,
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


@dataclass(frozen=True)
class Parsed:
    """Successful parse: the value, exact bit consumption, and the rest."""

    value: object
    consumed_bits: int
    rest: BitCursor


@dataclass(frozen=True)
class NoParse:
    """Failed parse: the reason and the absolute bit offset of failure."""

    reason: FailReason
    bit_pos: int
    detail: str = ""


ParseOutcome = Parsed | NoParse


class BlockType(enum.IntEnum):
    STORED = 0
    STATIC = 1
    DYNAMIC = 2


@dataclass(frozen=True)
class BlockHeader:
    is_final: bool
    block_type: BlockType


@dataclass(frozen=True)
class DynamicHeader:
    """Everything a dynamic block declares before its token payload."""

    hlit: int
    hdist: int
    hclen: int
    cl_coding: DeflateCoding
    lit_coding: DeflateCoding
    dist_coding: DeflateCoding


def parse_block_header(cursor: BitCursor) -> ParseOutcome:
    """One bit of is-final, two bits of block type (reserved value fails)."""
    try:
        final_bit, cur = cursor.read_bit()
        btype, cur = cur.read_int_lsb(2)
    except EndOfInput as e:
        return NoParse(FailReason.END_OF_INPUT, e.bit_pos)
    if btype == 3:
        return NoParse(FailReason.RESERVED_BLOCK_TYPE, cursor.bit_pos + 1)
    header = BlockHeader(bool(final_bit), BlockType(btype))
    return Parsed(header, cur.bit_pos - cursor.bit_pos, cur)


def parse_stored_block(cursor: BitCursor) -> ParseOutcome:
    """Byte-align, LEN, one's-complement NLEN, then LEN raw bytes."""
    cur = cursor.align_to_byte()
    try:
        length, cur = cur.read_int_lsb(16)
        nlen_pos = cur.bit_pos
        nlen, cur = cur.read_int_lsb(16)
        if nlen != length ^ 0xFFFF:
            return NoParse(
                FailReason.LEN_NLEN_MISMATCH,
                nlen_pos,
                f"LEN {length:#06x} vs NLEN {nlen:#06x}",
            )
        payload, cur = cur.read_bytes_aligned(length)
    except EndOfInput as e:
        return NoParse(FailReason.END_OF_INPUT, e.bit_pos)
    return Parsed(payload, cur.bit_pos - cursor.bit_pos, cur)


def parse_cl_lengths(cursor: BitCursor, hclen: int) -> ParseOutcome:
    """hclen three-bit lengths for the code-length coding, in its wire order."""
    if not 4 <= hclen <= 19:
        raise ValueOutOfRange(f"hclen {hclen} not in 4..19")
    lengths = [0] * 19
    cur = cursor
    try:
        for i in range(hclen):
            value, cur = cur.read_int_lsb(3)
            lengths[CL_CODE_ORDER[i]] = value
    except EndOfInput as e:
        return NoParse(FailReason.END_OF_INPUT, e.bit_pos)
    return Parsed(
        CodeLengths(lengths, MAX_CL_CODE_LENGTH), cur.bit_pos - cursor.bit_pos, cur
    )


def parse_rle_code_lengths(
    cursor: BitCursor, cl_coding: DeflateCoding, total: int
) -> ParseOutcome:
    """Expand the run-length-encoded length list to exactly ``total`` entries.

    Symbols 0..15 are literal lengths; 16 repeats the previous length
    3..6 times (2 extra bits), 17 writes 3..10 zeros (3 extra bits),
    18 writes 11..138 zeros (7 extra bits).  Runs may cross the
    literal/distance boundary of the combined list.
    """
    data = cursor.data
    bit_end = 8 * len(data)
    pos = cursor.bit_pos
    lengths: list[int] = []
    try:
        while len(lengths) < total:
            sym, pos = cl_coding.read_symbol(data, pos, bit_end)
            if sym <= 15:
                lengths.append(sym)
                continue
            if sym == 16:
                if not lengths:
                    return NoParse(FailReason.REPEAT_WITHOUT_PREVIOUS, pos)
                extra, pos = _read_bits(data, pos, 2, bit_end)
                count = 3 + extra
                fill = lengths[-1]
            elif sym == 17:
                extra, pos = _read_bits(data, pos, 3, bit_end)
                count = 3 + extra
                fill = 0
            else:  # 18
                extra, pos = _read_bits(data, pos, 7, bit_end)
                count = 11 + extra
                fill = 0
            if len(lengths) + count > total:
                return NoParse(
                    FailReason.REPEAT_OVERRUN,
                    pos,
                    f"{len(lengths)} + {count} lengths exceeds {total}",
                )
            lengths.extend([fill] * count)
    except EndOfInput as e:
        return NoParse(FailReason.END_OF_INPUT, e.bit_pos)
    except BadCode as e:
        return NoParse(FailReason.BAD_CODE, e.bit_pos)
    return Parsed(tuple(lengths), pos - cursor.bit_pos, BitCursor(data, pos))


def parse_dynamic_header(cursor: BitCursor) -> ParseOutcome:
    """HLIT/HDIST/HCLEN counts, the code-length coding, both codings."""
    try:
        hlit_raw, cur = cursor.read_int_lsb(5)
        if hlit_raw >= 30:
            return NoParse(
                FailReason.FORBIDDEN_HLIT,
                cursor.bit_pos,
                f"hlit {257 + hlit_raw}",
            )
        hdist_raw, cur = cur.read_int_lsb(5)
        hclen_raw, cur = cur.read_int_lsb(4)
    except EndOfInput as e:
        return NoParse(FailReason.END_OF_INPUT, e.bit_pos)
    hlit = 257 + hlit_raw
    hdist = 1 + hdist_raw
    hclen = 4 + hclen_raw

    cl_outcome = parse_cl_lengths(cur, hclen)
    if isinstance(cl_outcome, NoParse):
        return cl_outcome
    try:
        cl_coding = build_coding(cl_outcome.value)
    except KraftViolation as e:
        return NoParse(FailReason.BAD_CODING, cl_outcome.rest.bit_pos, str(e))

    rle_outcome = parse_rle_code_lengths(cl_outcome.rest, cl_coding, hlit + hdist)
    if isinstance(rle_outcome, NoParse):
        return rle_outcome
    combined = rle_outcome.value
    cur = rle_outcome.rest
    try:
        lit_coding = build_coding(CodeLengths(combined[:hlit]))
        dist_coding = build_coding(CodeLengths(combined[hlit:]))
    except KraftViolation as e:
        return NoParse(FailReason.BAD_CODING, cur.bit_pos, str(e))

    header = DynamicHeader(hlit, hdist, hclen, cl_coding, lit_coding, dist_coding)
    return Parsed(header, cur.bit_pos - cursor.bit_pos, cur)


def _read_bits(data: bytes, pos: int, n: int, bit_end: int) -> tuple[int, int]:
    """LSB-first n-bit read over raw buffer positions (n <= 16)."""
    if pos + n > bit_end:
        raise EndOfInput(pos, f"a {n}-bit field")
    if n == 0:
        return 0, pos
    first = pos >> 3
    nbytes = ((pos & 7) + n + 7) >> 3
    chunk = int.from_bytes(data[first : first + nbytes], "little")
    return (chunk >> (pos & 7)) & ((1 << n) - 1), pos + n


class _TokenFailure(Exception):
    """Internal carrier turning token-level failures into NoParse values."""

    def __init__(self, reason: FailReason, bit_pos: int, detail: str = ""):
        self.reason = reason
        self.bit_pos = bit_pos
        self.detail = detail


def _decode_some(
    data: bytes,
    pos: int,
    bit_end: int,
    lit_coding: DeflateCoding,
    dist_coding: DeflateCoding,
    produced: int,
    max_tokens: int,
    check_distance: bool,
):
    """Decode up to max_tokens tokens; returns (tokens, pos, produced, done).

    ``done`` reports whether the end-of-block symbol was consumed.
    Raises _TokenFailure with an exact offset on malformed content.
    """
    tokens: list = []
    lit_read = lit_coding.read_symbol
    dist_read = dist_coding.read_symbol
    while len(tokens) < max_tokens:
        sym_pos = pos
        try:
            sym, pos = lit_read(data, pos, bit_end)
        except EndOfInput as e:
            raise _TokenFailure(FailReason.END_OF_INPUT, e.bit_pos)
        except BadCode as e:
            raise _TokenFailure(FailReason.BAD_CODE, e.bit_pos)
        if sym < 256:
            tokens.append(Literal(sym))
            produced += 1
            continue
        if sym == 256:
            tokens.append(END_OF_BLOCK)
            return tokens, pos, produced, True
        if sym > 285:
            raise _TokenFailure(
                FailReason.INVALID_LENGTH_CODEPOINT, sym_pos, f"codepoint {sym}"
            )
        try:
            extra, pos = _read_bits(data, pos, length_extra_bits(sym), bit_end)
            length = length_decode(sym, extra)
        except EndOfInput as e:
            raise _TokenFailure(FailReason.END_OF_INPUT, e.bit_pos)
        except InvalidLengthExtra as e:
            raise _TokenFailure(FailReason.INVALID_LENGTH_EXTRA, pos, str(e))
        dsym_pos = pos
        try:
            dsym, pos = dist_read(data, pos, bit_end)
        except EndOfInput as e:
            raise _TokenFailure(FailReason.END_OF_INPUT, e.bit_pos)
        except BadCode as e:
            raise _TokenFailure(FailReason.BAD_CODE, e.bit_pos)
        if dsym >= 30:
            raise _TokenFailure(
                FailReason.INVALID_DISTANCE_CODEPOINT, dsym_pos, f"codepoint {dsym}"
            )
        try:
            dextra, pos = _read_bits(data, pos, distance_extra_bits(dsym), bit_end)
        except EndOfInput as e:
            raise _TokenFailure(FailReason.END_OF_INPUT, e.bit_pos)
        distance = distance_decode(dsym, dextra)
        if check_distance and distance > produced:
            raise _TokenFailure(
                FailReason.DISTANCE_TOO_FAR,
                pos,
                f"distance {distance} with only {produced} bytes produced",
            )
        tokens.append(BackRef(length, distance))
        produced += length
    return tokens, pos, produced, False


def iter_blocks(data: bytes, bit_pos: int = 0):
    """Walk a raw stream block by block, up to the final block's last bit.

    Yields ``(header, item, end_bit)``, where ``end_bit`` is the bit
    offset just past ``item``.  For a stored block the item is its
    payload; for a compressed block it is the next batch of at most
    _TOKEN_CHUNK tokens, the block's last batch ending with
    END_OF_BLOCK.  Each header is a new object, so a change of header
    marks a new block.  Every distance is checked against all the output
    produced so far.  A malformed stream ends the walk with one item
    that is a NoParse, paired with the header of the block it broke in
    (None when the block header itself failed).
    """
    bit_end = 8 * len(data)
    pos = bit_pos
    produced = 0
    while True:
        outcome = parse_block_header(BitCursor(data, pos))
        if isinstance(outcome, NoParse):
            yield None, outcome, outcome.bit_pos
            return
        header = outcome.value
        pos = outcome.rest.bit_pos
        if header.block_type is BlockType.STORED:
            outcome = parse_stored_block(BitCursor(data, pos))
            if isinstance(outcome, NoParse):
                yield header, outcome, outcome.bit_pos
                return
            pos = outcome.rest.bit_pos
            produced += len(outcome.value)
            yield header, outcome.value, pos
        else:
            if header.block_type is BlockType.STATIC:
                lit_coding, dist_coding = fixed_lit_coding(), fixed_dist_coding()
            else:
                outcome = parse_dynamic_header(BitCursor(data, pos))
                if isinstance(outcome, NoParse):
                    yield header, outcome, outcome.bit_pos
                    return
                lit_coding = outcome.value.lit_coding
                dist_coding = outcome.value.dist_coding
                pos = outcome.rest.bit_pos
            done = False
            while not done:
                try:
                    tokens, pos, produced, done = _decode_some(
                        data, pos, bit_end, lit_coding, dist_coding, produced,
                        _TOKEN_CHUNK, True,
                    )
                except _TokenFailure as f:
                    yield header, NoParse(f.reason, f.bit_pos, f.detail), f.bit_pos
                    return
                yield header, tokens, pos
        if header.is_final:
            return


def parse_deflate(cursor: BitCursor) -> ParseOutcome:
    """Parse a whole deflate stream into its decompressed bytes.

    Consumption stops at the final block's last bit; trailing bits are
    ignored and left unconsumed.
    """
    window = RingWindow()
    out = bytearray()
    end = cursor.bit_pos
    for header, item, end in iter_blocks(cursor.data, cursor.bit_pos):
        if isinstance(item, NoParse):
            return item
        if header.block_type is BlockType.STORED:
            window.push_bytes(item)
            out += item
        else:
            resolved, window = resolve_tokens_ring(item, window)
            out += resolved
    return Parsed(bytes(out), end - cursor.bit_pos, BitCursor(cursor.data, end))


def inflate(data: bytes) -> bytes:
    """Decompress a raw deflate stream; raises InflateError on bad input."""
    outcome = parse_deflate(BitCursor(data, 0))
    if isinstance(outcome, NoParse):
        raise InflateError(outcome.reason.value, outcome.bit_pos, outcome.detail)
    return outcome.value
