"""Canonical prefix-free codings determined by code-length vectors.

A coding maps every character 0..n-1 of an alphabet to a bit sequence;
the empty sequence marks a character that cannot appear.  The codings
used by deflate are *canonical*: the code-length vector alone pins the
coding down completely.  Canonicity is captured by four rules over the
nonempty codes (lexicographic order on bit sequences, where a proper
prefix sorts before its extensions):

1. prefix-free: no nonempty code is a prefix of another character's code;
2. shorter codes sort lexicographically before (or equal to) longer ones;
3. codes of equal length appear in character order;
4. no gaps: every bit sequence of some code's length that sorts at or
   below that code has a nonempty code as prefix.

Rules 1-4 force each length class to occupy a dense range of values
starting right after the (doubled) end of the previous class, which is
what ``build_coding`` constructs and what the decode table exploits.

Two independent constructions are provided, ``build_coding`` (sorted
incremental assignment) and ``build_coding_counting`` (per-length
counting); uniqueness of canonical codings makes them interchangeable,
so each serves as a cross-check of the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .bitio import BitCursor, read_bits
from .errors import (
    BadCode,
    EndOfInput,
    KraftViolation,
    LengthOverflow,
    UnencodableCharacter,
    ValueOutOfRange,
)

# Longest code either deflate coding layer allows.
MAX_CODE_LENGTH = 15
# The coding that encodes the dynamic header's code lengths is shallower.
MAX_CL_CODE_LENGTH = 7
# Stream bits a decode table's primary lookup indexes (zlib's root table).
_TABLE_BITS = 9

Bits = tuple[int, ...]


@dataclass(frozen=True)
class CodeLengths:
    """A code-length vector: one length per character, 0 meaning no code."""

    lengths: tuple[int, ...]
    max_len: int = MAX_CODE_LENGTH

    def __init__(self, lengths: Iterable[int], max_len: int = MAX_CODE_LENGTH):
        lengths = tuple(lengths)
        if max_len < 1:
            raise ValueOutOfRange(f"max_len {max_len} must be at least 1")
        for ch, l in enumerate(lengths):
            if l < 0:
                raise ValueOutOfRange(f"length {l} of character {ch} is negative")
            if l > max_len:
                raise LengthOverflow(
                    f"length {l} of character {ch} exceeds the maximum {max_len}"
                )
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "max_len", max_len)

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return iter(self.lengths)


LengthsLike = Union[CodeLengths, Sequence[int]]


def _as_code_lengths(lengths: LengthsLike, max_len: int = MAX_CODE_LENGTH) -> CodeLengths:
    if isinstance(lengths, CodeLengths):
        return lengths
    return CodeLengths(lengths, max_len)


@dataclass(frozen=True)
class KraftValue:
    """The sum of 2**-length over all nonempty codes, kept exact.

    Represented as an integer numerator over the denominator 2**shift;
    floating point never enters the comparison with 1.
    """

    numerator: int
    shift: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.shift)

    @property
    def is_valid(self) -> bool:
        """True when the vector admits a prefix-free coding (sum <= 1)."""
        return self.numerator <= (1 << self.shift)

    @property
    def is_saturated(self) -> bool:
        """True when the sum is exactly 1 (the coding has an all-ones code)."""
        return self.numerator == (1 << self.shift)

    def __eq__(self, other) -> bool:
        if isinstance(other, KraftValue):
            return self.as_fraction() == other.as_fraction()
        if isinstance(other, (int, Fraction)):
            return self.as_fraction() == other
        return NotImplemented

    def __le__(self, other) -> bool:
        if isinstance(other, KraftValue):
            return self.as_fraction() <= other.as_fraction()
        return self.as_fraction() <= other

    def __repr__(self) -> str:
        return f"KraftValue({self.as_fraction()})"


def kraft_sum(lengths: LengthsLike) -> KraftValue:
    """Exact sum of 2**-l over the nonzero entries of the vector."""
    cl = _as_code_lengths(lengths)
    shift = cl.max_len
    numerator = sum((1 << (shift - l)) for l in cl.lengths if l > 0)
    return KraftValue(numerator, shift)


def _require_feasible(cl: CodeLengths) -> None:
    ks = kraft_sum(cl)
    if not ks.is_valid:
        raise KraftViolation(
            f"code-length vector is over-subscribed: sum of 2**-l is {ks.as_fraction()} > 1"
        )


def _bits_of_int(value: int, width: int) -> Bits:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _int_of_bits(bits: Sequence[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


class DeflateCoding:
    """A total map from characters 0..n-1 to codes; () marks no code.

    Instances are value-like: equality is by code table.  The decode
    index is derived lazily and assumes the coding is canonical (as
    everything built by ``build_coding``/``build_coding_counting`` is);
    arbitrary tables from ``from_codes`` can be screened first with
    ``check_axioms``.
    """

    __slots__ = ("codes", "max_len", "_table")

    def __init__(self, codes: Iterable[Sequence[int]], max_len: int = MAX_CODE_LENGTH):
        table = tuple(tuple(c) for c in codes)
        for ch, code in enumerate(table):
            if len(code) > max_len:
                raise LengthOverflow(
                    f"code of character {ch} is longer than the maximum {max_len}"
                )
            for b in code:
                if b not in (0, 1):
                    raise ValueOutOfRange(f"code bit {b!r} of character {ch} is not 0 or 1")
        self.codes = table
        self.max_len = max_len
        self._table = None

    @classmethod
    def from_codes(cls, codes: Iterable[Sequence[int]], max_len: int = MAX_CODE_LENGTH):
        return cls(codes, max_len)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, ch: int) -> Bits:
        return self.codes[ch]

    def __eq__(self, other) -> bool:
        if isinstance(other, DeflateCoding):
            return self.codes == other.codes
        return NotImplemented

    def __hash__(self):
        return hash(self.codes)

    def __repr__(self) -> str:
        shown = {ch: "".join(map(str, c)) for ch, c in enumerate(self.codes) if c}
        return f"DeflateCoding({shown})"

    def code_lengths(self) -> CodeLengths:
        return CodeLengths((len(c) for c in self.codes), self.max_len)

    # -- decoding -----------------------------------------------------

    def _decode_table(self) -> "_DecodeTable":
        if self._table is None:
            self._table = _DecodeTable(self.codes)
        return self._table

    def read_symbol(self, data: bytes, bit_pos: int, bit_end: int) -> tuple[int, int]:
        """Low-level decode over raw buffer positions; see decode_symbol."""
        return self._decode_table().read(data, bit_pos, bit_end)


class _DecodeTable:
    """A primary lookup table over a per-length first-value/limit walk.

    For each code length L the nonempty codes occupy the dense value
    range [first[L], limit[L]), and first[L] is limit[L-1] doubled.  So
    the walk needs no tree: it accumulates bits into a value, which is
    at least first[L] at length L, until the value drops below limit[L];
    past the longest length the bits begin no code (BadCode).

    The primary table (zlib ``inftrees.c``; Moffat & Turpin 1997) has
    2**bits entries, bits = min(9, max_len), indexed by the next
    ``bits`` stream bits, least significant first: ``(symbol << 4) |
    length`` for the code of length <= bits they begin with, else -1.
    ``read`` looks up only when ``bits`` bits remain before ``bit_end``;
    a -1 entry or a shorter tail goes to the walk, so BadCode and
    EndOfInput keep the walk's bit positions and no bit past
    ``bit_end`` is read.
    """

    __slots__ = ("max_len", "limit", "base", "syms", "bits", "table")

    def __init__(self, codes: Sequence[Bits]):
        entries = sorted(
            (len(code), _int_of_bits(code), ch)
            for ch, code in enumerate(codes)
            if code
        )
        # Every character absent is a legitimate coding (e.g. a block that
        # never uses distances); reads then fail at the read position.
        self.max_len = entries[-1][0] if entries else 0
        self.limit = [0] * (self.max_len + 1)
        self.base = [0] * (self.max_len + 1)
        self.syms: list[int] = []
        i = 0
        value = 0
        for length in range(1, self.max_len + 1):
            value <<= 1  # first[length]
            self.base[length] = len(self.syms) - value
            while i < len(entries) and entries[i][0] == length:
                if entries[i][1] != value:
                    raise ValueOutOfRange(
                        "coding is not canonical; decode table unavailable"
                    )
                self.syms.append(entries[i][2])
                value += 1
                i += 1
            self.limit[length] = value
        self.bits = min(_TABLE_BITS, self.max_len)
        self.table = [-1] * (1 << self.bits)
        for ch, code in enumerate(codes):
            if code and len(code) <= self.bits:
                # The first code bit is the first stream bit, so the
                # index ends in the code reversed; the rest is free.
                fill = [(ch << 4) | len(code)] * (len(self.table) >> len(code))
                self.table[_int_of_bits(code[::-1]) :: 1 << len(code)] = fill

    def read(self, data: bytes, bit_pos: int, bit_end: int) -> tuple[int, int]:
        if bit_pos + self.bits <= bit_end:
            entry = self.table[read_bits(data, bit_pos, self.bits, bit_end)[0]]
            if entry >= 0:
                return entry >> 4, bit_pos + (entry & 15)
        value = 0
        pos = bit_pos
        limit = self.limit
        for length in range(1, self.max_len + 1):
            if pos >= bit_end:
                raise EndOfInput(pos, "a prefix code")
            value = (value << 1) | ((data[pos >> 3] >> (pos & 7)) & 1)
            pos += 1
            if value < limit[length]:
                return self.syms[self.base[length] + value], pos
        raise BadCode(bit_pos)


def build_coding(lengths: LengthsLike, max_len: int = MAX_CODE_LENGTH) -> DeflateCoding:
    """Construct the canonical coding for a length vector incrementally.

    Characters are visited sorted by (length, character), zero lengths
    first (they get the empty code).  The first nonzero-length character
    receives the all-zero code of its length; each later one takes the
    binary successor of the previous code, extended with zeros to the
    new length.  Feasibility (Kraft sum <= 1) guarantees the successor
    never overflows its width.
    """
    cl = _as_code_lengths(lengths, max_len)
    _require_feasible(cl)
    order = sorted(range(len(cl.lengths)), key=lambda ch: (cl.lengths[ch], ch))
    codes: list[Bits] = [()] * len(cl.lengths)
    prev: Optional[Bits] = None
    for ch in order:
        length = cl.lengths[ch]
        if length == 0:
            continue
        if prev is None:
            bits = (0,) * length
        else:
            bits = _successor(prev) + (0,) * (length - len(prev))
        codes[ch] = bits
        prev = bits
    return DeflateCoding(codes, cl.max_len)


def _successor(bits: Bits) -> Bits:
    """The next bit sequence of the same width, numerically one larger."""
    out = list(bits)
    i = len(out) - 1
    while i >= 0 and out[i] == 1:
        out[i] = 0
        i -= 1
    if i < 0:
        # Unreachable after the feasibility gate: the all-ones code can
        # only ever be the last one placed.
        raise KraftViolation("code space exhausted while assigning codes")
    out[i] = 1
    return tuple(out)


def build_coding_counting(
    lengths: LengthsLike, max_len: int = MAX_CODE_LENGTH
) -> DeflateCoding:
    """Construct the same canonical coding by counting lengths.

    The first code value of each length comes from the recurrence
    first[m] = (first[m-1] + count[m-1]) * 2; characters then claim
    consecutive values within their length class in character order.
    Note the superficially similar closed form sum(2**j * count[j] for
    j < m) is NOT equivalent: it disagrees whenever a shorter length
    class is partially or fully empty (for example count = {1: 0, 2: 2}
    yields 8 instead of the correct 4), so the recurrence is used.
    """
    cl = _as_code_lengths(lengths, max_len)
    _require_feasible(cl)
    counts = [0] * (cl.max_len + 1)
    for l in cl.lengths:
        if l > 0:
            counts[l] += 1
    next_value = [0] * (cl.max_len + 1)
    value = 0
    for length in range(1, cl.max_len + 1):
        value = (value + counts[length - 1]) << 1
        next_value[length] = value
    codes: list[Bits] = []
    for l in cl.lengths:
        if l == 0:
            codes.append(())
        else:
            codes.append(_bits_of_int(next_value[l], l))
            next_value[l] += 1
    return DeflateCoding(codes, cl.max_len)


def has_all_ones_code(coding: DeflateCoding) -> bool:
    """True when some nonempty code consists solely of 1-bits.

    For codings built from a length vector this happens exactly when
    the Kraft sum saturates at 1.
    """
    return any(code and all(b == 1 for b in code) for code in coding.codes)


def encode_symbol(coding: DeflateCoding, ch: int) -> Bits:
    """The code of character ch; raises for absent codes."""
    if not 0 <= ch < len(coding.codes):
        raise UnencodableCharacter(f"character {ch} is outside the alphabet")
    code = coding.codes[ch]
    if not code:
        raise UnencodableCharacter(f"character {ch} has no code")
    return code


def decode_symbol(coding: DeflateCoding, cursor: BitCursor) -> tuple[int, BitCursor]:
    """Read exactly one code from the cursor; returns (character, rest)."""
    ch, pos = coding.read_symbol(cursor.data, cursor.bit_pos, 8 * len(cursor.data))
    return ch, BitCursor(cursor.data, pos)


# -- canonicity checking ----------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking the four canonicity rules.

    Each field holds None on success or a witness of the violation:
    a pair of characters for rules 1-3, and (character, bit sequence)
    for rule 4, where the bit sequence sorts at or below the
    character's code yet no code prefixes it.
    """

    prefix_free: Optional[tuple[int, int]]
    shorter_first: Optional[tuple[int, int]]
    ordered_within_length: Optional[tuple[int, int]]
    no_gaps: Optional[tuple[int, Bits]]

    @property
    def all_pass(self) -> bool:
        return (
            self.prefix_free is None
            and self.shorter_first is None
            and self.ordered_within_length is None
            and self.no_gaps is None
        )

    def failing_axioms(self) -> tuple[int, ...]:
        out = []
        for i, w in enumerate(
            (self.prefix_free, self.shorter_first, self.ordered_within_length, self.no_gaps),
            start=1,
        ):
            if w is not None:
                out.append(i)
        return tuple(out)


def check_axioms(coding: DeflateCoding) -> AxiomReport:
    """Check the four canonicity rules, returning witnesses for failures."""
    nonempty = [(ch, code) for ch, code in enumerate(coding.codes) if code]

    # Rule 1: prefix-freeness.  In lexicographic order any prefix pair
    # brackets only extensions of the shorter code, so checking adjacent
    # entries suffices.
    prefix_witness = None
    by_code = sorted(nonempty, key=lambda e: e[1])
    for (ch_a, a), (ch_b, b) in zip(by_code, by_code[1:]):
        if len(a) <= len(b) and b[: len(a)] == a:
            prefix_witness = (ch_a, ch_b)
            break

    # Rules 2 and 3 via per-length extremes and in-class ordering.
    shorter_witness = None
    ordered_witness = None
    by_length: dict[int, list[tuple[int, Bits]]] = {}
    for ch, code in nonempty:
        by_length.setdefault(len(code), []).append((ch, code))
    lengths_present = sorted(by_length)
    for l_prev, l_next in zip(lengths_present, lengths_present[1:]):
        ch_a, a = max(by_length[l_prev], key=lambda e: e[1])
        ch_b, b = min(by_length[l_next], key=lambda e: e[1])
        if not a <= b:
            shorter_witness = (ch_a, ch_b)
            break
    for l in lengths_present:
        group = by_length[l]  # already in character order
        for (ch_a, a), (ch_b, b) in zip(group, group[1:]):
            if not a <= b:
                ordered_witness = (ch_a, ch_b)
                break
        if ordered_witness:
            break

    gap_witness = _find_gap(nonempty, by_length, lengths_present)

    return AxiomReport(prefix_witness, shorter_witness, ordered_witness, gap_witness)


def _find_gap(nonempty, by_length, lengths_present) -> Optional[tuple[int, Bits]]:
    """Smallest uncovered bit sequence violating rule 4, if any."""
    all_values = [(len(code), _int_of_bits(code)) for _, code in nonempty]
    for l in lengths_present:
        ch_max, code_max = max(by_length[l], key=lambda e: (_int_of_bits(e[1]), e[0]))
        vmax = _int_of_bits(code_max)
        # Union of intervals each code covers when expanded to length l.
        intervals = sorted(
            ((v << (l - m)), ((v + 1) << (l - m)))
            for m, v in all_values
            if m <= l
        )
        covered_up_to = 0
        for lo, hi in intervals:
            if lo > covered_up_to:
                break
            covered_up_to = max(covered_up_to, hi)
        if covered_up_to <= vmax:
            return (ch_max, _bits_of_int(covered_up_to, l))
    return None


# -- the two fixed codings --------------------------------------------

_FIXED_LIT: Optional[DeflateCoding] = None
_FIXED_DIST: Optional[DeflateCoding] = None


def fixed_lit_coding() -> DeflateCoding:
    """The static-block literal/length coding over the 288-character alphabet."""
    global _FIXED_LIT
    if _FIXED_LIT is None:
        lengths = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
        _FIXED_LIT = build_coding(lengths)
    return _FIXED_LIT


def fixed_dist_coding() -> DeflateCoding:
    """The static-block distance coding: 32 five-bit codes."""
    global _FIXED_DIST
    if _FIXED_DIST is None:
        _FIXED_DIST = build_coding([5] * 32)
    return _FIXED_DIST
