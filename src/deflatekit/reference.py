"""Reference models and specifications; only the tests import them.

``build_coding_sorted`` is a second, independent construction (a sort
by length, then character): its code values must equal
``build_coding``'s, which come from each length class's first code, on
every vector, since canonical codings are unique.
``bit_codes`` gives a coding as the paper's map from characters to bit
sequences.  ``kraft_sum`` and ``has_all_ones_code`` state the extended
Kraft property, and ``check_axioms`` checks the four canonicity rules
that ``prefix_coding`` lists on such a code table, with a witness for
each rule that fails.
``LENGTH_TABLE``, ``DISTANCE_TABLE`` and their encode/decode functions
transcribe RFC 1951 §3.2.5, the spec of ``symbol_tables``' flat tables;
``explist_len`` and ``explist_iter`` view a whole ExpList.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import DeflateError, InvalidCodepoint, ValueOutOfRange
from .history_window import ENIL, Econs1, ExpList
from .prefix_coding import MAX_CODE_LENGTH, DeflateCoding, canonical_codes, check_lengths
from .symbol_tables import MAX_MATCH_LENGTH, MIN_MATCH_LENGTH

Bits = tuple[int, ...]


def _bits_of_int(value: int, width: int) -> Bits:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def bit_codes(coding: DeflateCoding) -> tuple[Bits, ...]:
    """Each character's code as a tuple of bits, leftmost first; () for no code."""
    return tuple(map(_bits_of_int, canonical_codes(coding.lengths)[0], coding.lengths))


def _int_of_bits(bits: Sequence[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def build_coding_sorted(
    lengths: Sequence[int], max_len: int = MAX_CODE_LENGTH
) -> tuple[int, ...]:
    """The canonical code values of a length vector, by sorting its characters.

    Characters are visited sorted by (length, character), skipping zero
    lengths (no code): the first receives the all-zero code of its
    length, and each later one the previous code plus one, shifted left
    by the growth in length.
    """
    check_lengths(lengths, max_len)
    values = [0] * len(lengths)
    code = -1  # so that the first code, (code + 1) << its length, is 0
    prev_len = 0
    for ch in sorted(range(len(lengths)), key=lengths.__getitem__):
        length = lengths[ch]
        if length:
            code = (code + 1) << (length - prev_len)
            prev_len = length
            values[ch] = code
    return tuple(values)


def kraft_sum(lengths: Sequence[int]) -> Fraction:
    """Exact sum of 2**-l over the nonzero entries of the vector, as a Fraction."""
    shift = max(lengths, default=0)
    return Fraction(sum(1 << (shift - l) for l in lengths if l > 0), 1 << shift)


def has_all_ones_code(coding: DeflateCoding) -> bool:
    """True when some nonempty code consists solely of 1-bits.

    For codings built from a length vector this happens exactly when
    the Kraft sum saturates at 1.
    """
    return any(code and all(b == 1 for b in code) for code in bit_codes(coding))


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


def check_axioms(codes: Sequence[Sequence[int]]) -> AxiomReport:
    """Check the four canonicity rules on a code table, with witnesses for failures.

    ``codes[ch]`` is the bit sequence of character ch, () for none;
    ``bit_codes`` of a coding is such a table.
    """
    nonempty = [(ch, tuple(code)) for ch, code in enumerate(codes) if code]

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


# -- RFC 1951 §3.2.5: length and distance codepoints ----------------------

MAX_DISTANCE = 32768

# codepoint -> (extra_bits, base_length)
LENGTH_TABLE: dict[int, tuple[int, int]] = {
    257: (0, 3),
    258: (0, 4),
    259: (0, 5),
    260: (0, 6),
    261: (0, 7),
    262: (0, 8),
    263: (0, 9),
    264: (0, 10),
    265: (1, 11),
    266: (1, 13),
    267: (1, 15),
    268: (1, 17),
    269: (2, 19),
    270: (2, 23),
    271: (2, 27),
    272: (2, 31),
    273: (3, 35),
    274: (3, 43),
    275: (3, 51),
    276: (3, 59),
    277: (4, 67),
    278: (4, 83),
    279: (4, 99),
    280: (4, 115),
    281: (5, 131),
    282: (5, 163),
    283: (5, 195),
    284: (5, 227),
    285: (0, 258),
}

# codepoint -> (extra_bits, base_distance)
DISTANCE_TABLE: dict[int, tuple[int, int]] = {
    0: (0, 1),
    1: (0, 2),
    2: (0, 3),
    3: (0, 4),
    4: (1, 5),
    5: (1, 7),
    6: (2, 9),
    7: (2, 13),
    8: (3, 17),
    9: (3, 25),
    10: (4, 33),
    11: (4, 49),
    12: (5, 65),
    13: (5, 97),
    14: (6, 129),
    15: (6, 193),
    16: (7, 257),
    17: (7, 385),
    18: (8, 513),
    19: (8, 769),
    20: (9, 1025),
    21: (9, 1537),
    22: (10, 2049),
    23: (10, 3073),
    24: (11, 4097),
    25: (11, 6145),
    26: (12, 8193),
    27: (12, 12289),
    28: (13, 16385),
    29: (13, 24577),
}

# Distance codepoints that may appear in a coding but never in data.
FORBIDDEN_DISTANCE_CODEPOINTS = (30, 31)


class InvalidLengthExtra(DeflateError, ValueError):
    """An extra-bits value names a match length the codepoint cannot carry."""


def length_decode(codepoint: int, extra: int) -> int:
    """Match length named by (codepoint, extra)."""
    bits, base = LENGTH_TABLE.get(codepoint, (None, None))
    if base is None:
        raise InvalidCodepoint(f"{codepoint} is not a length codepoint")
    if not 0 <= extra < (1 << bits):
        raise ValueOutOfRange(f"extra value {extra} does not fit in {bits} bits")
    if codepoint == 284 and extra == 31:
        # 227 + 31 would be 258, which codepoint 285 owns.
        raise InvalidLengthExtra("length codepoint 284 with extra value 31")
    return base + extra


def length_encode(length: int) -> tuple[int, int, int]:
    """Encode a match length as (codepoint, extra, extra_bits).

    Always picks the unique codepoint whose range covers the length;
    258 maps to codepoint 285, never to 284 with extra 31.
    """
    if not MIN_MATCH_LENGTH <= length <= MAX_MATCH_LENGTH:
        raise ValueOutOfRange(f"match length {length} not in 3..258")
    if length == MAX_MATCH_LENGTH:
        return 285, 0, 0
    # Ranges tile 3..257 in codepoint order; scan is fine for table size.
    for cp in range(284, 256, -1):
        bits, base = LENGTH_TABLE[cp]
        if base <= length:
            return cp, length - base, bits
    raise AssertionError("unreachable: length ranges tile 3..257")


def distance_decode(codepoint: int, extra: int) -> int:
    """Distance named by (codepoint, extra)."""
    bits, base = DISTANCE_TABLE.get(codepoint, (None, None))
    if base is None:
        raise InvalidCodepoint(f"{codepoint} is not a usable distance codepoint")
    if not 0 <= extra < (1 << bits):
        raise ValueOutOfRange(f"extra value {extra} does not fit in {bits} bits")
    return base + extra


def distance_encode(distance: int) -> tuple[int, int, int]:
    """Encode a distance as (codepoint, extra, extra_bits)."""
    if not 1 <= distance <= MAX_DISTANCE:
        raise ValueOutOfRange(f"distance {distance} not in 1..32768")
    for cp in range(29, -1, -1):
        bits, base = DISTANCE_TABLE[cp]
        if base <= distance:
            return cp, distance - base, bits
    raise AssertionError("unreachable: distance ranges tile 1..32768")


# -- whole-list views of an ExpList ----------------------------------------


def explist_len(e: ExpList) -> int:
    n = 0
    width = 1
    node = e
    while node is not ENIL:
        n += width if type(node) is Econs1 else 2 * width
        width <<= 1
        node = node.tail
    return n


def explist_iter(e: ExpList) -> Iterator:
    """All elements in index order (most recent first)."""
    node = e
    depth = 0
    while node is not ENIL:
        if type(node) is Econs1:
            yield from _flatten(node.head, depth)
        else:
            yield from _flatten(node.head, depth)
            yield from _flatten(node.head2, depth)
        node = node.tail
        depth += 1


def _flatten(item, depth: int) -> Iterator:
    if depth == 0:
        yield item
    else:
        yield from _flatten(item[0], depth - 1)
        yield from _flatten(item[1], depth - 1)
