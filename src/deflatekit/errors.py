"""Exception types shared across the codec, and ``FailReason``.

Each fault the inflate parsers raise for a malformed stream carries the
``reason``, ``bit_pos`` and ``detail`` of its ``NoParse``: ``EndOfInput``
and ``BadCode`` from the bit reader and the prefix decoder, ``InflateError``
for every other grammar violation and from the raising entry points.
"""

import enum


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


class DeflateError(Exception):
    """Base class for every error this package raises deliberately."""


class EndOfInput(DeflateError):
    """A read ran past the end of the bit buffer."""

    reason = FailReason.END_OF_INPUT
    detail = ""

    def __init__(self, bit_pos: int, what: str = "input"):
        super().__init__(f"ran out of bits at bit {bit_pos} while reading {what}")
        self.bit_pos = bit_pos


class ValueOutOfRange(DeflateError, ValueError):
    """A value does not fit the field or parameter it was given to."""


class LengthOverflow(DeflateError, ValueError):
    """A code length exceeds the maximum the coding permits."""


class KraftViolation(DeflateError, ValueError):
    """A code-length vector is over-subscribed; no prefix-free coding exists."""


class BadCode(DeflateError):
    """Bits match no code of the coding and no code can extend them."""

    reason = FailReason.BAD_CODE
    detail = ""

    def __init__(self, bit_pos: int, message: str = "bits match no code"):
        super().__init__(f"{message} (starting at bit {bit_pos})")
        self.bit_pos = bit_pos


class InvalidCodepoint(DeflateError, ValueError):
    """A codepoint is outside the table's domain or forbidden in data."""


class DistanceTooFar(DeflateError):
    """A backreference reaches past the bytes the window currently holds."""


class BadMagic(DeflateError):
    """The gzip header is malformed: bad magic, truncated, reserved flags, bad header CRC."""


class UnsupportedMethod(DeflateError):
    """The container names a compression method other than deflate."""


class TrailerMismatch(DeflateError):
    """Checksum or size in the container trailer disagrees with the payload."""


class InflateError(DeflateError):
    """A deflate stream failed to parse: its FailReason, bit offset and detail."""

    def __init__(self, reason: FailReason, bit_pos: int, detail: str = ""):
        msg = f"cannot parse deflate stream at bit {bit_pos}: {reason.value}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.reason = reason
        self.bit_pos = bit_pos
        self.detail = detail
