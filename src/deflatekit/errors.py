"""Exception types shared across the codec, and ``FailReason``.

Every fault of a malformed stream, from the bit reader, the prefix
decoder or the block grammar, is one ``InflateError`` carrying the
``reason``, ``bit_pos`` and ``detail`` of its ``NoParse``.
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


class ValueOutOfRange(DeflateError, ValueError):
    """A value does not fit the field or parameter it was given to."""


class LengthOverflow(DeflateError, ValueError):
    """A code length exceeds the maximum the coding permits."""


class KraftViolation(DeflateError, ValueError):
    """A code-length vector is over-subscribed; no prefix-free coding exists."""


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
