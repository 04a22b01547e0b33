"""Exception types shared across the codec."""


class DeflateError(Exception):
    """Base class for every error this package raises deliberately."""


class EndOfInput(DeflateError):
    """A read ran past the end of the bit buffer."""

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
    """A deflate stream failed to parse; carries the failure reason and bit offset."""

    def __init__(self, reason, bit_pos: int, detail: str = ""):
        msg = f"cannot parse deflate stream at bit {bit_pos}: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.reason = reason
        self.bit_pos = bit_pos
