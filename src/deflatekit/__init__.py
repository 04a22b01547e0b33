"""deflatekit: a pure-Python deflate codec built from first principles.

The pieces compose bottom-up: bit-level IO, canonical prefix codings,
codepoint tables and tokens, the decompressor and its output window,
the greedy compressor, and gzip framing.  The top-level convenience
surface below covers the common round trip.
"""

from .compress import CompressParams, deflate
from .errors import DeflateError, InflateError
from .gzip_container import crc32, gzip_compress, gzip_decompress
from .inflate import inflate

__all__ = [
    "CompressParams",
    "DeflateError",
    "InflateError",
    "crc32",
    "deflate",
    "gzip_compress",
    "gzip_decompress",
    "inflate",
]

__version__ = "0.1.0"
