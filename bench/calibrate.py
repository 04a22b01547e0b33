"""Machine-speed calibration of the benchmark's timings.

On a shared host the speed of this process changes by 1.5x to 2x for
seconds or minutes at a time while neighbours run: process CPU time
moves with wall time, so the same work simply runs slower.  No statistic
inside one run removes a slow stretch that lasts the whole run.  So
every timed call is bracketed by a fixed reference kernel, and the
call's time is reported in units of that kernel: scaled to the time the
kernel takes at this module's reference speed.  A change to deflatekit
moves the call and not the kernel, so it shows in full; a change of
the host's speed moves both.

There are three kernels, because different kinds of code slow down by
different factors on this kind of host.  In a two-minute probe, the
slow stretches were 1.75x for ``python_kernel`` against 1.69x to 1.76x
for deflatekit's compress and token decode of text, 1.50x for
``crc_kernel`` against 1.49x for decoding stored blocks, and 1.33x for
``zlib_kernel`` against 1.26x to 1.40x for stdlib zlib compressing at
levels 9 and 1.

* ``python_kernel``: a pure-Python hash scan over bytes, with the
  indexing, dict and list traffic and bit arithmetic of deflatekit's
  compressor and token decoder.  It calibrates deflatekit's calls on
  text, its decompress calls on zlib's members, and ``setup_s``.
* ``crc_kernel``: a table-driven CRC-32 loop over bytes.  It calibrates
  the calls of the incompressible workload.  Decoding stored blocks is
  almost all CRC-32.  Compressing bytes in which the matcher finds
  nothing slowed less than ``python_kernel`` too: over ten runs, its
  calibrated throughput spread 0.03 by this kernel and 0.08 by
  ``python_kernel``.
* ``zlib_kernel``: stdlib ``zlib`` compressing a fixed buffer.  It
  calibrates the stdlib zlib calls that make the zlib-dynamic members.

The reference times are what each kernel took in the quiet stretches
of a two-core container of a shared Intel Xeon host, Python 3.11, so a
calibrated time there reads as the wall time of an undisturbed call.
"""

from __future__ import annotations

import time
import zlib

# Seconds each kernel takes at the reference speed.
REFERENCE_SECONDS = {"python": 0.0132, "crc": 0.0097, "zlib": 0.0030}


def _text(size: int, alphabet: bytes) -> bytes:
    """Deterministic filler text (a linear congruential sequence)."""
    state = 12345
    out = bytearray(size)
    for i in range(size):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out[i] = alphabet[(state >> 16) % len(alphabet)]
    return bytes(out)


_PYTHON_INPUT = _text(24000, b"etaoin shrdlu\n")
_CRC_INPUT = _text(75000, bytes(range(256)))
_ZLIB_INPUT = _text(64 * 1024, b"etaoin shrdlucmfwyp,.\n")


def _crc_table() -> list[int]:
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        table.append(c)
    return table


_CRC_TABLE = _crc_table()


def python_kernel() -> int:
    data = _PYTHON_INPUT
    heads: dict[int, int] = {}
    out = []
    acc = 0
    for i in range(len(data) - 2):
        h = ((data[i] << 10) ^ (data[i + 1] << 5) ^ data[i + 2]) & 0x7FFF
        prev = heads.get(h)
        heads[h] = i
        if prev is not None and data[prev] == data[i]:
            acc = (acc * 31 + i - prev) & 0xFFFFFFFF
        else:
            acc = ((acc << 1) ^ data[i]) & 0xFFFFFFFF
        out.append(acc & 0xFF)
    return acc


def crc_kernel() -> int:
    crc = 0xFFFFFFFF
    table = _CRC_TABLE
    for b in _CRC_INPUT:
        crc = (crc >> 8) ^ table[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


def zlib_kernel() -> int:
    return len(zlib.compress(_ZLIB_INPUT, 6))


KERNELS = {"python": python_kernel, "crc": crc_kernel, "zlib": zlib_kernel}


def time_kernel(name: str) -> float:
    """Seconds one run of kernel ``name`` takes now."""
    kernel = KERNELS[name]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
