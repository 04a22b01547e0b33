"""Seeded inputs for the three benchmark workloads.

Every item is a pure function of (workload, seed, index): each one gets
its own ``random.Random`` seeded from that triple, so items can be made
lazily, in any order, and the same seed always gives the same bytes.
"""

from __future__ import annotations

import functools
import importlib.util
import random
import zlib
from pathlib import Path

# Three 32 KiB windows: the ring window wraps twice, the QueueOfDoom
# demotes its front twice (so a back list is actually doomed), and the
# compressor's 2^15-bucket hash table sees every bucket reused.
WINDOW_BYTES = 32 * 1024
ITEM_BYTES = 3 * WINDOW_BYTES

# Share of each window given to short-period runs.  No test or corpus in
# the repository fixes it: it is an assumption, standing for the "long
# runs" corpus of the ROADMAP and giving the decoder overlapping copies
# (length > distance) in every window.
_RUN_SHARE = 0.1

# (level, strategy) pairs for the zlib-dynamic members, used in turn.
# zlib is the only producer of dynamic blocks, codes up to 15 bits and
# the distance-1 runs of Z_RLE.
ZLIB_SETTINGS = tuple(
    (level, strategy)
    for level in (1, 6, 9)
    for strategy in (zlib.Z_DEFAULT_STRATEGY, zlib.Z_HUFFMAN_ONLY, zlib.Z_RLE)
)
STRATEGY_NAMES = {
    zlib.Z_DEFAULT_STRATEGY: "default",
    zlib.Z_HUFFMAN_ONLY: "huffman_only",
    zlib.Z_RLE: "rle",
}

CONFTEST = Path(__file__).resolve().parent.parent / "tests" / "conftest.py"


@functools.cache
def _test_generators():
    """The test suite's ``english_text`` and ``log_text`` stand-ins.

    Loaded from the checkout's tests/conftest.py, so the benchmark's
    text is the text the tests compress.
    """
    spec = importlib.util.spec_from_file_location("deflatekit_test_corpus", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.english_text, module.log_text


def _short_runs(rng: random.Random, size: int) -> bytes:
    """Periodic runs of period 1..8: backrefs whose length exceeds their distance."""
    parts = []
    total = 0
    while total < size:
        unit = bytes(rng.choices(b"=-_.*#+~0123456789abcdef \t", k=rng.randrange(1, 9)))
        run = unit * (rng.randrange(40, 400) // len(unit) + 1) + b"\n"
        parts.append(run)
        total += len(run)
    return b"".join(parts)[:size]


def text_item(rng: random.Random, size: int) -> bytes:
    """Prose, log lines and short-period runs, the same mix in every window.

    Each 32 KiB window holds prose and log lines in the 80 000 : 60 000
    byte proportion of criterion 10's text corpus
    (tests/test_acceptance.py), made by the same generators, and then
    one tenth of short-period runs (see ``_RUN_SHARE``).
    """
    english_text, log_text = _test_generators()
    runs = int(WINDOW_BYTES * _RUN_SHARE)
    prose = (WINDOW_BYTES - runs) * 4 // 7
    logs = WINDOW_BYTES - runs - prose
    parts = []
    for _ in range(-(-size // WINDOW_BYTES)):
        parts.append(english_text(prose, rng.randrange(2**32)))
        parts.append(log_text(logs, rng.randrange(2**32)))
        parts.append(_short_runs(rng, runs))
    return b"".join(parts)[:size]


def incompressible_item(rng: random.Random, index: int, size: int) -> bytes:
    """Even items: random bytes.  Odd items: zlib output of fresh text."""
    if index % 2 == 0:
        return rng.randbytes(size)
    parts = []
    total = 0
    while total < size:
        raw = zlib.compressobj(6, zlib.DEFLATED, -15)
        chunk = raw.compress(text_item(rng, 32 * 1024)) + raw.flush()
        parts.append(chunk)
        total += len(chunk)
    return b"".join(parts)[:size]


def make_item(workload: str, seed: int, index: int, size: int) -> bytes:
    """The plaintext of item ``index`` of a workload."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "incompressible":
        return incompressible_item(rng, index, size)
    return text_item(rng, size)


def zlib_setting(index: int) -> tuple[int, int]:
    """The (level, strategy) that makes zlib-dynamic member ``index``."""
    return ZLIB_SETTINGS[index % len(ZLIB_SETTINGS)]


def zlib_gzip(data: bytes, level: int, strategy: int = zlib.Z_DEFAULT_STRATEGY) -> bytes:
    """A single gzip member made by stdlib zlib."""
    c = zlib.compressobj(level, zlib.DEFLATED, 31, 8, strategy)
    return c.compress(data) + c.flush()
