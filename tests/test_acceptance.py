"""The acceptance gate: eleven end-to-end criteria, one test each.

Every criterion contributes exactly one PASS/FAIL line to the terminal
summary (rendered by the hook in conftest) with its measured numbers,
in addition to the ordinary pytest verdict.
"""

import math
import random
import shutil
import subprocess
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import pytest

from deflatekit.compress import deflate
from deflatekit.gzip_container import gzip_compress, gzip_decompress
from deflatekit.history_window import QueueOfDoom, resolve_tokens
from deflatekit.inflate import (
    Parsed,
    RingWindow,
    inflate,
    parse_deflate,
    parse_dynamic_header,
    resolve_tokens_ring,
)
from deflatekit.prefix_coding import build_coding, canonical_codes
from deflatekit.reference import (
    bit_codes,
    build_coding_sorted,
    check_axioms,
    explist_iter,
    has_all_ones_code,
    kraft_sum,
)
from deflatekit.symbol_tables import WINDOW_SIZE, BackRef, Literal

from conftest import (
    ACCEPTANCE_LINES,
    GOLDEN_DYNAMIC_BYTES,
    GOLDEN_DYNAMIC_CONSUMED,
    GOLDEN_PLAINTEXT,
    GOLDEN_STATIC_BYTES,
    GOLDEN_STATIC_CONSUMED,
    english_text,
    log_text,
    mixed_corpus_item,
    random_code_lengths,
)


@contextmanager
def criterion(n: int, title: str):
    """Record one summary line for criterion n around the checks."""
    notes: list = []
    try:
        yield notes
    except pytest.skip.Exception as e:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {n:02d}: SKIP - {title} ({e})")
        raise
    except BaseException as e:
        detail = repr(e)
        if len(detail) > 200:
            detail = detail[:200] + "..."
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {n:02d}: FAIL - {title}: {detail}")
        raise
    line = f"ACCEPTANCE {n:02d}: PASS - {title}"
    if notes:
        line += f" ({', '.join(str(x) for x in notes)})"
    ACCEPTANCE_LINES.append(line)


def test_criterion_01_static_golden_vector():
    with criterion(1, "static golden vector inflates bit-exactly under 1 ms") as notes:
        outcome = parse_deflate(GOLDEN_STATIC_BYTES)
        assert isinstance(outcome, Parsed)
        assert outcome.value == GOLDEN_PLAINTEXT
        assert outcome.consumed_bits == GOLDEN_STATIC_CONSUMED
        inflate(GOLDEN_STATIC_BYTES)  # warm the cached fixed codings
        best = math.inf
        for _ in range(30):
            t0 = time.perf_counter()
            value = inflate(GOLDEN_STATIC_BYTES)
            best = min(best, time.perf_counter() - t0)
            assert value == GOLDEN_PLAINTEXT
        notes.append(f"best of 30: {best * 1000:.3f} ms")
        assert best < 0.001


def test_criterion_02_dynamic_golden_vector():
    with criterion(
        2, "dynamic golden vector inflates with the expected header values"
    ) as notes:
        outcome = parse_deflate(GOLDEN_DYNAMIC_BYTES)
        assert isinstance(outcome, Parsed)
        assert outcome.value == GOLDEN_PLAINTEXT
        assert outcome.consumed_bits == GOLDEN_DYNAMIC_CONSUMED
        header = parse_dynamic_header(GOLDEN_DYNAMIC_BYTES, 3).value
        assert (header.hlit, header.hdist, header.hclen) == (260, 6, 18)
        expected_cl = {
            1: (1, 1, 1, 0),
            2: (1, 1, 1, 1),
            3: (0, 0),
            4: (0, 1),
            17: (1, 0, 1),
            18: (1, 1, 0),
        }
        cl_codes = bit_codes(header.cl_coding)
        for ch, code in expected_cl.items():
            assert cl_codes[ch] == code
        notes.append("hlit=260 hdist=6 hclen=18, 6 mappings checked")


def test_criterion_03_coding_construction_differential():
    with criterion(
        3, "worked coding reproduced and both constructions agree on 1000 vectors"
    ) as notes:
        assert bit_codes(build_coding([2, 1, 3, 3, 0])) == (
            (1, 0),
            (0,),
            (1, 1, 0),
            (1, 1, 1),
            (),
        )
        rng = random.Random(303)
        t0 = time.perf_counter()
        for _ in range(1000):
            lengths = random_code_lengths(rng)
            assert canonical_codes(lengths)[0] == build_coding_sorted(lengths)
        elapsed = time.perf_counter() - t0
        notes.append(f"{elapsed:.2f} s")
        assert elapsed < 5.0


def test_criterion_04_extended_kraft_property():
    with criterion(
        4, "Kraft sum <= 1 and saturation iff an all-ones code, no counterexamples"
    ) as notes:
        rng = random.Random(303)
        counterexamples = saturated = unsaturated = 0
        for _ in range(1000):
            lengths = random_code_lengths(rng)
            ks = kraft_sum(lengths)
            if ks > 1:
                counterexamples += 1
                continue
            coding = build_coding(lengths)
            if (ks == 1) != has_all_ones_code(coding):
                counterexamples += 1
            elif ks == 1:
                saturated += 1
            else:
                unsaturated += 1
        assert counterexamples == 0
        assert saturated > 100 and unsaturated > 100  # both sides exercised
        notes.append(f"{saturated} saturated, {unsaturated} unsaturated")


def test_criterion_05_axiom_suite():
    with criterion(
        5, "axioms hold on constructed codings; the gap coding fails exactly axiom 4"
    ) as notes:
        rng = random.Random(505)
        for _ in range(200):
            assert check_axioms(bit_codes(build_coding(random_code_lengths(rng)))).all_pass
        gap = [(0,), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        report = check_axioms(gap)
        assert report.failing_axioms() == (4,)
        assert report.no_gaps == (3, (1, 0, 0))
        notes.append("witness [1,0,0] on character 3")


def test_criterion_06_backreference_semantics():
    with criterion(
        6, "paper resolutions, eviction trace, and a 1e6-token resolver differential"
    ) as notes:
        t0 = time.perf_counter()

        def both(tokens):
            qb, _ = resolve_tokens(tokens, QueueOfDoom())
            ring = RingWindow()
            resolve_tokens_ring(tokens, ring)
            assert qb == ring
            return qb

        lits = lambda s: [Literal(b) for b in s]
        assert (
            both(lits(b"ananas_b") + [BackRef(5, 8), BackRef(3, 7)] + lits(b"tata"))
            == GOLDEN_PLAINTEXT
        )
        assert (
            both(
                lits(b"an")
                + [BackRef(3, 2)]
                + lits(b"s_b")
                + [BackRef(5, 8), BackRef(3, 7)]
                + lits(b"t")
                + [BackRef(3, 2)]
            )
            == GOLDEN_PLAINTEXT
        )
        assert both(lits(b"a") + [BackRef(7, 1)] + lits(b"rgh!")) == b"aaaaaaaargh!"

        trace = [
            ([1], []),
            ([2, 1], []),
            ([3, 2, 1], []),
            ([4], [3, 2, 1]),
            ([5, 4], [3, 2, 1]),
            ([6, 5, 4], [3, 2, 1]),
            ([7], [6, 5, 4]),
        ]
        q = QueueOfDoom(3)
        for value, (front, back) in zip(range(1, 8), trace):
            q = q.push(value)
            assert list(explist_iter(q.front)) == front
            assert list(explist_iter(q.back)) == back

        rng = random.Random(606)
        tokens = []
        produced = 0
        while len(tokens) < 1_000_000:
            if produced >= 3 and rng.random() < 0.2:
                length = rng.randint(3, 30)
                tokens.append(BackRef(length, rng.randint(1, min(produced, WINDOW_SIZE))))
                produced += length
            else:
                tokens.append(Literal(rng.randrange(256)))
                produced += 1
        queue_bytes, _ = resolve_tokens(tokens, QueueOfDoom())
        ring = RingWindow()
        resolve_tokens_ring(tokens, ring)
        assert queue_bytes == ring
        elapsed = time.perf_counter() - t0
        notes.append(f"{len(tokens)} tokens, {len(queue_bytes)} bytes, {elapsed:.1f} s")
        assert elapsed < 30.0


def test_criterion_07_round_trip_at_scale():
    with criterion(
        7, "1e4 randomized round trips plus a 1 MiB input in under 10 s"
    ) as notes:
        rng = random.Random(707)
        total = 0
        for _ in range(10_000):
            data = mixed_corpus_item(rng, rng.randrange(0, 200))
            total += len(data)
            assert inflate(deflate(data)) == data
        assert total <= 1 << 20
        big = log_text(1 << 20)
        assert len(big) == 1 << 20
        t0 = time.perf_counter()
        packed = deflate(big)
        assert inflate(packed) == big
        elapsed = time.perf_counter() - t0
        notes.append(f"corpus {total} bytes; 1 MiB round trip {elapsed:.2f} s")
        assert elapsed < 10.0


def test_criterion_08_strong_uniqueness():
    with criterion(
        8, "junk suffixes of 1..64 bytes never change output or consumption"
    ) as notes:
        rng = random.Random(808)
        streams = [GOLDEN_STATIC_BYTES, GOLDEN_DYNAMIC_BYTES]
        for _ in range(20):
            streams.append(deflate(mixed_corpus_item(rng, rng.randrange(0, 1500))))
        for level in (0, 6, 9):
            data = mixed_corpus_item(rng, 1200)
            co = zlib.compressobj(level, zlib.DEFLATED, -15)
            streams.append(co.compress(data) + co.flush())
        mismatches = 0
        for stream in streams:
            base = parse_deflate(stream)
            assert isinstance(base, Parsed)
            for junk_len in range(1, 65):
                if parse_deflate(stream + rng.randbytes(junk_len)) != base:
                    mismatches += 1
        assert mismatches == 0
        notes.append(f"{len(streams)} streams x 64 suffixes")


def test_criterion_09_compression_ratio_band():
    with criterion(9, "roughly 150 KB of English compresses to at most 0.90") as notes:
        desk_file = Path(__file__).parent / "data" / "alice29.txt"
        if desk_file.exists():
            text = desk_file.read_bytes()
            source = desk_file.name
        else:
            text = english_text(150_000)
            source = "generated English stand-in"
        packed = deflate(text)
        assert inflate(packed) == text
        ratio = len(packed) / len(text)
        notes.append(f"{source}, ratio {ratio:.3f}")
        assert ratio <= 0.90


def test_criterion_10_system_gzip_interop(tmp_path):
    with criterion(10, "system gzip and gunzip accept and produce our files") as notes:
        gzip_tool = shutil.which("gzip")
        gunzip_tool = shutil.which("gunzip")
        if not gzip_tool or not gunzip_tool:
            pytest.skip("system gzip/gunzip not available")
        corpus = {
            "english.txt": english_text(80_000),
            "server.log": log_text(60_000),
            "noise.bin": random.Random(1010).randbytes(20_000),
        }
        checked = 0
        for name, data in corpus.items():
            ours = tmp_path / (name + ".gz")
            ours.write_bytes(gzip_compress(data))
            out = subprocess.run(
                [gunzip_tool, "-c", str(ours)], capture_output=True, check=True
            )
            assert out.stdout == data
            plain = tmp_path / name
            plain.write_bytes(data)
            for level in ("-1", "-6", "-9"):
                out = subprocess.run(
                    [gzip_tool, level, "-c", str(plain)], capture_output=True, check=True
                )
                assert gzip_decompress(out.stdout) == data
                checked += 1
        notes.append(f"{len(corpus)} files ours->gunzip, {checked} gzip->ours")


def test_criterion_11_stored_fallback_size_bound():
    with criterion(11, "64 KiB of random bytes stays within the stored-block bound") as notes:
        n = 64 * 1024
        data = random.Random(1111).randbytes(n)
        packed = deflate(data)
        bound = n + 5 * math.ceil(n / 65535) + 8
        assert len(packed) <= bound
        assert inflate(packed) == data
        notes.append(f"{len(packed)} bytes vs bound {bound}")
