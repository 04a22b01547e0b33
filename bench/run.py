"""deflatekit benchmark: one workload, one seed, one process, one caller.

    python3 bench/run.py --workload text --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports deflatekit from the
checkout's ``src/``.  The loop is closed with a single caller: each call
starts only after the previous one returned.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` runs the traced per-layer pass (see
traced.py).  Call times are calibrated against fixed reference kernels
(see calibrate.py), so a slow stretch of a shared host does not show as
a slower program.  Every metric is printed by name with its unit and
direction;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (per-item
sha256 digests, zlib reference ratios, every sample) go to
``bench/results/``.  See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

import calibrate  # noqa: E402  (sibling modules; the script's directory is on sys.path)
import corpus  # noqa: E402

WORKLOADS = ("text", "zlib-dynamic", "incompressible")

# Items per run.  Each pass takes every item in turn: it compresses the
# item COMPRESS_REPEATS times, then decompresses the output
# DECOMPRESS_REPEATS times, so that short calls gather enough samples
# for their tail (at least 11 calls of the slowest item, even in a slow
# run).  The run makes passes until --seconds is used and each kind of
# call has at least MIN_CALLS samples, so that ten lie above its tail.
# zlib-dynamic takes one member per zlib (level, strategy) pair.
ITEMS = {"text": 6, "incompressible": 6, "zlib-dynamic": len(corpus.ZLIB_SETTINGS)}
COMPRESS_REPEATS = {"text": 1, "incompressible": 1, "zlib-dynamic": 2}
DECOMPRESS_REPEATS = {"text": 2, "incompressible": 4, "zlib-dynamic": 1}

# The item whose calls the memory peaks measure: item 0, except on
# zlib-dynamic, where it is the level-6 default member (zlib's default
# setting).  Item 0 there is level 1, and zlib's output buffer there
# grows in a step whose position depends on the seed.
PEAK_ITEM = {"zlib-dynamic": 3}

# The calibration kernel (see calibrate.py) of each workload's
# (compress, decompress) calls.
KERNELS = {"text": ("python", "python"), "incompressible": ("crc", "crc"),
           "zlib-dynamic": ("zlib", "python")}

SETUP_LAUNCHES = 11
TAIL_SAMPLES_ABOVE = 10
MIN_CALLS = 2 * TAIL_SAMPLES_ABOVE + 1

# name -> (unit, better)
E2E_METRICS = {
    "compress_mbps": ("MB/s", "higher"),
    "compress_tail_ms": ("ms", "lower"),
    "decompress_mbps": ("MB/s", "higher"),
    "decompress_tail_ms": ("ms", "lower"),
    "ratio": ("ratio", "lower"),
    "compress_peak_mib": ("MiB", "lower"),
    "decompress_peak_mib": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

# Run by a fresh interpreter; prints the seconds from just before the
# import to the end of a tiny round trip, then the seconds of one
# calibration kernel run in the same process.  Timing inside the child
# leaves out the bare interpreter start, whose jitter would swamp the
# figure.  The kernel's first run warms it up and is not used.
_SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]);"
    " from deflatekit import gzip_compress, gzip_decompress;"
    " d = b'setup round trip, setup round trip';"
    " ok = gzip_decompress(gzip_compress(d)) == d;"
    " t1 = time.perf_counter(); sys.path.insert(0, sys.argv[2]); import calibrate;"
    " calibrate.time_kernel('python');"
    " print(t1 - t0, calibrate.time_kernel('python')); sys.exit(not ok)"
)


class Ledger:
    """Counts attempted operations and keeps every failure; never raises."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, what: str, index, fn, *args):
        """Call fn(*args); returns (value, seconds) or (None, inf) if it raised.

        A garbage collection runs first, outside the timed region, so
        every call starts from the same heap state.
        """
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as e:  # a failed call is counted, never fatal
            self.fail(what, index, f"{type(e).__name__}: {e}")
            return None, math.inf
        return value, time.perf_counter() - t0

    def fail(self, what: str, index, detail: str) -> None:
        """Record a failure of an operation already counted as attempted."""
        self.failures.append({"operation": what, "item": index, "detail": detail})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stored_bound(n: int) -> int:
    """Largest gzip member deflatekit may produce for n input bytes.

    The raw stream is bounded by n + 5*ceil(n/65535) + 8 (criterion 11);
    the gzip container adds its fixed 10-byte header and 8-byte trailer.
    """
    return n + 5 * math.ceil(n / 65535) + 8 + 18


def every_call_tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples above.

    Failed calls are inf and sort last.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 1 - TAIL_SAMPLES_ABOVE
    return ordered[k], 100.0 * (k + 1) / n


def launch_setup(ledger: Ledger, count: int, times: list, raw: list) -> None:
    """Append to ``times`` the calibrated seconds (see calibrate.py), and
    to ``raw`` the wall seconds, that ``count`` fresh interpreters took to
    import deflatekit and finish a tiny round trip.

    This covers the import and the lazy table builds (the fixed codings,
    the encoder tables, the CRC table) and leaves out the bare
    interpreter start.  Each launch is calibrated by the kernel it runs
    right after.
    """
    cmd = [sys.executable, "-I", "-c", _SETUP_SNIPPET, str(SRC), str(BENCH_DIR)]
    for _ in range(count):
        ledger.attempted += 1
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60)
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: "
                                 f"{proc.stderr.decode(errors='replace')[-300:]}")
            setup, kernel = map(float, proc.stdout.split())
            times.append(setup * calibrate.REFERENCE_SECONDS["python"] / kernel)
            raw.append(setup)
        except (subprocess.TimeoutExpired, ValueError) as e:
            ledger.fail("setup", len(times), f"set-up launch failed: {e}")


def peak_mib(ledger: Ledger, what: str, fn, *args) -> float:
    """tracemalloc peak of one call, in MiB (an untimed pass)."""
    gc.collect()
    tracemalloc.start()
    try:
        _, dt = ledger.run(what, 0, fn, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20 if math.isfinite(dt) else math.inf


def zlib_reference(plain: bytes) -> dict:
    """stdlib zlib's gzip ratio at levels 1, 6 and 9 (ungated reference)."""
    return {f"zlib_l{lv}": len(corpus.zlib_gzip(plain, lv)) / len(plain) for lv in (1, 6, 9)}


def run_untraced(workload: str, seed: int, seconds: float, size: int, ledger: Ledger):
    from deflatekit import gzip_compress, gzip_decompress

    if workload == "zlib-dynamic":
        def compress(index: int, plain: bytes) -> bytes:
            return corpus.zlib_gzip(plain, *corpus.zlib_setting(index))
    else:
        def compress(index: int, plain: bytes) -> bytes:
            return gzip_compress(plain)
    compress_kernel, decompress_kernel = KERNELS[workload]
    kernels = sorted(set(KERNELS[workload]))

    def check_compressed(plain: bytes, gz: bytes) -> str:
        if workload == "zlib-dynamic":
            return ""  # the producer is zlib itself; decoding is checked below
        try:
            if zlib.decompress(gz, 31) != plain:
                return "zlib does not decode the gzip_compress output to the input"
        except zlib.error as e:
            return f"zlib rejects the gzip_compress output: {e}"
        if len(gz) > stored_bound(len(plain)):
            return f"{len(gz)} bytes exceeds the stored-block bound {stored_bound(len(plain))}"
        return ""

    # Calibration slots: each group of timed calls (an item's compress
    # calls in a pass, or its decompress calls) runs between two slots,
    # and each slot times every kernel the workload needs once (see
    # calibrate.py).
    slots: list[dict] = []

    def slot() -> int:
        slots.append({k: calibrate.time_kernel(k) for k in kernels})
        return len(slots) - 1

    def calibrate_calls(calls: list, kernel: str) -> list[float]:
        """Each (seconds, opening slot, closing slot) in reference seconds."""
        reference = calibrate.REFERENCE_SECONDS[kernel]
        return [dt * 2 * reference / (slots[a][kernel] + slots[b][kernel])
                for dt, a, b in calls]

    # Set-up launches are spread evenly over the timed passes, between
    # calls, so that a slow stretch of the host does not decide the
    # median.  The first launch may compile the bytecode caches and is
    # discarded.
    launch_setup(ledger, 1, [], [])
    setup_times: list[float] = []
    setup_raw: list[float] = []
    ledger.run("warm-up", None, lambda: gzip_decompress(gzip_compress(b"warm " * 9)))
    for kernel in kernels:
        calibrate.time_kernel(kernel)

    n = ITEMS[workload]
    decompress_repeats = DECOMPRESS_REPEATS[workload]
    plains = [corpus.make_item(workload, seed, i, size) for i in range(n)]
    p = PEAK_ITEM.get(workload, 0)
    compress_peak = peak_mib(ledger, "compress-peak", compress, p, plains[p])
    peak_gz, _ = ledger.run("compress", p, compress, p, plains[p])
    decompress_peak = (peak_mib(ledger, "decompress-peak", gzip_decompress, peak_gz)
                       if peak_gz is not None else math.inf)

    outputs: list = [None] * n
    # Per item, one (seconds, opening slot, closing slot) per call; a
    # failed call's seconds are inf.
    compress_calls: list[list[tuple]] = [[] for _ in range(n)]
    decompress_calls: list[list[tuple]] = [[] for _ in range(n)]
    start = time.perf_counter()
    deadline = start + seconds
    next_launch = start
    passes = 0

    def more() -> bool:
        fewest = min(sum(map(len, compress_calls)), sum(map(len, decompress_calls)))
        return time.perf_counter() < deadline or fewest < MIN_CALLS

    while passes == 0 or more():
        for i, plain in enumerate(plains):
            if passes and not more():
                break
            opening = slot()
            group = []
            for _ in range(COMPRESS_REPEATS[workload]):
                gz, dt = ledger.run("compress", i, compress, i, plain)
                if gz is not None:
                    problem = check_compressed(plain, gz)
                    if outputs[i] is None:
                        outputs[i] = gz
                    elif gz != outputs[i]:
                        problem = "output differs from this item's first compress call"
                    if problem:
                        ledger.fail("compress-check", i, problem)
                        dt = math.inf
                group.append(dt)
            middle = slot()
            compress_calls[i] += [(dt, opening, middle) for dt in group]
            group = []
            if gz is not None and math.isfinite(dt):
                for _ in range(decompress_repeats):
                    out, dt = ledger.run("decompress", i, gzip_decompress, gz)
                    if out is not None and out != plain:
                        ledger.fail("decompress-check", i, "output differs from the input")
                        dt = math.inf
                    group.append(dt)
            else:
                group = [math.inf] * decompress_repeats
            closing = slot()
            decompress_calls[i] += [(dt, middle, closing) for dt in group]
            if time.perf_counter() >= next_launch and len(setup_times) < SETUP_LAUNCHES:
                launch_setup(ledger, 1, setup_times, setup_raw)
                next_launch += seconds / SETUP_LAUNCHES
        passes += 1
    launch_setup(ledger, SETUP_LAUNCHES - len(setup_times), setup_times, setup_raw)

    compress_ref = [calibrate_calls(c, compress_kernel) for c in compress_calls]
    decompress_ref = [calibrate_calls(c, decompress_kernel) for c in decompress_calls]
    items = []
    for i, plain in enumerate(plains):
        record = {"item": i, "input_sha256": sha256(plain),
                  "compress_seconds": [c[0] for c in compress_calls[i]],
                  "compress_reference_seconds": compress_ref[i],
                  "decompress_seconds": [c[0] for c in decompress_calls[i]],
                  "decompress_reference_seconds": decompress_ref[i]}
        if workload == "zlib-dynamic":
            level, strategy = corpus.zlib_setting(i)
            record["zlib"] = f"level {level}, {corpus.STRATEGY_NAMES[strategy]}"
        else:
            record.update(zlib_reference(plain))
        if outputs[i] is not None:
            record["output_sha256"] = sha256(outputs[i])
            record["output_bytes"] = len(outputs[i])
        items.append(record)

    every_compress = [t for calls in compress_ref for t in calls]
    every_decompress = [t for calls in decompress_ref for t in calls]
    c_tail, c_pct = every_call_tail(every_compress)
    d_tail, d_pct = every_call_tail(every_decompress)
    raw_compress = statistics.median(c[0] for calls in compress_calls for c in calls)
    raw_decompress = statistics.median(c[0] for calls in decompress_calls for c in calls)
    ratio = sum(r.get("output_bytes", math.inf) for r in items) / (size * n)
    metrics = {
        "compress_mbps": size / statistics.median(every_compress) / 1e6,
        "compress_tail_ms": c_tail * 1e3,
        "decompress_mbps": size / statistics.median(every_decompress) / 1e6,
        "decompress_tail_ms": d_tail * 1e3,
        "ratio": ratio,
        "compress_peak_mib": compress_peak,
        "decompress_peak_mib": decompress_peak,
        "setup_s": statistics.median(setup_times) if setup_times else math.inf,
    }
    c_calibrated = f"calibrated by the {compress_kernel} kernel"
    d_calibrated = f"calibrated by the {decompress_kernel} kernel"
    notes = {
        "compress_mbps": f"input bytes over the median of {len(every_compress)} calls, "
                         f"{c_calibrated}",
        "compress_tail_ms": f"p{c_pct:.1f} of {len(every_compress)} calls, {c_calibrated}",
        "decompress_mbps": f"output bytes over the median of {len(every_decompress)} calls, "
                           f"{d_calibrated}",
        "decompress_tail_ms": f"p{d_pct:.1f} of {len(every_decompress)} calls, "
                              f"{d_calibrated}",
        "ratio": f"gzip bytes over input bytes, {n} items",
        "compress_peak_mib": f"tracemalloc peak of compressing item {p}",
        "decompress_peak_mib": f"tracemalloc peak of decompressing item {p}",
        "setup_s": f"median of {len(setup_times)} fresh interpreters, import to round trip, "
                   "calibrated by the python kernel",
    }
    if workload == "zlib-dynamic":
        for name in ("compress_mbps", "compress_tail_ms", "ratio", "compress_peak_mib"):
            notes[name] += "; the compressor here is stdlib zlib, a control"
    references = {
        "raw_compress_mbps": size / raw_compress / 1e6,
        "raw_decompress_mbps": size / raw_decompress / 1e6,
        "raw_setup_s": statistics.median(setup_raw) if setup_raw else math.inf,
    }
    for kernel in kernels:
        references[f"slowdown_{kernel}"] = (statistics.median(s[kernel] for s in slots)
                                            / calibrate.REFERENCE_SECONDS[kernel])
    if workload != "zlib-dynamic":
        for key in ("zlib_l1", "zlib_l6", "zlib_l9"):
            references[f"ratio_{key}"] = sum(r[key] for r in items) / n
    details = {
        "items": items,
        "passes": passes,
        "output_digest": sha256("".join(r.get("output_sha256", "-") for r in items).encode()),
        "references": references,
        "setup_launch_seconds": setup_times,
        "setup_launch_raw_seconds": setup_raw,
        "calibration_slots": slots,
    }
    return metrics, notes, details


def _finite(value: float) -> float:
    return value if math.isfinite(value) else -1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--item-bytes", type=int, default=corpus.ITEM_BYTES,
                        help="size of every item (smaller only for smoke runs)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.item_bytes < 64:
        parser.error("--seconds must be positive and --item-bytes at least 64")

    for needed in (SRC / "deflatekit" / "__init__.py", corpus.CONFTEST):
        if not needed.is_file():
            print(f"bench: {needed} is missing; run from a repository checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    import deflatekit

    if Path(deflatekit.__file__).resolve().parent != SRC / "deflatekit":
        print(f"bench: imported deflatekit from {deflatekit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    ledger = Ledger()
    print(f"deflatekit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, items of {args.item_bytes} bytes, "
          f"closed loop with one caller, trace {args.trace}")
    if args.trace:
        import traced

        metrics, notes, details = traced.run_traced(
            args.workload, args.seed, args.seconds, args.item_bytes, ledger,
            ITEMS[args.workload], RESULTS / f"tmp-{args.workload}-{args.seed}")
        table = traced.LAYER_METRICS
        tag = "trace1"
    else:
        metrics, notes, details = run_untraced(
            args.workload, args.seed, args.seconds, args.item_bytes, ledger)
        table = E2E_METRICS
        tag = "trace0"

    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-{args.item_bytes}-{tag}.json"
    previous = None
    if out_path.is_file():
        try:
            previous = json.loads(out_path.read_text()).get("details", {}).get("output_digest")
        except (OSError, ValueError):
            previous = None

    for name, (unit, better) in table.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit} ({better} is better)"
              + (f": {notes[name]}" if name in notes else ""))
    for name, value in details.get("references", {}).items():
        print(f"reference {name} = {value:.6g} (ungated)")
    failed = len(ledger.failures)
    print(f"error_rate = {failed / ledger.attempted:.6g} "
          f"({failed} of {ledger.attempted} operations failed)")
    for failure in ledger.failures[:20]:
        print(f"failure: {failure}")
    digest = details.get("output_digest")
    if digest:
        change = ""
        if previous:
            change = (" (unchanged since the last run with this seed)" if previous == digest
                      else f" (CHANGED: the last run with this seed gave {previous})")
        print(f"output_digest = {digest}{change}")

    out_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "item_bytes": args.item_bytes, "trace": args.trace,
        "python": sys.version, "metrics": metrics, "notes": notes,
        "attempted": ledger.attempted, "failures": ledger.failures, "details": details,
    }, indent=1, default=str))
    print(f"details written to {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
