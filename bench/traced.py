"""Traced run: deflatekit's own pipeline, with its layer calls under spans.

The run calls ``gzip_compress`` and ``gzip_decompress`` unchanged.  For
the length of those calls it replaces, in place, the module globals
they look up (``compress.tokenize``, ``inflate._decode_some``,
``gzip_container.crc32`` and the rest in ``_TRACED``) with wrappers
that open a span and collect counts from the arguments and results.
A span is (name, start, end, parent, item), kept in memory and written
out at the end.  A layer's self time is its spans' durations minus
those of its child spans; ``build_coding``, which runs inside
``parse_dynamic_header``, is such a child.  Time spent in the two
outermost calls but in no layer span is the pipeline's own glue
(``deflate``'s block split, ``parse_deflate``'s loop); it shows as
``trace.coverage`` below 1.

Two measurements sit beside the pipeline rather than in it, over what
the real decode produced: the QueueOfDoom resolver (the reference
model, and the ExpList the compressor's MatchTable is built from)
resolves the same token chunks again, and ``DeflateCoding.read_symbol``
re-reads the same literal/length symbols.  The run passes over the
workload's items until --seconds is used (at least one pass).  Counts
cover the first pass, so two traced runs with one seed give identical
counts; times are seconds per item over every item traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import shutil
import statistics
import time

import corpus

from deflatekit import bitio, cli, compress, gzip_container
from deflatekit.gzip_container import gzip_compress, gzip_decompress
from deflatekit.history_window import (
    BackRef,
    Literal,
    QueueOfDoom,
    RingWindow,
    resolve_tokens,
)
from deflatekit.inflate import Parsed
from deflatekit.symbol_tables import distance_extra_bits, length_extra_bits

# The package re-exports the function inflate under the module's name.
inflate = importlib.import_module("deflatekit.inflate")

# name -> (unit, better).  Counts are mostly fixed by the input; their
# direction is the one a change to that layer should aim for.
LAYER_METRICS = {
    "compress.tokenize_s": ("s", "lower"),
    "compress.tokens": ("count", "lower"),
    "compress.match_hit_ratio": ("ratio", "higher"),
    "compress.block_cost_s": ("s", "lower"),
    "compress.write_block_s": ("s", "lower"),
    "compress.static_blocks": ("count", "higher"),
    "compress.stored_blocks": ("count", "lower"),
    "inflate.header_s": ("s", "lower"),
    "inflate.tokens_s": ("s", "lower"),
    "inflate.blocks_stored": ("count", "lower"),
    "inflate.blocks_static": ("count", "lower"),
    "inflate.blocks_dynamic": ("count", "lower"),
    "inflate.bits_consumed": ("bits", "lower"),
    "prefix_coding.build_coding_s": ("s", "lower"),
    "prefix_coding.codings_built": ("count", "lower"),
    "prefix_coding.read_symbol_s": ("s", "lower"),
    "prefix_coding.symbols_read": ("count", "lower"),
    "history_window.resolve_ring_s": ("s", "lower"),
    "history_window.resolve_queue_s": ("s", "lower"),
    "history_window.overlap_copies": ("count", "lower"),
    "history_window.bytes_copied": ("bytes", "higher"),
    "gzip_container.crc32_s": ("s", "lower"),
    "gzip_container.crc32_mbps": ("MB/s", "higher"),
    "cli.overhead_s": ("s", "lower"),
    "bitio.bits_written": ("bits", "lower"),
    "symbol_tables.backrefs_coded": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

# Self-time metric -> the spans it sums.
_SPANS_OF = {
    "compress.tokenize_s": ("compress.tokenize",),
    "compress.block_cost_s": ("compress.static_cost_bits",),
    "compress.write_block_s": ("compress.write_static_block", "compress.write_stored_block"),
    "inflate.header_s": ("inflate.parse_block_header", "inflate.parse_dynamic_header"),
    "inflate.tokens_s": ("inflate.decode_tokens",),
    "prefix_coding.build_coding_s": ("prefix_coding.build_coding",),
    "prefix_coding.read_symbol_s": ("prefix_coding.read_symbol",),
    "history_window.resolve_ring_s": ("history_window.resolve_tokens_ring",
                                      "history_window.ring_push_bytes"),
    "history_window.resolve_queue_s": ("history_window.resolve_tokens",
                                       "history_window.queue_push_bytes"),
    "gzip_container.crc32_s": ("gzip_container.crc32",),
}

_COUNTS = (
    "compress.tokens", "compress.positions_searched", "compress.backrefs",
    "compress.static_blocks", "compress.stored_blocks",
    "inflate.blocks_stored", "inflate.blocks_static", "inflate.blocks_dynamic",
    "inflate.bits_consumed", "prefix_coding.symbols_read",
    "history_window.overlap_copies", "history_window.bytes_copied",
    "bitio.bits_written", "symbol_tables.backrefs_coded", "gzip_container.crc32_bytes",
)


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, item].

    ``counts`` and ``decoded`` belong to the item being traced; the
    wrappers fill them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None
        self.counts: dict = {}
        self.decoded: list = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> list[int]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


# -- what each wrapper collects: hook(tracer, args, result) ---------------


def _after_tokenize(tr: Tracer, args, tokens) -> None:
    c = tr.counts
    last_hash = len(args[0]) - 3
    position = 0
    for t in tokens:
        if type(t) is BackRef:
            c["compress.tokens"] += 1
            c["compress.backrefs"] += 1
            c["compress.positions_searched"] += position <= last_hash
            position += t.length
        elif type(t) is Literal:
            c["compress.tokens"] += 1
            c["compress.positions_searched"] += position <= last_hash
            position += 1


def _after_static_block(tr: Tracer, args, sink) -> None:
    tr.counts["compress.static_blocks"] += 1
    tr.counts["symbol_tables.backrefs_coded"] += sum(type(t) is BackRef for t in args[0])
    tr.counts["bitio.bits_written"] = sink.bit_length


def _after_stored_block(tr: Tracer, args, sink) -> None:
    tr.counts["compress.stored_blocks"] += 1
    tr.counts["bitio.bits_written"] = sink.bit_length


def _after_crc32(tr: Tracer, args, _) -> None:
    tr.counts["gzip_container.crc32_bytes"] += len(args[0])


def _after_block_header(tr: Tracer, args, outcome) -> None:
    if isinstance(outcome, Parsed):
        kind = outcome.value.block_type.name.lower()
        tr.counts[f"inflate.blocks_{kind}"] += 1


def _after_stored(tr: Tracer, args, outcome) -> None:
    if isinstance(outcome, Parsed):
        tr.decoded.append(("stored", outcome.value))


def _after_decode_some(tr: Tracer, args, result) -> None:
    data, pos, _, lit, dist = args[:5]
    tokens = result[0]
    tr.decoded.append(("tokens", tokens, data, pos, lit, dist))
    c = tr.counts
    for t in tokens:
        if type(t) is BackRef:
            c["symbol_tables.backrefs_coded"] += 1
            c["history_window.bytes_copied"] += t.length
            c["history_window.overlap_copies"] += t.length > t.distance


def _after_parse_deflate(tr: Tracer, args, outcome) -> None:
    if isinstance(outcome, Parsed):
        tr.counts["inflate.bits_consumed"] += outcome.consumed_bits


# (owner, attribute, span name or None for a count-only hook, hook).
# Each is the name the library looks up at call time, so replacing it
# traces the real call in place.
_TRACED = (
    (compress, "tokenize", "compress.tokenize", _after_tokenize),
    (compress, "_static_cost_bits", "compress.static_cost_bits", None),
    (compress, "write_static_block", "compress.write_static_block", _after_static_block),
    (compress, "write_stored_block", "compress.write_stored_block", _after_stored_block),
    (bitio.BitSink, "to_bytes", "bitio.to_bytes", None),
    (gzip_container, "crc32", "gzip_container.crc32", _after_crc32),
    (gzip_container, "gzip_wrap", "gzip_container.gzip_wrap", None),
    (gzip_container, "_parse_header", "gzip_container.parse_header", None),
    (gzip_container, "parse_deflate", None, _after_parse_deflate),
    (inflate, "parse_block_header", "inflate.parse_block_header", _after_block_header),
    (inflate, "parse_stored_block", "inflate.parse_stored_block", _after_stored),
    (inflate, "parse_dynamic_header", "inflate.parse_dynamic_header", None),
    (inflate, "build_coding", "prefix_coding.build_coding", None),
    (inflate, "_decode_some", "inflate.decode_tokens", _after_decode_some),
    (inflate, "resolve_tokens_ring", "history_window.resolve_tokens_ring", None),
    (RingWindow, "push_bytes", "history_window.ring_push_bytes", None),
)


def _wrapper(tr: Tracer, fn, name, hook):
    def traced(*args, **kwargs):
        result = tr.call(name, fn, *args, **kwargs) if name else fn(*args, **kwargs)
        if hook:
            hook(tr, args, result)
        return result

    return traced


@contextlib.contextmanager
def tracing(tr: Tracer):
    """Replace every ``_TRACED`` attribute with its wrapper, then restore."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _TRACED]
    try:
        for (owner, attr, fn), (_, _, name, hook) in zip(originals, _TRACED):
            setattr(owner, attr, _wrapper(tr, fn, name, hook))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


# -- measurements beside the pipeline ------------------------------------


def _symbol_positions(data: bytes, pos: int, lit, dist, count: int) -> list[int]:
    """Bit offsets of the next ``count`` literal/length symbols."""
    end = 8 * len(data)
    positions = []
    for _ in range(count):
        positions.append(pos)
        sym, pos = lit.read_symbol(data, pos, end)
        if sym > 256:
            pos += length_extra_bits(sym)
            dsym, pos = dist.read_symbol(data, pos, end)
            pos += distance_extra_bits(dsym)
    return positions


def _read_symbols(read, data: bytes, positions: list[int]) -> None:
    end = 8 * len(data)
    for p in positions:
        read(data, p, end)


def _side_measurements(tr: Tracer, plain: bytes) -> str:
    """Queue-window resolve and read_symbol over what the decode produced.

    Returns "" or what went wrong.
    """
    queue = QueueOfDoom()
    parts = []
    for entry in tr.decoded:
        if entry[0] == "stored":
            queue = tr.call("history_window.queue_push_bytes", queue.push_bytes, entry[1])
            parts.append(entry[1])
            continue
        _, tokens, data, pos, lit, dist = entry
        resolved, queue = tr.call("history_window.resolve_tokens", resolve_tokens,
                                  tokens, queue)
        parts.append(resolved)
        positions = _symbol_positions(data, pos, lit, dist, len(tokens))
        tr.call("prefix_coding.read_symbol", _read_symbols, lit.read_symbol, data, positions)
        tr.counts["prefix_coding.symbols_read"] += len(positions)
    return "" if b"".join(parts) == plain else "QueueOfDoom resolve differs from the input"


def _cli_overhead(ledger, index: int, tmp, gz: bytes, plain: bytes):
    """cli.main decompressing a file minus the library call on the same bytes.

    None if either call failed.
    """
    src, dst = tmp / "member.gz", tmp / "member.out"
    src.write_bytes(gz)
    code, t_cli = ledger.run("cli", index, cli.main, ["decompress", str(src), "-o", str(dst)])
    if code is not None and (code != 0 or not dst.is_file() or dst.read_bytes() != plain):
        ledger.fail("cli-check", index, f"cli exited {code} or wrote other bytes")
        code = None
    out, t_lib = ledger.run("cli-library", index, gzip_decompress, gz)
    if out is not None and out != plain:
        ledger.fail("cli-library-check", index, "output differs from the input")
        out = None
    return t_cli - t_lib if code is not None and out is not None else None


def run_traced(workload: str, seed: int, seconds: float, size: int, ledger,
               items: int, tmp):
    """Pass over items 0..items-1 until ``seconds`` pass, at least once.

    ``ledger`` is run.Ledger; ``tmp`` is a scratch directory for the
    cli measurement, removed afterwards.
    """
    tr = Tracer()
    counts = dict.fromkeys(_COUNTS, 0)
    ledger.run("warm-up", None, lambda: gzip_decompress(gzip_compress(b"warm " * 9)))
    untraced = traced = 0.0
    crc_bytes = 0
    cli_overheads = []
    roots: list[int] = []
    tmp.mkdir(parents=True, exist_ok=True)

    def traced_call(what: str, index: int, fn, arg):
        """ledger.run of fn(arg) with tracing on, as one root span."""
        roots.append(len(tr.spans))
        with tracing(tr):
            return ledger.run(what, index, tr.call, f"e2e.{what}", fn, arg)

    deadline = time.perf_counter() + seconds
    index = 0
    try:
        while index < items or time.perf_counter() < deadline:
            tr.item = index
            tr.counts = dict.fromkeys(_COUNTS, 0)
            tr.decoded = []
            plain = corpus.make_item(workload, seed, index % items, size)
            if workload == "zlib-dynamic":
                gz = corpus.zlib_gzip(plain, *corpus.zlib_setting(index % items))
            else:
                gz, t_plain = ledger.run("compress", index, gzip_compress, plain)
                result, t_traced = traced_call("compress", index, gzip_compress, plain)
                if result is not None and result != gz:
                    ledger.fail("traced-compress-check", index,
                                "traced gzip_compress output differs from the untraced one")
                if gz is None or result != gz:
                    index += 1
                    continue
                untraced += t_plain
                traced += t_traced
            out, t_plain = ledger.run("decompress", index, gzip_decompress, gz)
            if out is not None and out != plain:
                ledger.fail("decompress-check", index, "output differs from the input")
            result, t_traced = traced_call("decompress", index, gzip_decompress, gz)
            if result is not None and result != plain:
                ledger.fail("traced-decompress-check", index, "output differs from the input")
            if out != plain or result != plain:
                index += 1
                continue
            untraced += t_plain
            traced += t_traced
            problem, _ = ledger.run("side-measurements", index, _side_measurements, tr, plain)
            if problem:
                ledger.fail("side-measurements-check", index, problem)
            overhead = _cli_overhead(ledger, index, tmp, gz, plain)
            if overhead is not None:
                cli_overheads.append(overhead)
            crc_bytes += tr.counts.pop("gzip_container.crc32_bytes")
            if index < items:
                for key, value in tr.counts.items():
                    counts[key] += value
            index += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    counts["prefix_coding.codings_built"] = sum(
        1 for s in tr.spans if s[0] == "prefix_coding.build_coding" and s[4] < items)

    own = tr.self_times()
    per_name: dict[str, int] = {}
    for span, t in zip(tr.spans, own):
        per_name[span[0]] = per_name.get(span[0], 0) + t
    metrics = {name: sum(per_name.get(s, 0) for s in spans) / 1e9 / index
               for name, spans in _SPANS_OF.items()}
    crc_s = per_name.get("gzip_container.crc32", 0) / 1e9
    root_total = sum(tr.spans[r][2] - tr.spans[r][1] for r in roots)
    root_self = sum(own[r] for r in roots)
    metrics.update({
        "compress.match_hit_ratio": (counts["compress.backrefs"]
                                     / max(1, counts["compress.positions_searched"])),
        "gzip_container.crc32_mbps": crc_bytes / crc_s / 1e6 if crc_s else 0.0,
        "cli.overhead_s": statistics.median(cli_overheads) if cli_overheads else 0.0,
        "trace.overhead": traced / untraced - 1 if untraced else 0.0,
        "trace.coverage": 1 - root_self / root_total if root_total else 0.0,
    })
    for key in LAYER_METRICS:
        if key not in metrics:
            metrics[key] = counts[key]
    layer_self: dict[str, float] = {}
    for name, t in per_name.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t / 1e9 / index
    notes = {name: f"self seconds per item, {index} items traced" for name in _SPANS_OF}
    notes.update({name: f"total over one pass of {items} items"
                  for name, (unit, _) in LAYER_METRICS.items()
                  if unit in ("count", "bits", "bytes")})
    notes["compress.match_hit_ratio"] = "backrefs over positions searched"
    notes["trace.overhead"] = "traced over untraced end-to-end time, minus 1"
    notes["trace.coverage"] = "share of traced end-to-end time inside layer spans"
    notes["cli.overhead_s"] = "median of cli decompress minus gzip_decompress per call"
    details = {
        "items_traced": index,
        "layer_self_seconds_per_item": layer_self,
        "counts": counts,
        "spans": [dict(zip(("name", "start_ns", "end_ns", "parent", "item"), s))
                  for s in tr.spans],
        "input_sha256": [hashlib.sha256(corpus.make_item(workload, seed, i, size)).hexdigest()
                         for i in range(items)],
    }
    for layer, t in sorted(layer_self.items()):
        print(f"layer {layer} = {t:.6g} s self time per item")
    return metrics, notes, details
