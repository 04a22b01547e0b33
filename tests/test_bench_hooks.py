"""The traced benchmark's hooks still name real library attributes.

``bench/traced.py`` replaces module globals such as
``inflate._decode_some`` in place.  A refactor that renames or removes
one would otherwise only show up as a failed or empty traced run.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def traced():
    # traced.py imports its sibling ``corpus`` as a top-level module.
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module("traced")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_every_traced_attribute_resolves(traced):
    for owner, attr, _, _ in traced._TRACED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_a_traced_round_trip_reaches_the_decoder_hooks(traced):
    from deflatekit.gzip_container import gzip_compress, gzip_decompress

    tr = traced.Tracer()
    tr.counts = dict.fromkeys(traced._COUNTS, 0)
    plain = b"hello hello hello " * 100
    with traced.tracing(tr):
        assert gzip_decompress(gzip_compress(plain)) == plain
    names = {span[0] for span in tr.spans}
    assert {"inflate.parse_block_header", "inflate.decode_tokens",
            "history_window.resolve_tokens_ring", "compress.tokenize"} <= names
    assert tr.counts["inflate.blocks_static"] == 1
    assert traced._side_measurements(tr, plain) == ""
