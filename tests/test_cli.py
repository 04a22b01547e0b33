"""Command-line behaviour: round trips, dump modes, exit codes."""

import io
import sys

import pytest

from deflatekit.bitio import BitSink
from deflatekit.cli import main
from deflatekit.compress import deflate, tokenize
from deflatekit.gzip_container import gzip_compress
from deflatekit.symbol_tables import BackRef, Literal

from deflatekit.prefix_coding import FIXED_DIST, FIXED_LIT, build_coding
from deflatekit.reference import bit_codes

from conftest import GOLDEN_PLAINTEXT, GOLDEN_STATIC_BYTES, english_text, write_code_msb


class FakeStdin:
    def __init__(self, data: bytes):
        self.buffer = io.BytesIO(data)


def test_file_round_trip_gzip(tmp_path):
    src = tmp_path / "plain.txt"
    src.write_bytes(b"the quick brown fox " * 50)
    packed = tmp_path / "plain.txt.gz"
    unpacked = tmp_path / "roundtrip.txt"
    assert main(["compress", str(src), "-o", str(packed)]) == 0
    assert packed.read_bytes()[:2] == b"\x1f\x8b"
    assert main(["decompress", str(packed), "-o", str(unpacked)]) == 0
    assert unpacked.read_bytes() == src.read_bytes()


def test_file_round_trip_raw_with_options(tmp_path):
    src = tmp_path / "data.bin"
    src.write_bytes(bytes(range(256)) * 20)
    packed = tmp_path / "data.raw"
    unpacked = tmp_path / "back.bin"
    assert main([
        "compress", str(src), "-o", str(packed), "-f", "raw",
        "--max-chain", "4", "--block-limit", "1000",
    ]) == 0
    assert main([
        "decompress", str(packed), "-o", str(unpacked), "-f", "raw",
    ]) == 0
    assert unpacked.read_bytes() == src.read_bytes()


def test_stdin_to_stdout_round_trip(monkeypatch, capsysbinary):
    monkeypatch.setattr(sys, "stdin", FakeStdin(GOLDEN_PLAINTEXT))
    assert main(["compress", "-f", "raw"]) == 0
    packed = capsysbinary.readouterr().out
    assert packed == GOLDEN_STATIC_BYTES
    monkeypatch.setattr(sys, "stdin", FakeStdin(packed))
    assert main(["decompress", "-f", "raw", "-o", "-"]) == 0
    assert capsysbinary.readouterr().out == GOLDEN_PLAINTEXT


def test_dump_coding(capsys):
    assert main(["dump-coding", "2,1,3,3,0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0: 10", "1: 0", "2: 110", "3: 111", "4: (absent)"]
    # Values below the top of their length keep their leading zeros.
    assert main(["dump-coding", "2,2,2,2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0: 00", "1: 01", "2: 10", "3: 11"]
    # Every length 1..15: each line is the reference model's bit tuple.
    lengths = list(range(1, 16)) + [15]
    assert main(["dump-coding", ",".join(map(str, lengths))]) == 0
    expected = [f"{ch}: {''.join(map(str, code))}"
                for ch, code in enumerate(bit_codes(build_coding(lengths)))]
    assert capsys.readouterr().out.splitlines() == expected


def test_dump_coding_rejects_garbage():
    for argv in (
        ["2,x,3"],
        ["1,1,1"],  # over-subscribed: no prefix-free coding exists
        ["--max-len", "0", "1,1"],
        ["--max-len", "16", "1,1"],  # no deflate code is longer than 15 bits
    ):
        with pytest.raises(SystemExit) as err:
            main(["dump-coding", *argv])
        assert err.value.code == 2


def test_dump_tokens_static(tmp_path, capsys):
    stream = tmp_path / "golden.raw"
    stream.write_bytes(GOLDEN_STATIC_BYTES)
    assert main(["dump-tokens", str(stream)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "block 0 (static final)"
    assert lines[1] == "  literal 97 'a'"
    assert "  backref <5,8>" in lines
    assert lines[-1] == "  end-of-block"


def test_dump_tokens_gzip_and_stored(tmp_path, capsys):
    blob = tmp_path / "noise.gz"
    blob.write_bytes(gzip_compress(bytes(range(200)) * 3))
    assert main(["dump-tokens", str(blob), "-f", "gzip"]) == 0
    out = capsys.readouterr().out
    assert "(stored" in out or "(static" in out


def test_dump_tokens_of_prose_shows_one_dynamic_block_of_the_tokenized_stream(
    tmp_path, capsys
):
    prose = english_text(4000, seed=3)
    blob = tmp_path / "prose.gz"
    blob.write_bytes(gzip_compress(prose))
    assert main(["dump-tokens", str(blob), "-f", "gzip"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = []
    for t in tokenize(prose):
        if type(t) is Literal:
            shown = chr(t.value) if 32 <= t.value < 127 else "."
            expected.append(f"  literal {t.value} {shown!r}")
        elif type(t) is BackRef:
            expected.append(f"  backref <{t.length},{t.distance}>")
        else:
            expected.append("  end-of-block")
    assert lines == ["block 0 (dynamic final)", *expected]


def test_dump_tokens_walks_every_gzip_member(tmp_path, capsys):
    # cat a.gz b.gz: each member after the first under a "member k" line,
    # its blocks counted from 0; one member prints just as before.
    one, two = gzip_compress(b"one\n"), gzip_compress(b"two\n")
    blob = tmp_path / "ab.gz"
    blob.write_bytes(one + two)
    assert main(["dump-tokens", str(blob), "-f", "gzip"]) == 0
    lines = capsys.readouterr().out.splitlines()

    def member(text: bytes) -> list:
        shown = [chr(b) if 32 <= b < 127 else "." for b in text]
        return ["block 0 (static final)", *(f"  literal {b} {c!r}" for b, c in zip(text, shown)),
                "  end-of-block"]

    assert lines == member(b"one\n") + ["member 1"] + member(b"two\n")
    blob.write_bytes(one)
    assert main(["dump-tokens", str(blob), "-f", "gzip"]) == 0
    assert capsys.readouterr().out.splitlines() == member(b"one\n")


def test_decompress_reports_trailing_junk_as_its_own_message(tmp_path, capsysbinary):
    # The gzip member decodes and the exit status stays 0, as README says;
    # the warning is printed as the CLI's message, not as Python's.
    blob = tmp_path / "junk.gz"
    blob.write_bytes(gzip_compress(b"payload") + b"junk")
    assert main(["decompress", str(blob)]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == b"payload"
    assert captured.err == b"deflatekit: 4 bytes after the last gzip member were ignored\n"


def test_dump_tokens_gzip_without_its_trailer(tmp_path, capsys):
    # The walk ends at the final block, so a missing trailer is no obstacle.
    blob = tmp_path / "cut.gz"
    blob.write_bytes(gzip_compress(b"hello hello hello " * 100)[:-8])
    assert main(["dump-tokens", str(blob), "-f", "gzip"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "block 0 (static final)"
    assert lines[-1] == "  end-of-block"


def test_dump_tokens_rejects_a_distance_past_the_output(tmp_path, capsys):
    # 'a', then <3, 2> with one byte produced: decompress and dump-tokens
    # walk the same grammar, so both refuse it.
    stream = tmp_path / "far.raw"
    stream.write_bytes(bytes([0x4B, 0x04, 0x42, 0x00]))
    assert main(["decompress", str(stream), "-f", "raw"]) == 1
    assert main(["dump-tokens", str(stream)]) == 1
    assert "beyond the produced output" in capsys.readouterr().err


def test_corrupt_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.raw"
    bad.write_bytes(b"\x07garbage")
    assert main(["decompress", str(bad), "-f", "raw"]) == 1
    assert "bit" in capsys.readouterr().err


def test_corrupt_gzip_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.gz"
    bad.write_bytes(b"not a gzip file at all")
    assert main(["decompress", str(bad)]) == 1
    assert "deflatekit:" in capsys.readouterr().err


def test_an_extra_field_past_the_end_exits_one(tmp_path, capsys):
    # Flags FEXTRA, XLEN 1000, then 3 bytes of the field.
    bad = tmp_path / "extra.gz"
    bad.write_bytes(b"\x1f\x8b\x08\x04" + bytes(6) + b"\xe8\x03abc")
    assert main(["decompress", str(bad)]) == 1
    assert "gzip header is truncated" in capsys.readouterr().err


def test_missing_input_exits_one(tmp_path, capsys):
    assert main(["compress", str(tmp_path / "nope.txt")]) == 1
    assert capsys.readouterr().err


def test_same_input_and_output_is_a_usage_error(tmp_path):
    src = tmp_path / "same.bin"
    src.write_bytes(b"data")
    with pytest.raises(SystemExit) as err:
        main(["compress", str(src), "-o", str(src)])
    assert err.value.code == 2


@pytest.mark.parametrize("spelling", ["dot", "absolute", "hard link"])
@pytest.mark.parametrize("mode", ["compress", "decompress"])
def test_output_naming_the_input_file_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                         mode, spelling):
    # The guard compares files, not spellings: each of these would
    # otherwise overwrite the input with its own output.
    monkeypatch.chdir(tmp_path)
    data = gzip_compress(b"data " * 20)
    (tmp_path / "same.gz").write_bytes(data)
    if spelling == "hard link":
        (tmp_path / "link.gz").hardlink_to(tmp_path / "same.gz")
    output = {"dot": "./same.gz", "absolute": str(tmp_path / "same.gz"),
              "hard link": "link.gz"}[spelling]
    with pytest.raises(SystemExit) as err:
        main([mode, "same.gz", "-o", output])
    assert err.value.code == 2
    assert "input and output must be different paths" in capsys.readouterr().err
    assert (tmp_path / "same.gz").read_bytes() == data


def test_unknown_mode_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["explode"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--max-chain", "--block-limit"])
def test_compress_option_below_one_is_a_usage_error(tmp_path, capsys, flag):
    src = tmp_path / "plain.txt"
    src.write_bytes(b"data")
    with pytest.raises(SystemExit) as err:
        main(["compress", str(src), flag, "0"])
    assert err.value.code == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err


def test_decompress_output_written_before_success(tmp_path):
    packed = tmp_path / "ok.raw"
    packed.write_bytes(deflate(b"abc" * 100))
    out = tmp_path / "ok.txt"
    assert main(["decompress", str(packed), "-f", "raw", "-o", str(out)]) == 0
    assert out.read_bytes() == b"abc" * 100


def test_dump_tokens_stored_then_static_exact_lines(tmp_path, capsys):
    # A non-final stored block of "hi", then a final static block whose
    # <3,2> reaches back into the stored bytes.
    sink = BitSink()
    sink.write_bits_lsb(0, 3)
    sink.align_to_byte()
    sink.write_bits_lsb(2, 16)
    sink.write_bits_lsb(2 ^ 0xFFFF, 16)
    sink.write_bytes_aligned(b"hi")
    sink.write_bits_lsb(1, 1)
    sink.write_bits_lsb(1, 2)
    lit, dist = bit_codes(FIXED_LIT), bit_codes(FIXED_DIST)
    write_code_msb(sink, lit[ord("!")])
    write_code_msb(sink, lit[257])  # length 3
    write_code_msb(sink, dist[1])  # distance 2
    write_code_msb(sink, lit[256])
    stream = tmp_path / "two.raw"
    stream.write_bytes(sink.to_bytes())
    assert main(["dump-tokens", str(stream)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "block 0 (stored)",
        "  stored 2 bytes",
        "block 1 (static final)",
        "  literal 33 '!'",
        "  backref <3,2>",
        "  end-of-block",
    ]
    assert main(["decompress", str(stream), "-f", "raw"]) == 0
    assert capsys.readouterr().out == "hi!i!i"
