"""Command-line frontend: compress, decompress, and two inspection modes.

Exit codes: 0 success, 1 malformed input (message includes the bit
offset when the deflate stream itself is at fault), 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .compress import DEFAULT_PARAMS, CompressParams, deflate
from .errors import DeflateError
from .gzip_container import _MAGIC, _parse_header, gzip_compress, gzip_decompress
from .inflate import NoParse, inflate, iter_blocks
from .prefix_coding import canonical_codes
from .symbol_tables import BackRef, BlockType, Literal


def _add_input_and_format(parser: argparse.ArgumentParser, default: str, fmt_help: str) -> None:
    """The input path and -f/--format that compress, decompress and dump-tokens share."""
    parser.add_argument("input", nargs="?", default="-", help="input path, - for stdin")
    parser.add_argument("-f", "--format", choices=("raw", "gzip"), default=default,
                        dest="fmt", help=fmt_help)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deflatekit",
        description="Deflate codec: compress, decompress, and inspect streams.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    gzip_help = "raw deflate stream or gzip container (default gzip)"
    comp = sub.add_parser("compress", help="compress a file or stdin")
    _add_input_and_format(comp, "gzip", gzip_help)
    comp.add_argument("-o", "--output", help="output path, - for stdout")
    comp.add_argument("--max-chain", type=int, default=DEFAULT_PARAMS.max_chain,
                      metavar="N", help="match candidates examined per position")
    comp.add_argument("--block-limit", type=int,
                      default=DEFAULT_PARAMS.block_payload_limit, metavar="N",
                      help="most source bytes one block may cover")

    deco = sub.add_parser("decompress", help="decompress a file or stdin")
    _add_input_and_format(deco, "gzip", gzip_help)
    deco.add_argument("-o", "--output", help="output path, - for stdout")

    coding = sub.add_parser("dump-coding",
                            help="show the canonical coding for a length vector")
    coding.add_argument("lengths",
                        help="comma-separated code lengths, e.g. 2,1,3,3,0")
    coding.add_argument("--max-len", type=int, default=15)

    tokens = sub.add_parser("dump-tokens",
                            help="list the tokens of each block of a stream")
    _add_input_and_format(tokens, "raw", "dump-tokens defaults to raw deflate input")
    return parser


def _check_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Reject bad usage through parser.error (exit 2); dump-coding gets args.codes."""
    if args.mode == "dump-coding":
        # int() and every coding error (bad --max-len, over-subscribed
        # lengths) raise ValueError: all are usage errors.
        try:
            lengths = [int(part) for part in args.lengths.split(",")]
            args.codes = canonical_codes(lengths, args.max_len)
        except ValueError as e:
            parser.error(f"bad length vector {args.lengths!r}: {e}")
    if args.mode == "compress":
        for flag, value in (("--max-chain", args.max_chain), ("--block-limit", args.block_limit)):
            if value < 1:
                parser.error(f"{flag} must be at least 1, got {value}")
    output = getattr(args, "output", None)
    if output and "-" not in (args.input, output) and _same_file(args.input, output):
        parser.error("input and output must be different paths")


def _same_file(input_path: str, output: str) -> bool:
    """Whether both name one file: by identity where both exist, else by spelling."""
    try:
        return os.path.samefile(input_path, output)
    except OSError:
        return input_path == output


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _dump_coding(codes: tuple) -> None:
    for ch, (value, (_, length)) in enumerate(zip(*codes)):
        print(f"{ch}: {value:0{length}b}" if length else f"{ch}: (absent)")


def _token_line(token) -> str:
    if isinstance(token, Literal):
        shown = chr(token.value) if 32 <= token.value < 127 else "."
        return f"literal {token.value} {shown!r}"
    if isinstance(token, BackRef):
        return f"backref <{token.length},{token.distance}>"
    return "end-of-block"


def _dump_blocks(data: bytes, bit_pos: int) -> int:
    """Print each block of the raw stream at bit_pos; returns the bit past its final block."""
    block = -1
    shown = None
    end = bit_pos
    for header, item, end in iter_blocks(data, bit_pos):
        if header is not None and header is not shown:
            shown = header
            block += 1
            final = " final" if header.is_final else ""
            print(f"block {block} ({header.block_type.name.lower()}{final})")
        if isinstance(item, NoParse):
            raise item.error()
        if header.block_type is BlockType.STORED:
            print(f"  stored {len(item)} bytes")
        else:
            for token in item:
                print(f"  {_token_line(token)}")
    return end


def _dump_tokens(args: argparse.Namespace, data: bytes) -> None:
    """Print the blocks of a raw stream, or of every member of a gzip file,
    each member after the first under a ``member k`` line; as in
    gzip_decompress, a member follows where the last one's trailer ends."""
    if args.fmt == "raw":
        _dump_blocks(data, 0)
        return
    member = start = 0
    while not member or data[start : start + 2] == _MAGIC:
        if member:
            print(f"member {member}")
        end = _dump_blocks(data, 8 * _parse_header(data, start))
        start = (end + 7) // 8 + 8  # past the trailer
        member += 1


# The codec for each (mode, format) pair; compress also takes the params.
_CODECS = {
    "compress": {"gzip": gzip_compress, "raw": deflate},
    "decompress": {"gzip": gzip_decompress, "raw": inflate},
}


def run(args: argparse.Namespace) -> int:
    """Execute one checked invocation; returns the exit status."""
    try:
        if args.mode == "dump-coding":
            _dump_coding(args.codes)
            return 0
        data = _read_input(args.input)
        if args.mode == "dump-tokens":
            _dump_tokens(args, data)
            return 0
        codec = _CODECS[args.mode][args.fmt]
        if args.mode == "compress":
            out = codec(data, CompressParams(args.max_chain, args.block_limit))
        else:
            # Trailing bytes after the last gzip member warn; report them as ours.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = codec(data)
            for warning in caught:
                print(f"deflatekit: {warning.message}", file=sys.stderr)
        _write_output(args.output, out)
    except (DeflateError, OSError) as e:
        print(f"deflatekit: {e}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    _check_args(args, parser)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
