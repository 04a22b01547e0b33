"""Command-line frontend: compress, decompress, and two inspection modes.

Exit codes: 0 success, 1 malformed input (message includes the bit
offset when the deflate stream itself is at fault), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .compress import DEFAULT_PARAMS, CompressParams, deflate
from .errors import DeflateError
from .gzip_container import _parse_header, gzip_compress, gzip_decompress
from .inflate import BlockType, NoParse, inflate, iter_blocks
from .prefix_coding import DeflateCoding, build_coding
from .symbol_tables import BackRef, Literal


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deflatekit",
        description="Deflate codec: compress, decompress, and inspect streams.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    comp = sub.add_parser("compress", help="compress a file or stdin")
    comp.add_argument("input", nargs="?", default="-", help="input path, - for stdin")
    comp.add_argument("-o", "--output", help="output path, - for stdout")
    comp.add_argument(
        "-f", "--format", choices=("raw", "gzip"), default="gzip", dest="fmt",
        help="raw deflate stream or gzip container (default gzip)",
    )
    comp.add_argument("--max-chain", type=int, default=DEFAULT_PARAMS.max_chain,
                      metavar="N", help="match candidates examined per position")
    comp.add_argument("--block-limit", type=int,
                      default=DEFAULT_PARAMS.block_payload_limit, metavar="N",
                      help="source bytes per block")

    deco = sub.add_parser("decompress", help="decompress a file or stdin")
    deco.add_argument("input", nargs="?", default="-")
    deco.add_argument("-o", "--output")
    deco.add_argument("-f", "--format", choices=("raw", "gzip"), default="gzip",
                      dest="fmt")

    coding = sub.add_parser("dump-coding",
                            help="show the canonical coding for a length vector")
    coding.add_argument("lengths",
                        help="comma-separated code lengths, e.g. 2,1,3,3,0")
    coding.add_argument("--max-len", type=int, default=15)

    tokens = sub.add_parser("dump-tokens",
                            help="list the tokens of each block of a stream")
    tokens.add_argument("input", nargs="?", default="-")
    tokens.add_argument("-f", "--format", choices=("raw", "gzip"), default="raw",
                        dest="fmt", help="dump-tokens defaults to raw deflate input")
    return parser


def _check_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Reject bad usage through parser.error (exit 2); dump-coding gets args.coding."""
    if args.mode == "dump-coding":
        # int() and every coding error (bad --max-len, over-subscribed
        # lengths) raise ValueError: all are usage errors.
        try:
            lengths = [int(part) for part in args.lengths.split(",")]
            args.coding = build_coding(lengths, args.max_len)
        except ValueError as e:
            parser.error(f"bad length vector {args.lengths!r}: {e}")
    if args.mode == "compress":
        for flag, value in (("--max-chain", args.max_chain), ("--block-limit", args.block_limit)):
            if value < 1:
                parser.error(f"{flag} must be at least 1, got {value}")
    output = getattr(args, "output", None)
    if output and output != "-" and output == args.input:
        parser.error("input and output must be different paths")


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: Optional[str], data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _dump_coding(coding: DeflateCoding) -> None:
    for ch, code in enumerate(coding.codes):
        shown = "".join(map(str, code)) if code else "(absent)"
        print(f"{ch}: {shown}")


def _token_line(token) -> str:
    if isinstance(token, Literal):
        shown = chr(token.value) if 32 <= token.value < 127 else "."
        return f"literal {token.value} {shown!r}"
    if isinstance(token, BackRef):
        return f"backref <{token.length},{token.distance}>"
    return "end-of-block"


def _dump_tokens(args: argparse.Namespace, data: bytes) -> None:
    start = 8 * _parse_header(data) if args.fmt == "gzip" else 0
    block = -1
    shown = None
    for header, item, _ in iter_blocks(data, start):
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


def run(args: argparse.Namespace) -> int:
    """Execute one checked invocation; returns the exit status."""
    try:
        if args.mode == "dump-coding":
            _dump_coding(args.coding)
            return 0
        data = _read_input(args.input)
        if args.mode == "compress":
            params = CompressParams(
                max_chain=args.max_chain, block_payload_limit=args.block_limit
            )
            if args.fmt == "gzip":
                out = gzip_compress(data, params)
            else:
                out = deflate(data, params)
            _write_output(args.output, out)
        elif args.mode == "decompress":
            if args.fmt == "gzip":
                out = gzip_decompress(data)
            else:
                out = inflate(data)
            _write_output(args.output, out)
        elif args.mode == "dump-tokens":
            _dump_tokens(args, data)
        else:
            raise AssertionError(f"unhandled mode {args.mode}")
    except DeflateError as e:
        print(f"deflatekit: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"deflatekit: {e}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    _check_args(args, parser)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
