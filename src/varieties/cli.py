"""Command-line entry point.

    varieties <subcommand> [--config FILE] [--seed N] [--out DIR]

Subcommands: ingest, classify, cluster, metrics, lm, report.
Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .config import load_config
from .errors import VarietiesError
from .pipeline import STAGES, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varieties",
        description="Corpus analytics for native, non-native and translated English.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, fn in STAGES.items():
        sub = subparsers.add_parser(name, help=(fn.__doc__ or "").split("\n")[0])
        sub.add_argument("--config", help="path to the key = value config file")
        sub.add_argument("--seed", type=int, help="override the configured seed")
        sub.add_argument("--out", help="override the configured output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; that's a validation
        # failure under this tool's contract
        return 0 if exc.code in (0, None) else 1
    try:
        config = load_config(
            args.config, overrides={"seed": args.seed, "out": args.out}
        )
        out_dir = run_stage(args.command, config)
    except VarietiesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    print(f"{args.command}: outputs in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
