"""Command-line entry point.

Exit codes: 0 when every requested check passes, 2 when some check fails
(the method gives no decision), 3 on unusable input. The distinct
no-decision code keeps CI pipelines from confusing inconclusiveness with
crashes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .context import load_context
from .errors import AnalysisError
from .protocol import load_narration
from .report import analyze, render
from .safefun import Variant

EXIT_PASS = 0
EXIT_NO_DECISION = 2
EXIT_INPUT_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfcheck",
        description="Check a protocol narration for secrecy and authentication "
        "using witness-function bounds.",
    )
    parser.add_argument("--protocol", required=True, help="narration file")
    parser.add_argument("--context", required=True, help="verification context file")
    parser.add_argument(
        "--function",
        choices=["max", "ek", "n"],
        default="max",
        help="selection variant of the evaluation function (default: max)",
    )
    parser.add_argument(
        "--check",
        choices=["secrecy", "auth", "all"],
        default="all",
        help="which decision to run (default: all)",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out", default=None, help="write the report to a file")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_PASS

    try:
        ctx = load_context(args.context)
        narration = load_narration(args.protocol, ctx)
        report = analyze(narration, ctx, Variant(args.function), args.check)
        rendered = render(report, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
    except (AnalysisError, OSError, ValueError) as exc:
        print(f"wfcheck: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if not args.out:
        sys.stdout.write(rendered)
    return EXIT_PASS if report.overall_passed else EXIT_NO_DECISION


if __name__ == "__main__":
    sys.exit(main())
