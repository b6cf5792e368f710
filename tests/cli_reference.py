"""The command line as an ``argparse`` parser, for tests only.

This is the CLI's former ``build_parser``. The package's ``cli.read_options``
reads the same six flags from one option table;
``test_report_cli.test_options_agree_with_the_argparse_reference`` checks
that it gives the values this parser gives, asks for help where this parser
prints help, and refuses what this parser refuses.
"""

from __future__ import annotations

import argparse


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
