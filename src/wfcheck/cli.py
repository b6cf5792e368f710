"""Command-line entry point.

Exit codes: 0 when every requested check passes, 2 when some check fails
(the method gives no decision), 3 on unusable input or unwritable output.
The distinct no-decision code keeps CI pipelines from confusing
inconclusiveness with crashes.

The flags are read from one option table, without ``argparse``: importing
it, and its ``gettext`` and ``locale`` lookups, took about 4 ms of every
run's start-up, for six flags. ``read_options`` reads an argv as
``argparse`` read it: ``--name value`` and ``--name=value``, unique
prefixes, the last value of a repeated option, and a word that starts
with ``-`` as a value only where it is ``-`` alone, a negative number or
holds a space.
"""

from __future__ import annotations

import contextlib
import re
import sys
from typing import Optional, Sequence, TextIO

from .context import load_context
from .errors import AnalysisError
from .protocol import load_narration
from .report import analyze, render
from .safefun import Variant

EXIT_PASS = 0
EXIT_NO_DECISION = 2
EXIT_INPUT_ERROR = 3

REQUIRED = object()

#: Each option: its allowed values (None: any string), its default
#: (REQUIRED: the option must be given) and its help text.
OPTIONS: dict[str, tuple[Optional[tuple[str, ...]], object, str]] = {
    "--protocol": (None, REQUIRED, "narration file"),
    "--context": (None, REQUIRED, "verification context file"),
    "--function": (("max", "ek", "n"), "max", "selection variant of the evaluation function"),
    "--check": (("secrecy", "auth", "all"), "all", "which decision to run"),
    "--format": (("text", "json"), "text", "report format"),
    "--out": (None, None, "write the report to this file, not to standard output"),
}
_LONG = ("--help", *OPTIONS)

USAGE = """\
usage: wfcheck [-h] --protocol PROTOCOL --context CONTEXT
               [--function {max,ek,n}] [--check {secrecy,auth,all}]
               [--format {text,json}] [--out OUT]
"""


def _help() -> str:
    rows = ["  -h, --help", "        show this help message and exit"]
    for name, (choices, default, text) in OPTIONS.items():
        metavar = "{" + ",".join(choices) + "}" if choices else name[2:].upper()
        note = " (required)" if default is REQUIRED else f" (default: {default})" if default else ""
        rows += [f"  {name} {metavar}", f"        {text}{note}"]
    return (
        f"{USAGE}\nCheck a protocol narration for secrecy and authentication\n"
        "using witness-function bounds.\n\noptions:\n" + "\n".join(rows) + "\n\n"
        "An option may be abbreviated to a unique prefix (--proto), and its\n"
        "value given as the next word or after an = (--format=json).\n"
    )


HELP = _help()


def _option(word: str) -> Optional[tuple[str, Optional[str]]]:
    """How ``word`` reads before any value is taken: None for a value, else
    the option's name ("" when there is no such option) and the value given
    in the same word, or None."""
    if word[:1] != "-" or word == "-":
        return None
    if word[1] == "-":
        prefix, eq, value = word.partition("=")
        # no name is a prefix of another, so a whole name matches only itself
        names = [name for name in _LONG if name.startswith(prefix)]
        if len(names) > 1:
            raise ValueError(f"ambiguous option: {word} could match {', '.join(names)}")
        if names:
            return names[0], value if eq else None
    elif word[1] == "h":
        # "-hh" is "-h" twice; anything else after the "h"s is a value
        return "--help", word[2:].lstrip("h") or None
    if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word:
        return None
    return "", None


def read_options(argv: Sequence[str]) -> Optional[dict[str, Optional[str]]]:
    """Each option's value, by name without its dashes, or None when ``argv``
    asks for help; a bad ``argv`` raises ``ValueError`` with the message.

    Every word up to ``--`` is read before any value is taken, so an
    ambiguous prefix fails first; after that, help is given if it comes
    before the first bad value. Words after ``--`` are never options.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_option(word) for word in argv[:end]]
    values = {name: default for name, (_, default, _) in OPTIONS.items()}
    extras: list[str] = []
    i = 0
    while i < end:
        option = options[i]
        i += 1
        if option is None or not option[0]:
            extras.append(argv[i - 1])
            continue
        name, value = option
        if name == "--help":
            if value is None:
                return None
            raise ValueError(f"argument -h/--help: ignored explicit argument {value!r}")
        if value is None:
            if i == end or options[i] is not None:
                raise ValueError(f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        choices = OPTIONS[name][0]
        if choices and value not in choices:
            allowed = ", ".join(map(repr, choices))
            raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {allowed})")
        values[name] = value
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    extras += argv[end:]
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return {name[2:]: value for name, value in values.items()}


def _write(stream: Optional[TextIO], text: str) -> None:
    """Write ``text`` to ``stream`` and flush it. A failed write raises
    ``OSError``, as does a stream that was closed at start-up (None)."""
    if stream is None:
        raise OSError("cannot write: the output stream is closed")
    stream.write(text)
    stream.flush()


def main(argv: Optional[list[str]] = None) -> int:
    usage = USAGE  # goes with an error only while the argv is read
    try:
        options = read_options(sys.argv[1:] if argv is None else argv)
        usage = ""
        if options is None:
            _write(sys.stdout, HELP)
            return EXIT_PASS
        ctx = load_context(options["context"])
        narration = load_narration(options["protocol"], ctx)
        report = analyze(narration, ctx, Variant(options["function"]), options["check"])
        rendered = render(report, options["format"])
        if options["out"]:
            with open(options["out"], "w", encoding="utf-8") as fh:
                _write(fh, rendered)
        else:
            _write(sys.stdout, rendered)
    except (AnalysisError, OSError, ValueError) as exc:
        # when stderr cannot be written either, the exit code says it alone
        with contextlib.suppress(OSError):
            _write(sys.stderr, f"{usage}wfcheck: error: {exc}\n")
        return EXIT_INPUT_ERROR
    return EXIT_PASS if report.overall_passed else EXIT_NO_DECISION


if __name__ == "__main__":
    sys.exit(main())
