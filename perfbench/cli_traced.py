"""A traced ``wfcheck`` command line.

    PYTHONPATH=src python3 perfbench/cli_traced.py --protocol P --context C

Times ``import wfcheck.cli`` before any harness module is loaded, runs
``wfcheck.cli.main`` with the given arguments under ``tracing.Tracer`` and
writes a JSON record (import time, span summary, spans) as the last line of
stderr. The report goes to stdout and the exit code is the CLI's, as with
``python -m wfcheck``.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import wfcheck.cli

    import_ms = (time.perf_counter() - t0) * 1000.0
    import json

    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        code = wfcheck.cli.main(sys.argv[1:])
    sys.stdout.flush()
    record = {"import_ms": import_ms, "summary": tracer.summary(), "spans": tracer.spans()}
    sys.stderr.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
