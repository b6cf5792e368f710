"""How fast the machine runs Python right now, from fixed reference work.

On the shared 2-core VM this benchmark was built on, at any moment one of
the two CPUs runs Python about 1.6x slower than the other, and which one
is slow switches every few seconds, with no steal time showing; a run's
wall times depend on which CPU it got. So the runner pins itself to one
CPU (``run.pin_to_one_cpu``), times reference work between verdicts and
before each set-up spawn, and scales every time it reports to the speed
at which the reference takes its nominal time::

    scaled time = wall time * nominal / reference time

``ref_s`` times plain Python (recursion, tuples, dicts, sorting, string
joins), the kind of work the analyzer does; ``spawn_s`` times a bare
interpreter start, the reference for verdicts that are whole interpreter
runs. Neither uses wfcheck, so a change to wfcheck moves the scaled times
by the same factor as the wall times.
"""

from __future__ import annotations

import subprocess
import time

#: Reference time the scaled figures are given at; about what the routine
#: takes on a 2.0 GHz Xeon VM in its fast state.
NOMINAL_S = 0.010
#: In a closed loop, the routine runs once per this much verdict time.
EVERY_S = 0.1
#: The same for a bare interpreter start (``python -c pass``). Process
#: start-up and imports slow down less than plain Python on the slow CPU:
#: scaled by ``ref_s``, corpus-cli throughput spread 0.126 of its median in
#: ten runs; scaled by ``spawn_s``, 0.013 and 0.023 in two sets of ten.
NOMINAL_SPAWN_S = 0.040


def _term(depth: int, i: int) -> tuple:
    if depth == 0:
        return ("leaf", i)
    return ("enc", _term(depth - 1, 2 * i), _term(depth - 1, 2 * i + 1))


def _walk(term: tuple, env: dict) -> int:
    if term[0] == "leaf":
        return env.setdefault(term[1], len(env))
    return _walk(term[1], env) + _walk(term[2], env)


def reference() -> int:
    """A fixed amount of work; the result only keeps it from being skipped."""
    total = 0
    for k in range(500):
        env: dict = {}
        total += _walk(_term(5, k), env)
        total += len(",".join(str(v) for v in sorted(env.values())))
    return total


def ref_s() -> float:
    """Seconds the reference routine takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def spawn_s(python: str, **kwargs) -> float:
    """Seconds a bare ``python -c pass`` takes now."""
    t0 = time.perf_counter()
    subprocess.run([python, "-c", "pass"], check=True, **kwargs)
    return time.perf_counter() - t0
