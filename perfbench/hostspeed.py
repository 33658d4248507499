"""The host's speed while the work ran, from a small unit of
interpreter work timed every 50 ms.

The reference host is a 2-core VM shared with other tenants.  Its speed
drifts between fast and slow phases, from one second to the next and
over minutes, by up to half; process CPU time follows wall time there
(the tenants contend for the cores, they do not steal them), so CPU
time does not remove the drift either.  The benchmark therefore times a
fixed unit of pure-Python work, which touches none of the program,
every ``SAMPLE_EVERY_S`` of wall time while the work runs (from a
``SIGALRM`` handler, so the samples spread evenly over long ops too),
and rescales the work's wall time to what it would have been at the
reference speed:

    reference seconds = wall seconds * UNIT_REF_S / mean unit seconds

A slower program still reads slower, by the same share; a slower host
does not.  The unit exercises what the simulators spend their time on:
attribute reads and writes on a slotted object, small-int arithmetic,
dict loads and stores, list indexing, branches and appends.
"""

from __future__ import annotations

import signal
import time

#: wall seconds between two samples
SAMPLE_EVERY_S = 0.05
#: iterations of the unit's loop
UNIT_ITERATIONS = 4_000
#: seconds one unit takes on the reference host in a fast phase; it only
#: scales the figures into seconds and never changes between commits
UNIT_REF_S = 0.00075


class _Regs:
    __slots__ = ("pc", "acc", "mem")

    def __init__(self) -> None:
        self.pc = 0
        self.acc = 0
        self.mem: dict[int, int] = {}


def _unit_work(iterations: int) -> int:
    regs = _Regs()
    mem = regs.mem
    program = [(i * 7) % 13 for i in range(64)]
    trace = []
    for i in range(iterations):
        op = program[i & 63]
        if op < 5:
            regs.acc = (regs.acc + op * i) & 0xFFFFFFFF
        elif op < 9:
            mem[i & 255] = regs.acc ^ op
        else:
            regs.acc = mem.get((i - op) & 255, 0) + 1
        regs.pc += 1
        if (i & 31) == 0:
            trace.append(regs.acc)
    return len(trace)


class HostSampler:
    """While entered, times one unit every ``SAMPLE_EVERY_S`` of wall
    time in the main thread; :meth:`take` hands the samples over.

    A sample runs on the core the work runs on (the benchmark pins
    itself and its children to one core), and its own time is part of
    the wall time of whatever it interrupted: callers subtract it.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _unit_work(UNIT_ITERATIONS)
        self._samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> list[float]:
        """The samples timed since the last call."""
        samples, self._samples = self._samples, []
        return samples


def to_reference_s(wall_s: float, samples: list[float]) -> float:
    """``wall_s`` (the samples' own time already taken out) rescaled to
    the reference speed by the mean of the samples timed during it."""
    return wall_s * UNIT_REF_S * len(samples) / sum(samples)
