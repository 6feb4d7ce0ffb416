"""A fixed pure-Python workload that measures how fast the host is right now.

The benchmark's hosts are shared virtual machines whose speed drifts by
tens of percent over seconds to minutes, so a raw latency mixes the
program's cost with the host's current speed.  ``calibrate`` does the same
work on every call, shares no code with ncgames, and exercises what the
ncgames workloads spend their time on: interpreter dispatch, small-int
arithmetic, tuple construction and hashing, and dict and list access.  It
keeps about a megabyte live, far below what any workload op holds.
Timed next to and during every op it gives the host's speed at that
moment; an op's latency divided by it is the op's cost in calibration
units ("cal"), which stays put when the host as a whole slows down.

The input graph is built on the first call, not at import, so that the
benchmark's setup probes do not pay for it.
"""
from __future__ import annotations

import functools
import random
import signal
from time import perf_counter

NODES = 4000
SWEEPS = 4  # about 10 ms on a 2.1 GHz Xeon vCPU


@functools.cache
def _successors() -> tuple:
    rng = random.Random(20131224)
    return tuple(tuple(rng.randrange(NODES) for _ in range(3)) for _ in range(NODES))


def _work(succ: tuple, sweeps: int) -> int:
    value = [0] * NODES
    counts: dict = {}
    for sweep in range(sweeps):
        for v in range(NODES):
            best = -1
            for u in succ[v]:
                x = value[u] + ((v ^ u ^ sweep) & 3)
                if x > best:
                    best = x
            value[v] = best if best < 64 else 0
            key = (v & 1023, best & 7)
            counts[key] = counts.get(key, 0) + 1
    return sum(value) + sum(k[0] * c for k, c in counts.items())


@functools.cache
def _expected(sweeps: int) -> int:
    return _work(_successors(), sweeps)


def calibrate(sweeps: int = SWEEPS) -> float:
    """Seconds taken by one run of the fixed workload."""
    succ, expected = _successors(), _expected(sweeps)
    start = perf_counter()
    result = _work(succ, sweeps)
    elapsed = perf_counter() - start
    if result != expected:
        raise RuntimeError("the calibration workload gave a different result")
    return elapsed


def window(at_least: float) -> list[float]:
    """Calibration times, repeated until they add up to ``at_least`` seconds."""
    samples = [calibrate()]
    while sum(samples) < at_least:
        samples.append(calibrate())
    return samples


class Sampler:
    """Runs ``calibrate`` every ``interval`` seconds of wall time while active.

    A long op spans seconds over which the host's speed changes, so
    samples taken only before and after it miss what it ran at.  While a
    sampler is active, SIGALRM interrupts the op between two bytecodes,
    times one calibration and returns to the op.  ``samples`` holds the
    calibration times, ``paused`` the wall time spent in the handler, to be
    taken off the op's latency.  Use only in the main thread, around code
    that neither uses SIGALRM nor starts processes.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.paused = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # an alarm that arrives during a calibration is dropped
            return
        self._busy = True
        start = perf_counter()
        try:
            self.samples.append(calibrate())
        finally:
            self.paused += perf_counter() - start
            self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # not the default action: an alarm still in flight would end the process
        signal.signal(signal.SIGALRM, _ignore)


def _ignore(signum, frame) -> None:
    pass
