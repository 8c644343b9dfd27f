"""The host's speed, sampled while facewall runs, to scale times to a fixed
speed.

On a shared machine the speed of a vCPU changes from second to second and
drifts over tens of minutes (another tenant on the same core), by up to a
factor of two. No single run can wait that out, so the benchmark measures
it instead: a fixed chunk of pure-Python work (regex, dict counting, JSON,
like facewall's own) runs right before and right after each command and,
from a SIGALRM handler, every INTERVAL_S of wall time during it. The chunk
is the benchmark's own code, so no change to facewall can make it faster
or slower; garbage collection is off while it runs, so facewall's heap
does not change its cost either. It leaves the cycle collector's
allocation counts as it found them, so it does not move facewall's
collections.

A command's scaled time is its wall time, less the time the handler took,
times the mean over its samples of NOMINAL_S / sample: each stretch of
wall time counts for the work the chunk says the host could do in it, in
seconds of a host on which the chunk takes NOMINAL_S. Wall times are kept
beside the scaled ones in the run record.
"""

from __future__ import annotations

import gc
import json
import re
import signal
from time import perf_counter

INTERVAL_S = 0.05
# about the chunk's median time on the host the bounds were set on (a
# shared 2-vCPU Xeon VM, Python 3.11), so scaled times read close to wall
# seconds there
NOMINAL_S = 0.00087

_WORD = re.compile(r"\w+")
_TEXT = " ".join(f"w{i % 97}x{i % 13}" for i in range(600))


def chunk() -> float:
    """Runs the fixed work once; returns its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    counts: dict[str, int] = {}
    for word in _WORD.findall(_TEXT):
        counts[word] = counts.get(word, 0) + 1
    json.loads(json.dumps(counts))
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Probe:
    """Samples the chunk around and during one timed call at a time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        entered = perf_counter()
        self.samples.append(chunk())
        self.handler_s += perf_counter() - entered

    def time(self, call):
        """Runs call(); returns (its result, wall seconds, scaled seconds).
        The wall seconds leave the handler's own time out."""
        self.samples = [chunk()]
        self.handler_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            result = call()
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - self.handler_s
        self.samples.append(chunk())
        return result, wall, wall * speed_factor(self.samples)


def speed_factor(samples: list[float]) -> float:
    """Mean of NOMINAL_S / sample: below 1 while the host is slower than
    nominal."""
    return sum(NOMINAL_S / s for s in samples) / len(samples)
