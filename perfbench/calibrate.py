"""Host-speed probe: time of a fixed pure-Python loop, next to each sample.

On a shared host the same CPU-bound work runs up to 1.5-2x slower for
stretches of seconds to minutes, and CPU time stretches with wall time (the
host does not steal the CPU; the core runs slower), so neither clock alone
repeats from run to run.  The loop below slows down with the host by about
the same factor as most of the library's work (see README.md for how well),
so every time the benchmark reports is scaled to a host that runs one
iteration of the loop in REFERENCE_S:

    reported = measured * REFERENCE_S / (loop time per iteration)

The loop time comes from `probe`, run between samples, for a short sample,
and from the `Ticker` while a longer one runs.  The raw times are kept next
to the scaled ones in the full result.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 4e-8     # per iteration: the probe's least time on a 2-vCPU x86-64 VM
PROBE_LOOP = 10_000    # iterations of one probe run, about 0.4 ms
PROBE_RUNS = 3
TICK_LOOP = 2_000      # iterations of one tick, about 0.08 ms
TICK_S = 0.01          # wall time between ticks
MIN_TICKS = 5          # a sample with fewer ticks is scaled by the probes around it
RECENT_PROBES = 9      # probes that scale a sample: the latest, up to the one after it


def _loop(n: int) -> int:
    x = 0
    for j in range(n):
        x += j
    return x


def probe() -> float:
    """Least time per iteration of PROBE_RUNS runs of the loop, in seconds."""
    best = float("inf")
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        _loop(PROBE_LOOP)
        best = min(best, time.perf_counter() - start)
    return best / PROBE_LOOP


class Ticker:
    """Runs the loop every TICK_S of wall time, from SIGALRM, inside `with`.

    Ticks run between the sample's bytecodes (during a long call into numpy,
    right after it), so they see the host's speed across the whole sample.
    `spent` is their total time, which the caller subtracts from the sample;
    `clock` is perf_counter less the time of every tick so far.
    The handler stays installed, so a tick already due when the timer stops
    is dropped rather than left to SIGALRM's default action.
    """

    def __init__(self):
        self.active = False
        self.ticks: list[float] = []
        self.spent = 0.0
        self.total = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def __enter__(self) -> "Ticker":
        self.ticks = []
        self.spent = 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        start = time.perf_counter()
        _loop(TICK_LOOP)
        elapsed = time.perf_counter() - start
        self.ticks.append(elapsed / TICK_LOOP)
        self.spent += elapsed
        self.total += elapsed

    def clock(self) -> float:
        return time.perf_counter() - self.total


def scale(probes, ticks=()) -> float:
    """Factor from a sample's measured time to reference-host time.

    `probes` are the latest probes up to the one right after the sample,
    `ticks` the Ticker's loop times during it.  Enough ticks outweigh the
    probes; medians keep a probe or tick that caught a cold cache from
    setting the factor.
    """
    if len(ticks) >= MIN_TICKS:
        return REFERENCE_S / statistics.median(ticks)
    return REFERENCE_S / statistics.median(probes)
