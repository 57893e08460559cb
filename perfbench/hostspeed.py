"""Host speed, sampled while a repetition runs.

The benchmark runs on shared virtual machines whose CPU throughput drifts
by up to about 1.5x for a minute or more at a time, with no steal time
reported: the same repetition of ``catalog`` read 5.5 s and 8.1 s a few
minutes apart, and user CPU time moved with it.  A run of tens of seconds
cannot average that out, so the benchmark measures the host's speed while
it measures the program, and reports times scaled to a reference speed.

The probe is a fixed slice of pure-Python integer arithmetic (a chain of
multiply-adds modulo a 61-bit prime) that keeps no data of its own: it is
independent of qcong, and what qcong leaves in the caches barely touches
it, so a change to the program does not change what the slice reads.
``Sampler`` runs one slice every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler, in the measured process itself, so the samples cover
the repetition uniformly, between the bytecodes of whatever qcong is doing.  The time spent in slices is taken
out of the measured interval.  ``slowness`` is the mean slice time over
``REFERENCE_S``: 1 at the reference speed, 1.3 when the host runs 1.3x
slower.  Measured time divided by slowness is time at the reference speed.
"""

from __future__ import annotations

import signal
import time

#: about the wall time of one slice on an unloaded 2-vCPU Intel Xeon virtual
#: machine (Python 3.11); it only sets the scale of the scaled times
REFERENCE_S = 3.0e-4
INTERVAL_S = 0.025

_MOD = (1 << 61) - 1
_MULT = 0x9E3779B97F4A7C15
_STEPS = 1000


def calibration_slice():
    acc = 1
    for i in range(_STEPS):
        acc = (acc * _MULT + i) % _MOD
    return acc


class Sampler:
    """Times a calibration slice every ``interval`` seconds of wall time
    inside ``with``; accumulates the slice count and wall and CPU time."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.count = 0
        self.wall = 0.0
        self.cpu = 0.0

    def _slice(self, *_):
        w, c = time.perf_counter(), time.process_time()
        calibration_slice()
        self.wall += time.perf_counter() - w
        self.cpu += time.process_time() - c
        self.count += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.count:   # an interval shorter than the timer's
            self._slice()

    def slowness(self, clock="wall"):
        """Mean slice time over the reference; ``clock`` is wall or cpu."""
        total = self.wall if clock == "wall" else self.cpu
        return total / self.count / REFERENCE_S
