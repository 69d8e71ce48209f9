"""Scaling of measured times to a fixed reference host speed.

On a shared host the same code can run at speeds that drift by up to a
factor of two, within a second as well as over tens of seconds (NOTES.md,
"Host-speed scaling"), which swamps any change to the program.  So a short
probe kernel, of the same kind of work as the program's hot loops (a Python
loop of numpy calls on 16-element arrays), samples the host's speed right
before and after every measured step and, from an interval timer, every
SAMPLE_EVERY_S seconds while the step runs.  The step's time, less the
probes run inside it, is scaled to the speed at which one probe takes
REFERENCE_S seconds.  The probe does not touch the package, so a change to
the program moves the scaled times by the same factor as the raw ones.
"""

import signal
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005
PROBE_ITERS = 3000
BRACKET_PROBES = 4
SAMPLE_EVERY_S = 0.1

_probe_s = 0.0  # wall seconds spent in probes so far
_busy = False


def program_time() -> float:
    """``perf_counter()`` less the time spent in probes: the program's own clock."""
    return perf_counter() - _probe_s


def probe() -> float:
    """Run the probe kernel once; returns the seconds its loop took."""
    global _probe_s, _busy
    if _busy:  # a timer signal that lands inside a probe is dropped
        return 0.0
    _busy = True
    start = perf_counter()
    best = np.zeros(16)
    col = np.linspace(1.0, 2.0, 16)
    table = np.arange(16 * 16, dtype=float).reshape(16, 16) / 256.0
    coef = np.linspace(0.5, 1.5, 16)
    t0 = perf_counter()
    for i in range(PROBE_ITERS):
        k = i & 15
        np.minimum(best, col * coef[k] + table[k], out=best)
    t1 = perf_counter()
    _probe_s += t1 - start
    _busy = False
    return t1 - t0


class Clock:
    """Times consecutive steps and scales each to the reference host speed.

    The probes run after one step are also the ones before the next.
    """

    def __init__(self):
        self.last = [probe() for _ in range(BRACKET_PROBES)]

    def run(self, fn, *args, sample=True):
        """Call ``fn(*args)``; returns (raw seconds, scaled seconds, its result).

        With ``sample`` the interval timer probes while ``fn`` runs.  Leave
        it off when ``fn`` waits for a child process, which the probes would
        compete with for a processor.
        """
        samples = list(self.last)
        if sample:
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = program_time()
        try:
            result = fn(*args)
        finally:
            raw = program_time() - t0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self.last = [probe() for _ in range(BRACKET_PROBES)]
        samples += self.last
        # The work done in a step is its time integrated against the host's
        # speed, and the speed is inverse to the probe time.
        speed = sum(REFERENCE_S / p for p in samples if p > 0) / sum(1 for p in samples if p > 0)
        return raw, raw * speed, result
