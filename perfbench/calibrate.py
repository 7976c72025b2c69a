"""Machine-speed calibration: a fixed numpy loop that shares no code with ueigen.

The machines the benchmark runs on change speed by up to 2x from one second
to the next when other tenants load them. A ``Sampler`` times the loop four
times a second from a SIGALRM handler, pausing whatever runs, so the samples
cover every job evenly. A span of time measured on ``Sampler.now``, a clock
that stops during the samples, is converted to the reference speed, the
speed at which one sample takes ``REFERENCE_S`` seconds, by multiplying it
with ``REFERENCE_S / mean(samples taken during it)``. Program changes cannot
move the samples, so they move the converted times in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# The nominal length of one sample; converted times are seconds on a machine
# where a sample takes exactly this long.
REFERENCE_S = 0.01
INTERVAL_S = 0.25

_rng = np.random.default_rng(20190128)
_SMALL = np.conj(_rng.standard_normal((3, 3, 3)) + 1j * _rng.standard_normal((3, 3, 3)))
_DENSE = np.conj(_rng.standard_normal((20, 20, 20)) + 1j * _rng.standard_normal((20, 20, 20)))


def sample() -> float:
    """Seconds for one fixed mix of small-tensor sweeps, which cost mostly
    interpreter time, and 20^3 contractions, which cost mostly memory."""
    t0 = perf_counter()
    vecs = [np.full(3, 3**-0.5, dtype=complex) for _ in range(3)]
    for _ in range(150):
        for k, sub in enumerate(("abc,b,c->a", "abc,a,c->b", "abc,a,b->c")):
            others = [v for i, v in enumerate(vecs) if i != k]
            u = np.conj(np.einsum(sub, _SMALL, *others)) + vecs[k]
            vecs[k] = u / float(np.linalg.norm(u))
    x = np.full(20, 20**-0.5, dtype=complex)
    for _ in range(100):
        u = np.conj(np.einsum("abc,b,c->a", _DENSE, x, x)) + x
        x = u / float(np.linalg.norm(u))
    return perf_counter() - t0


class Sampler:
    """Calibration samples taken every INTERVAL_S from a SIGALRM handler,
    and a clock that excludes the time they take."""

    def __init__(self):
        self.paused = 0.0
        self.times: list[float] = []  # clock time of each sample
        self.samples: list[float] = []
        self._busy = False

    def now(self) -> float:
        return perf_counter() - self.paused

    def take(self, *_):
        if self._busy:  # the timer fired during an explicit take
            return
        self._busy = True
        t0 = perf_counter()
        self.times.append(t0 - self.paused)
        self.samples.append(sample())
        self.paused += perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def scale(self, start: float, end: float) -> float:
        """Factor from clock seconds in [start, end] to reference seconds:
        the samples taken inside, or else the two around it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        inside = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
        return REFERENCE_S / statistics.fmean(inside)
