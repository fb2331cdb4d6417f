"""CPU-speed probe that turns wall seconds into reference seconds.

On a shared VM the CPU speed of one vCPU swings by up to ~1.8x within
seconds, and a whole run can sit in a slow or a fast phase.  While the
benchmark runs, a wall-clock timer interrupts it 20 times a second and times
two fixed pieces of code: pure-Python list indexing, bisect, dict and float
work with small masked numpy reductions (like the simulator and the chain
analysis), and one batched einsum over 48-state kernels (like the RVI
batch).  A command's reference time is its wall time multiplied by the mean
speed the probes measured while it ran, i.e. the time it would have taken
at the speed at which the parts take ``REFERENCE_S``.  The probe is the
benchmark's own code, so a change to the package cannot move it; it costs
about 1 % of the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_right

import numpy as np

INTERVAL_S = 0.05
# time of each calibration part at the reference speed
REFERENCE_S = {"python": 1.5e-4, "array": 6e-5}
_ROWS = [[0.2, 0.5, 1.0], [0.1, 0.7, 1.0], [0.3, 0.6, 1.0]]
_DRAWS = np.random.default_rng(1).random(400).tolist()
_VALUES = np.arange(18.0)
_KERNELS = np.random.default_rng(2).random((32, 2, 48, 48))
_VECTORS = np.random.default_rng(3).random((32, 48))


def _python_part():
    state, total, counts = 0, 0.0, {}
    for u in _DRAWS:
        state = bisect_right(_ROWS[state], u)
        total += u * state
        counts[state] = counts.get(state, 0) + 1
    for _ in range(40):
        _VALUES[_VALUES > 3.0].sum()


def _array_part():
    np.einsum("kans,ks->kna", _KERNELS, _VECTORS).max(axis=2)


def _timed(part):
    part()              # warms the caches the interrupted code had taken over
    started = time.perf_counter()
    part()
    return time.perf_counter() - started


def probe():
    """Speed now relative to the reference speed (1.0 = reference).

    The geometric mean of the two parts' speed-ups: interpreter-bound code
    and batched array code slow down by different amounts when the vCPU is
    contended, and the workloads mix both.
    """
    python, array = _timed(_python_part), _timed(_array_part)
    return (REFERENCE_S["python"] / python * REFERENCE_S["array"] / array) ** 0.5


class SpeedProbe:
    """Context manager sampling ``probe`` on a SIGALRM interval timer."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples)

    def burst(self, count):
        """Take ``count`` probes now, back to back."""
        self.samples.extend(probe() for _ in range(count))

    def factor(self, mark):
        """Reference seconds per wall second since ``mark``.

        Falls back to the latest probe when none was taken since ``mark``.
        """
        return statistics.fmean(self.samples[mark:] or self.samples[-1:])
