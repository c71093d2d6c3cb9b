"""Host-speed calibration: timings in reference seconds.

On a shared host the speed of one core moves by up to 2x, from one second
to the next and for minutes at a time, as other tenants come and go. A
piece of work timed alone carries that swing; timed between two samples
of a fixed kernel, its ratio to them does not. ``Clock`` brackets every
timed piece with such samples and returns the piece's time in reference
seconds: its wall time times REF_S over the mean of the kernel samples
taken just before and just after it, i.e. what the piece would take on
this host while the kernel takes REF_S.

The kernel is the same kind of work as the program's hot path, a Python
loop over small numpy factorizations, on fixed inputs; it runs no
sensorsched code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

perf = time.perf_counter

# The kernel's time at the fastest speed seen on the 2-core machine the
# reference figures in README.md were taken on.
REF_S = 0.0035

_rng = np.random.default_rng(0)
_BLOCKS = [np.eye(4) * 2.0 + 0.1 * _rng.standard_normal((4, 4)) for _ in range(25)]
_BLOCKS = [b @ b.T for b in _BLOCKS]
_REPEATS = 8


def kernel_s() -> float:
    """Seconds of one run of the calibration kernel: a block-tridiagonal-like
    pivot recursion over 25 fixed 4x4 blocks, eight times."""
    started = perf()
    for _ in range(_REPEATS):
        S = _BLOCKS[0]
        for b in _BLOCKS:
            L = np.linalg.cholesky(S + b)
            float(np.log(np.diag(L)).sum())
            S = np.linalg.solve(L, b)
            S = 0.1 * (S.T @ S)
    return perf() - started


class Clock:
    """Times pieces of work in reference seconds.

    ``start()`` takes a kernel sample and returns the start time;
    ``stop(started)`` takes another and returns the scaled time of the
    piece in between. ``lap(seconds)`` scales a piece that was timed
    elsewhere and has just ended, against the last sample and a new one.
    ``samples`` keeps every kernel sample, ``spent`` their total time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._before = self._sample()

    def _sample(self) -> float:
        took = kernel_s()
        self.samples.append(took)
        self.spent += took
        return took

    def start(self) -> float:
        self._before = self._sample()
        return perf()

    def lap(self, seconds: float) -> float:
        before, after = self._before, self._sample()
        self._before = after
        return seconds * REF_S / (0.5 * (before + after))

    def stop(self, started: float) -> float:
        return self.lap(perf() - started)
