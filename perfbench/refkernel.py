"""Fixed reference kernel used to scale timings to a reference host speed.

The kernel imports nothing from ``zassenhaus``.  It mixes the package's two
kinds of work: interpreter-bound ``cmath`` scalar arithmetic (the coefficient
series and closed forms) and small numpy complex matmuls (the Taylor core of
``expm`` on 2x2 to 8x8 matrices).  A ``Pacer`` runs it every few
milliseconds while the workload runs, and each call's time is multiplied by
``REFERENCE_S / mean(kernel times near that call)``: a host that is slow
for a phase of the run is slow for the kernel in the same phase.
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import time

import numpy as np

# A round figure near the mean kernel time on the host the first baseline
# was taken on (2-core x86-64 container, Python 3.11.7, numpy 2.4.6), where
# it ranged from 1.0 to 2.3 ms with the load of other tenants.  Scaled
# timings read as if the kernel had taken exactly this long.
REFERENCE_S = 0.002

_SCALAR_STEPS = 1500
_MATRIX_DIMS = (2, 3, 4, 8)
_MATRIX_STEPS = 48


def _fixed_matrix(n: int) -> np.ndarray:
    k = np.arange(n * n, dtype=float).reshape(n, n)
    return (np.cos(0.7 * k) + 1j * np.sin(0.3 * k + 0.1)) / (2.0 * n)


_MATRICES = tuple(_fixed_matrix(n) for n in _MATRIX_DIMS)


def kernel() -> complex:
    """One fixed unit of mixed scalar and small-matrix work; returns a checksum."""
    z = complex(0.31, -0.17)
    total = 0.0j
    term = 1.0 + 0.0j
    for k in range(1, _SCALAR_STEPS + 1):
        term = term * z / (k % 11 + 1)
        total += cmath.exp(z * (k % 7) * 0.1) * 0.5 + term
        if abs(term) < 1e-12:
            term = 1.0 + 0.0j
    for A in _MATRICES:
        result = np.eye(A.shape[0], dtype=complex)
        power = result
        for k in range(1, _MATRIX_STEPS + 1):
            power = power @ A / k
            result = result + power
        total += complex(result.sum())
    return total


class Pacer:
    """Runs the kernel from a SIGALRM handler, ``period_s`` after each run ends.

    Host speed on a shared machine changes within a second, faster than
    one 41x41 sweep takes, so the kernel has to run inside long calls, not
    only between them.  The handler runs in the main thread between
    bytecodes; ``now`` is a clock that stops while the kernel runs, so
    timings read with it exclude the kernel.
    """

    def __init__(self, period_s: float) -> None:
        self.period_s = period_s
        self.kernel_s: list[float] = []
        self.kernel_at: list[float] = []
        self.total_s = 0.0
        self._previous = None
        self._running = False

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.kernel_s.append(elapsed)
        self.kernel_at.append(start)
        self.total_s += elapsed
        if self._running:
            # One-shot timer re-armed from here: on a host slow enough for
            # the kernel to outlast the period, the kernel still takes at
            # most a fifth of the time instead of starving the workload.
            signal.setitimer(signal.ITIMER_REAL, max(self.period_s, 4.0 * elapsed))

    def mean_near(self, start: float, end: float, margin_s: float) -> float:
        """Mean kernel time over runs that began in [start - margin, end + margin].

        Falls back to the mean of all runs when none began in that window.
        """
        lo = bisect.bisect_left(self.kernel_at, start - margin_s)
        hi = bisect.bisect_right(self.kernel_at, end + margin_s)
        window = self.kernel_s[lo:hi] or self.kernel_s
        return math.fsum(window) / len(window)

    def now(self) -> float:
        """perf_counter minus all kernel time so far."""
        while True:
            total = self.total_s
            t = time.perf_counter()
            if self.total_s == total:
                return t - total

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        # Stop re-arming before cancelling, so a tick that lands in
        # between cannot leave a timer set after the handler is gone.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
