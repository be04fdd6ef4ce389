"""Speed probe: corrects the benchmark's timings for the drift of a shared host.

On a shared 2-core machine the speed of a core switches within a fraction
of a second between two levels about 1.5 times apart, and the share of time
at each level drifts over seconds to minutes: medians over two-second
windows of a fixed `sdp_solve` ranged from 0.74 to 1.23 of their overall
median within two minutes, with process CPU time equal to wall time. So
while a round runs, a timer signal runs a short fixed probe (interpreter
work and the small LAPACK calls the solver makes) every INTERVAL_S, and
each operation's time is corrected by the probe's mean slowdown over the
operation, widened by WINDOW_S on each side:

    seconds = (wall seconds - probe time inside) * REFERENCE_S / mean probe time

Reported times are thus seconds at the speed at which the probe takes
REFERENCE_S, about its median on the reference machine; raw wall times stay
in the result file. The probe takes about 4% of the wall time while
sampling and none of the timed time.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from scipy.linalg import lu_factor, lu_solve

REFERENCE_S = 0.0034
INTERVAL_S = 0.1
WINDOW_S = 0.5  # probes this close to an operation correct its time

_rng = np.random.default_rng(20260101)
_SYM = _rng.standard_normal((22, 22))
_SYM = _SYM + _SYM.T
_LU = lu_factor(_rng.standard_normal((329, 329)) + 40.0 * np.eye(329))
_RHS = _rng.standard_normal(329)
_eigh = np.linalg.eigh  # bound now: the tracer may patch np.linalg later


def probe() -> float:
    """Wall time of a fixed mix of interpreter work and small LAPACK calls."""
    start = perf_counter()
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    for _ in range(8):
        _eigh(_SYM)
        lu_solve(_LU, _RHS)
    return perf_counter() - start


class SpeedLog:
    """Probe samples (start, seconds), taken every INTERVAL_S while sampling."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append((start, probe()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def probe_s(self, start: float, end: float) -> float:
        """Probe time spent inside [start, end]."""
        return sum(s for t, s in self.samples if start <= t < end)

    def slowdown(self, start: float, end: float) -> float | None:
        """Mean probe time over [start, end] relative to REFERENCE_S."""
        inside = [s for t, s in self.samples if start <= t < end]
        return sum(inside) / len(inside) / REFERENCE_S if inside else None
