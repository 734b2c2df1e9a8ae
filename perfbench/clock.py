"""Speed-scaled wall clock for a single process.

A shared two-core machine runs the same command 20-50% slower or faster
from one minute to the next, so raw wall time cannot support a speed
claim.  :class:`SpeedClock` samples how fast this process runs right
now: a SIGALRM handler executes a fixed reference snippet every
``PERIOD_S`` seconds of wall time and records how long it took.  Each
stretch of wall time between two snippet runs is divided by the duration
of the snippet run that ends it, which converts it to "snippet runs'
worth of work"; an interval's speed-scaled length is that work times
``NOMINAL`` (the snippet time recorded at the seed in ``baseline.json``).
Snippet time itself is left out.  Weighting each stretch by its own
sample, rather than the whole run by the mean sample, follows the speed
as it drifts during a run.  Seven repeats of the ``coalgebra`` workload on
a noisy 2-core VM took 8.6-15.9 s raw, 10.3-10.9 s scaled by the
whole-run mean, and 11.1-11.4 s scaled stretch by stretch.

The snippet uses only builtins and :mod:`fractions` -- the same kind of
work the verifier does (dicts, tuples, exact rationals) -- and never the
package under test, so a change to the package cannot change the yardstick.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
CALIBRATION_RUNS = 5


def reference_snippet() -> int:
    """Fixed mix of rational arithmetic and dict/tuple traffic (~5 ms)."""
    acc: dict = {}
    total = Fraction(0)
    for i in range(1400):
        key = (i % 13, i % 7)
        total += Fraction(i % 9 - 4, i % 11 + 1)
        acc[key] = acc.get(key, 0) + 1
    return len(acc) + total.denominator % 7


class SpeedClock:
    """Periodic reference-snippet sampler; use as a context manager.

    ``origin`` is the ``perf_counter`` time the work to be measured began,
    for instance when the parent process spawned this one (the clock is
    system-wide, so it compares across processes).
    """

    def __init__(self, origin: float | None = None) -> None:
        self.work = 0.0  # wall time outside the snippet, in snippet runs
        self._last_end = time.perf_counter() if origin is None else origin
        self._last = 0.0

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_snippet()
        t1 = time.perf_counter()
        self.work += (t0 - self._last_end) / (t1 - t0)
        self._last_end, self._last = t1, t1 - t0

    def __enter__(self) -> "SpeedClock":
        # the stretch before the clock started (interpreter start-up, when
        # there is an origin) is priced at the median of a few runs
        started = time.perf_counter()
        runs = []
        for _ in range(CALIBRATION_RUNS):
            t0 = time.perf_counter()
            reference_snippet()
            runs.append(time.perf_counter() - t0)
        self._last = sorted(runs)[CALIBRATION_RUNS // 2]
        self.work = (started - self._last_end) / self._last
        self._last_end = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """(perf_counter, work so far); two marks bound an interval.

        The stretch since the last snippet run is priced at that run's speed.
        """
        now = time.perf_counter()
        return now, self.work + (now - self._last_end) / self._last


def scaled(a: tuple[float, float], b: tuple[float, float], nominal: float) -> float:
    """Speed-scaled seconds between marks ``a`` and ``b``."""
    return (b[1] - a[1]) * nominal
