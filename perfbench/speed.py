"""Machine-speed probe, so that timings from a shared, drifting host compare.

On a machine shared with other tenants, the speed of pure-Python code
drifts by 20% and more over minutes, and a run's median moves with it.
The probe times a fixed kernel of ``Fraction`` comparisons, dict, tuple
and small-object work every ``PERIOD_S`` seconds from a ``SIGALRM``
handler, in the same process as the operations and while they run.
Each operation's time is then scaled to the kernel's reference time,
``normalized = raw * REF_MS / mean(kernel ms during the operation)``.
The host's slow and fast spells last about a second, so the samples
taken during an operation track them; a run-level average would not.
The kernel uses only the standard library, so no change to
``ultragraph`` can change it.  Time spent in the handler is counted in
``spent_s`` and subtracted from operation times by the caller.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_MS = 1.0
PERIOD_S = 0.05
_VALUES = [Fraction(i * 7919 % 1000 + 1, i % 13 + 1) for i in range(20)]


class _Pair:
    __slots__ = ("high", "pair")

    def __init__(self, high: Fraction, pair: tuple) -> None:
        self.high = high
        self.pair = pair


def kernel_ms() -> float:
    """About 1 ms of the work ``ultragraph`` is made of: ``Fraction``
    comparisons, tuple-keyed dicts, small objects, sets and sorting."""
    t = time.perf_counter()
    below = 0
    for a in _VALUES:
        for b in _VALUES:
            if a < b:
                below += 1
    best = {}
    for a in _VALUES:
        for b in _VALUES[:12]:
            best[(a.numerator % 17, b.denominator)] = _Pair(a if a > b else b, (a, b))
    seen = set(_VALUES[:8])
    ranked = sorted(best.items())
    rows = [tuple(sorted({j: (j, i) for j in range(6)}.values(), reverse=True)) for i in range(150)]
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    del seen, ranked, rows
    return (time.perf_counter() - t) * 1000


class Probe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t = time.perf_counter()
        self.samples.append(kernel_ms())
        self.spent_s += time.perf_counter() - t

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor_since(self, first: int) -> float:
        """Speed factor over the samples taken since ``len(samples)`` was
        ``first``, or the latest ones if none was: multiply a time by it to
        get the time at the reference speed."""
        window = self.samples[first:] or self.samples[-3:] or [kernel_ms()]
        return REF_MS / statistics.fmean(window)


def burst_factor(count: int = 25) -> float:
    """Speed factor from ``count`` back-to-back kernel runs (for set-up time)."""
    return REF_MS / statistics.fmean(kernel_ms() for _ in range(count))
