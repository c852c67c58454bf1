"""Statistics the benchmark reports, kept free of any program import.

Every workload replays one fixed operation sequence in several rounds.
An operation's latency is its median across rounds; percentiles are
taken over operations; throughput divides the operation count by the
median round's wall time.  A percentile is only reported when at least
:data:`MIN_BEYOND` samples lie beyond it.

Percentiles use the Harrell-Davis estimator: a weighted mean of all
order statistics, with Beta weights centred on the requested quantile.
Operation costs are heavy-tailed, so near p95 consecutive order
statistics can be 30-40% apart, and the nearest-rank value jumps when two
operations swap places; the weighted mean does not.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: a reported percentile needs this many samples beyond it
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis ``q`` percentile (``0 < q < 1``) of ``values``.

    Raises :class:`UnsupportedPercentile` unless at least
    :data:`MIN_BEYOND` samples lie strictly beyond the nearest rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1), got {!r}".format(q))
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise UnsupportedPercentile(
            "p{:g} of {} samples has {} beyond it; need {}".format(
                100 * q, n, beyond, MIN_BEYOND))
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * value
                     for i, value in enumerate(ordered))


def round_medians(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Per-operation median across rounds (every round replays the same
    sequence, so position ``i`` is the same operation in each)."""
    if not rounds:
        raise ValueError("no rounds")
    length = len(rounds[0])
    if any(len(r) != length for r in rounds):
        raise ValueError("rounds replay different operation counts")
    return [statistics.median(r[i] for r in rounds) for i in range(length)]


def throughput(operations: int, round_seconds: Sequence[float]) -> float:
    """Operations per second over the median round's wall time."""
    return operations / statistics.median(round_seconds)


class Tally:
    """Attempted and failed operations, with the reason for each failure.

    A failure is any operation that did not produce a checked answer: a
    parse error, a non-200 response, a shed request, a truncated answer,
    or a failed correctness check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, passed: bool, reason: str) -> bool:
        """Count one checked operation; returns ``passed``."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def ok_share(self) -> float:
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def latency_summary(op_ms: Sequence[float]) -> Dict[str, float]:
    """``p50`` and ``p95`` over per-operation latencies."""
    return {"latency_p50_ms": percentile(op_ms, 0.50),
            "latency_p95_ms": percentile(op_ms, 0.95)}
