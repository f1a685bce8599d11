"""Inequality indices over distributions of nonnegative measurements.

Each index condenses the per-entity values of one metric (one version of one
package) into a single number: 0 means every entity holds the same share,
larger means the total is concentrated in fewer entities. All four indices
are scale-free, so they stay comparable across versions even when the
underlying metric drifts in magnitude.

Conventions: population denominators (n^2, not n(n-1)), so the upper bound
of Gini and Pietra for a single holder is exactly (n-1)/n; 0*ln(0) = 0 for
Theil; a single-element distribution has no internal inequality and scores 0
on every index.

Numerics: the values are sorted once, and every sum is ``math.fsum``, which
rounds the exact sum of its terms once. So an index gives the same bits for
any order of its input, on any CPU and with any thread count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul, sub, truediv

from .errors import AnalysisError

DEFAULT_EPSILON = 0.5


@dataclass(frozen=True)
class InequalityReport:
    """All four indices of one distribution, with the inputs that shaped them."""

    gini: float
    pietra: float
    theil: float
    atkinson: float
    epsilon: float
    n: int


def _validate(values) -> tuple[list[float], float]:
    """The values as an ascending list of floats, and their sum."""
    x = list(map(float, values))
    if not x:
        raise AnalysisError("empty input")
    if not all(map(math.isfinite, x)):
        raise AnalysisError("non-finite value")
    x.sort()
    if x[0] < 0.0:
        raise AnalysisError("negative value")
    try:
        total = math.fsum(x)
    except OverflowError:
        raise AnalysisError("sum beyond the float range") from None
    if total / len(x) <= 0.0:
        raise AnalysisError("degenerate mean")
    return x, total


# Kernels over a validated (ascending, sum) pair. A single value scores 0 on each
# without a special case: its mean is the value itself, so every ratio is exactly 1.

def _gini(x: list[float], total: float) -> float:
    n = len(x)
    if math.isinf(n * total):  # n * total bounds every term and the denominator
        raise AnalysisError("n times the sum beyond the float range")
    # sum of (2i - n - 1) x_(i), rather than 2 sum i x_(i) - (n + 1) sum x_(i), which cancels
    return math.fsum(map(mul, range(1 - n, n, 2), x)) / (n * total)


def _pietra(x: list[float], total: float) -> float:
    n = len(x)
    if math.isinf(n * total):  # n * total bounds the denominator 2 n mu
        raise AnalysisError("n times the sum beyond the float range")
    mu = total / n
    return math.fsum(map(abs, map(sub, x, repeat(mu)))) / (2.0 * n * mu)


def _theil(x: list[float], total: float) -> float:
    n = len(x)
    # zeros, and ratios that underflow to 0 (each term below 4e-321), left out: 0 ln 0 = 0
    r = list(filter(None, map(truediv, x, repeat(total / n))))
    return math.fsum(map(mul, r, map(math.log, r))) / n


def _atkinson(x: list[float], total: float, epsilon: float) -> float:
    if not 0.0 < epsilon < math.inf:
        raise AnalysisError("invalid aversion parameter")
    n = len(x)
    r = map(truediv, x, repeat(total / n))
    if epsilon >= 1.0 and x[0] == 0.0:
        return 1.0
    if x[bisect_right(x, 0.0)] / (total / n) == 0.0:  # a lost term, or no power or log of 0
        raise AnalysisError("ratio of a positive value to the mean below the float range")
    if epsilon == 1.0:
        return 1.0 - math.exp(math.fsum(map(math.log, r)) / n)
    try:
        m = math.fsum(map(pow, r, repeat(1.0 - epsilon))) / n
    except OverflowError:  # a term past the float range, so epsilon > 1 and x[0] > 0:
        # factor out the smallest ratio x[0] / mu, after which no term exceeds 1
        m = math.fsum(map(pow, map(truediv, x, repeat(x[0])), repeat(1.0 - epsilon))) / n
        return 1.0 - x[0] / (total / n) * m ** (1.0 / (1.0 - epsilon))
    return 1.0 - m ** (1.0 / (1.0 - epsilon))


# index -> kernel(x, total, epsilon), in the order a report runs them and so refuses
_KERNELS = {
    "gini": lambda x, total, epsilon: _gini(x, total),
    "pietra": lambda x, total, epsilon: _pietra(x, total),
    "theil": lambda x, total, epsilon: _theil(x, total),
    "atkinson": _atkinson,
}


def _report(x: list[float], total: float, epsilon: float, **known: float) -> InequalityReport:
    """The report of a validated pair; the indices in ``known`` are not computed again."""
    for name, kernel in _KERNELS.items():
        if name not in known:
            known[name] = kernel(x, total, epsilon)
    return InequalityReport(**known, epsilon=epsilon, n=len(x))


def gini(values) -> float:
    """Gini index: half the mean absolute pairwise difference, over the mean.

    Ranges from 0 (perfect equality) to (n-1)/n (one entity holds
    everything). Computed in the sorted O(n log n) form; the O(n^2)
    pairwise definition serves as the oracle in the test suite.
    """
    return _gini(*_validate(values))


def pietra(values) -> float:
    """Ricci-Schutz (Pietra) index: half the relative mean deviation.

    Equals the largest vertical gap between the Lorenz curve and the
    equality diagonal.
    """
    return _pietra(*_validate(values))


def theil(values) -> float:
    """Theil T entropy index: (1/n) sum (x/mu) ln(x/mu).

    0 for equality, ln(n) when exactly one entity holds everything.
    Zero-valued entries contribute nothing (0*ln(0) = 0), nor do values
    whose ratio to the mean underflows to 0.
    """
    return _theil(*_validate(values))


def atkinson(values, epsilon: float = DEFAULT_EPSILON) -> float:
    """Atkinson index with a finite inequality-aversion parameter epsilon > 0.

    1 minus the ratio of the generalized mean of order 1-epsilon to the
    arithmetic mean; for epsilon = 1 the generalized mean is the geometric
    mean. Ranges over [0, 1]; any zero value forces 1 when epsilon >= 1.
    Otherwise a positive value whose ratio to the mean underflows to 0 is
    refused: its term would be lost, or have no power or log.
    """
    return _atkinson(*_validate(values), epsilon)


def lorenz_points(values) -> list[tuple[float, float]]:
    """Cumulative-share curve of the sorted values.

    Returns n+1 points from (0, 0) to (1, 1); point k is (k/n, share of the
    total held by the k smallest entities). The Gini index equals one minus
    twice the trapezoidal area under this curve.
    """
    x, _ = _validate(values)
    n = len(x)
    cum = list(accumulate(x))
    points = [(0.0, 0.0)]
    points.extend(((k + 1) / n, c / cum[-1]) for k, c in enumerate(cum))
    return points


def inequality_report(values, epsilon: float = DEFAULT_EPSILON) -> InequalityReport:
    """All four indices of one distribution, validated and sorted once."""
    return _report(*_validate(values), epsilon)
