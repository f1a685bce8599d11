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
any order of its input, on any CPU and with any thread count. Theil and
Atkinson read one list of log ratios ln(x/mu), and Atkinson stays in that log domain.
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


def _log_ratios(x: list[float], total: float) -> tuple[list[float], list[float], int]:
    """The positive values' ratios x_i / mu, ascending, their logs, and the number of zeros."""
    mu = total / len(x)
    zeros = bisect_right(x, 0.0)
    r = list(map(truediv, x[zeros:], repeat(mu)))
    lost = bisect_right(r, 0.0)  # ratios that underflow to 0 still have a log
    logs = [math.log(v) - math.log(mu) for v in x[zeros:zeros + lost]]
    logs += map(math.log, r[lost:])
    return r, logs, zeros


def _theil(r: list[float], logs: list[float], zeros: int) -> float:
    # zeros left out, 0 ln 0 = 0, and so are ratios that underflow to 0 (each term -0.0)
    return math.fsum(map(mul, r, logs)) / (len(r) + zeros)


def _atkinson(logs: list[float], zeros: int, epsilon: float) -> float:
    if not 0.0 < epsilon < math.inf:
        raise AnalysisError("invalid aversion parameter")
    n = len(logs) + zeros
    if epsilon >= 1.0 and zeros:
        return 1.0
    d = 1.0 - epsilon
    if d == 0.0:
        log_mean = math.fsum(logs) / n  # the geometric mean
    else:  # below aversion 1 no ratio exceeds n, so no term needs a shift; above it, the
        # smallest ratio's term is the largest, shifted inside the product: d l_i may overflow
        top = logs[0] if d < 0.0 else 0.0
        terms = map(math.expm1, map(mul, map(sub, logs, repeat(top)), repeat(d)))
        log_mean = top + math.log1p((math.fsum(terms) - zeros) / n) / d
    # 1 - M / mu; max turns an equal slice's -0.0, or a rounding below 0, into 0.0
    return max(0.0, -math.expm1(log_mean))


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
    return _theil(*_log_ratios(*_validate(values)))


def atkinson(values, epsilon: float = DEFAULT_EPSILON) -> float:
    """Atkinson index with a finite inequality-aversion parameter epsilon > 0.

    1 - M/mu, M the generalized mean of order d = 1-epsilon, in one log-domain
    form over l_i = ln(x_i/mu): ln(M/mu) = top + log1p(mean expm1(d (l_i - top))) / d,
    where top is 0 if d > 0 and the smallest l_i if d < 0, and mean l_i at
    epsilon = 1 (the geometric mean). So it is continuous through 1 and no term
    leaves the float range. Ranges over [0, 1]; any zero value forces 1 when
    epsilon >= 1.
    """
    _, logs, zeros = _log_ratios(*_validate(values))
    return _atkinson(logs, zeros, epsilon)


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
    """All four indices of one distribution, validated and sorted once, refused in field order."""
    x, total = _validate(values)
    r, logs, zeros = _log_ratios(x, total)
    return InequalityReport(_gini(x, total), _pietra(x, total), _theil(r, logs, zeros),
                            _atkinson(logs, zeros, epsilon), epsilon, len(x))
