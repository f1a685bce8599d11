"""Mann-Kendall trend detection on ordered series.

The ordering of the input carries the time/version axis; only pairwise
comparisons of values enter the statistic, so every result is invariant
under strictly increasing transforms of the values. Short series (n <= 10)
without ties get exact p-values from the permutation null distribution of
S; longer or tied series use the normal approximation with continuity
correction. The result's ``method`` flag records which path was taken.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .errors import AnalysisError

DEFAULT_ALPHA = 0.01
EXACT_MAX_N = 10

NO_TREND = "no_trend_not_rejected"
UPWARD = "upward"
DOWNWARD = "downward"


class TrendResult(NamedTuple):
    """Mann-Kendall outputs plus the decision at the chosen significance level.

    A named tuple, whose ``_asdict()`` gives the report's ``trend`` object (and the
    trend columns of its CSV) in field order.
    """

    s: int
    var_s: float
    z: float
    tau: float
    p_two_sided: float
    p_upward: float
    p_downward: float
    method: str  # "exact" or "normal"
    alpha: float
    decision: str  # NO_TREND, UPWARD, or DOWNWARD


def _validate(series) -> list[float]:
    x = [float(v) for v in series]
    if len(x) < 2:
        raise AnalysisError("series too short")
    if not all(map(math.isfinite, x)):
        raise AnalysisError("non-finite value")
    return x


def _tie_group_sizes(x: list[float]) -> list[int]:
    return [t for t in Counter(x).values() if t > 1]


def mk_s(series) -> int:
    """Mann-Kendall S: concordant minus discordant pairs, over all i < j.

    One pass in O(n log n) comparisons: each value adds the number of earlier
    values below it minus the number above it, counted by bisection in the
    sorted list of the values before it.
    """
    x = _validate(series)
    earlier: list[float] = []
    s = 0
    for v in x:
        below = bisect_left(earlier, v)
        above = bisect_right(earlier, v)
        s += below - (len(earlier) - above)
        earlier.insert(above, v)
    return s


def mk_variance(series) -> float:
    """Tie-corrected variance of S under the no-trend null.

    [n(n-1)(2n+5) - sum t(t-1)(2t+5)] / 18, summing over value tie groups.
    """
    x = _validate(series)
    return _variance(len(x), _tie_group_sizes(x))


def _variance(n: int, ties: list[int]) -> float:
    correction = sum(t * (t - 1) * (2 * t + 5) for t in ties)
    return (n * (n - 1) * (2 * n + 5) - correction) / 18.0


def _phi(z: float) -> float:
    # standard normal CDF; erfc keeps full precision in the far tails
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _sf(z: float) -> float:
    # upper-tail probability 1 - phi(z), without the cancellation
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@lru_cache(maxsize=None)
def _inversion_counts(n: int) -> tuple[int, ...]:
    # entry k: number of orderings of n distinct values with k discordant
    # pairs; inserting the m-th value adds between 0 and m-1 of them
    row = [1]
    for m in range(2, n + 1):
        new = [0] * (len(row) + m - 1)
        for k, c in enumerate(row):
            for j in range(m):
                new[k + j] += c
        row = new
    return tuple(row)


def exact_s_distribution(n: int) -> dict[int, int]:
    """Exact null distribution of S for n distinct values.

    Maps each attainable S to the number of orderings (out of n!) that
    produce it, via S = n(n-1)/2 - 2 * (discordant pair count).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m = n * (n - 1) // 2
    return {m - 2 * k: c for k, c in enumerate(_inversion_counts(n))}


def _exact_pvalues(s: int, n: int) -> tuple[float, float, float]:
    dist = exact_s_distribution(n)
    total = math.factorial(n)
    p_up = sum(c for v, c in dist.items() if v >= s) / total
    p_down = sum(c for v, c in dist.items() if v <= s) / total
    p_two = min(1.0, 2.0 * sum(c for v, c in dist.items() if v >= abs(s)) / total)
    return p_two, p_up, p_down


def _tau_b(n: int, s: int, ties: list[int]) -> float:
    n0 = n * (n - 1) // 2
    nt = sum(t * (t - 1) // 2 for t in ties)
    if nt == n0:
        raise AnalysisError("tau undefined: all values tied")
    return s / math.sqrt(float(n0) * float(n0 - nt))


def kendall_tau_b(series) -> float:
    """Kendall tau-b of the values against their positions.

    Positions are never tied, so only value ties enter the correction:
    tau = S / sqrt(n0 * (n0 - nt)) with n0 = n(n-1)/2.
    """
    x = _validate(series)
    return _tau_b(len(x), mk_s(x), _tie_group_sizes(x))


def _median(values) -> float:
    """The median of nonempty ``values`` by the rule of ``statistics.median``, so with its
    bits: the middle value once sorted, or (a + b) / 2 of the two middle values, which
    overflows to inf where a + b does."""
    data = sorted(values)
    half = len(data) // 2
    if len(data) % 2:
        return data[half]
    return (data[half - 1] + data[half]) / 2


def sen_slope(series) -> float:
    """Median of all pairwise slopes (x_j - x_i) / (j - i), i < j."""
    x = _validate(series)
    n = len(x)
    return _median([(x[j] - x[i]) / (j - i) for i in range(n - 1) for j in range(i + 1, n)])


def mk_test(series, alpha: float = DEFAULT_ALPHA) -> TrendResult:
    """Mann-Kendall test of the no-monotonic-trend null.

    The decision rejects in favor of an upward (downward) trend when the
    matching one-sided p-value is at most alpha. A series in which every
    value is tied carries no ordering information: it comes back with
    p = 1, z = 0, and the null not rejected.
    """
    x = _validate(series)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    n = len(x)
    s = mk_s(x)
    ties = _tie_group_sizes(x)  # counted once, for the variance, the p-value path and tau
    var_s = _variance(n, ties)

    if var_s == 0.0:
        return TrendResult(
            s=s, var_s=0.0, z=0.0, tau=0.0,
            p_two_sided=1.0, p_upward=1.0, p_downward=1.0,
            method="normal", alpha=alpha, decision=NO_TREND,
        )

    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0

    if n <= EXACT_MAX_N and not ties:
        method = "exact"
        p_two, p_up, p_down = _exact_pvalues(s, n)
    else:
        method = "normal"
        p_up = _sf(z)
        p_down = _phi(z)
        p_two = 2.0 * _sf(abs(z))

    if p_up <= alpha and p_up <= p_down:
        decision = UPWARD
    elif p_down <= alpha:
        decision = DOWNWARD
    else:
        decision = NO_TREND

    return TrendResult(
        s=s, var_s=var_s, z=z, tau=_tau_b(n, s, ties),
        p_two_sided=p_two, p_upward=p_up, p_downward=p_down,
        method=method, alpha=alpha, decision=decision,
    )
