"""Unit, oracle, and property tests for the Mann-Kendall machinery."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from evometrics import (
    AnalysisError,
    exact_s_distribution,
    kendall_tau_b,
    mk_s,
    mk_test,
    mk_variance,
    sen_slope,
)


def s_statistic(values):
    """Plain double-loop oracle for S, independent of the library path."""
    x = [float(v) for v in values]
    total = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            total += int(x[j] > x[i]) - int(x[j] < x[i])
    return total


class TestS:
    def test_hand_values(self):
        assert mk_s([1, 2, 3, 4, 5]) == 10
        assert mk_s([5, 4, 3, 2, 1]) == -10
        assert mk_s([1, 3, 2, 4]) == 4

    def test_strictly_monotone_hits_the_bound(self):
        for n in (2, 5, 20):
            assert mk_s(np.arange(float(n))) == n * (n - 1) // 2

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            x = rng.integers(-5, 6, n).astype(float)
            assert mk_s(x) == s_statistic(list(x))

    def test_bounds_on_random_series(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 80))
            x = rng.normal(0.0, 1.0, n)
            assert abs(mk_s(x)) <= n * (n - 1) // 2

    def test_too_short(self):
        with pytest.raises(AnalysisError, match="series too short"):
            mk_s([1.0])

    def test_matches_loop_oracle_on_long_tied_series(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 17, 250, 2000):
            x = rng.integers(0, max(2, n // 20), n).astype(float)  # many ties
            assert mk_s(x) == s_statistic(x)

    def test_long_descending_series_hits_the_bound(self):
        n = 50_000
        assert mk_s(range(n, 0, -1)) == -n * (n - 1) // 2

    def test_memory_stays_far_below_an_n_by_n_array(self):
        # one 3000 x 3000 float64 array is 72 MB
        x = np.random.default_rng(3).integers(0, 50, 3000).astype(float)
        tracemalloc.start()
        try:
            mk_s(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 72e6 / 10


class TestVariance:
    def test_closed_forms(self):
        assert mk_variance([1, 3, 2, 4]) == pytest.approx(26 / 3, abs=1e-12)
        assert mk_variance([1, 1, 2, 3]) == pytest.approx(23 / 3, abs=1e-12)
        assert mk_variance([4, 4, 4, 4]) == 0.0

    def test_no_ties_formula(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 11, 30):
            x = rng.permutation(np.arange(float(n)))
            assert mk_variance(x) == pytest.approx(n * (n - 1) * (2 * n + 5) / 18, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            x = rng.integers(0, 5, n).astype(float)
            assert mk_variance(x) >= 0.0


class TestExactDistribution:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_full_enumeration(self, n):
        counted = {}
        for perm in itertools.permutations(range(n)):
            s = s_statistic(perm)
            counted[s] = counted.get(s, 0) + 1
        assert exact_s_distribution(n) == counted

    def test_n_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            exact_s_distribution(0)

    def test_total_mass_and_symmetry(self):
        for n in range(2, 11):
            dist = exact_s_distribution(n)
            assert sum(dist.values()) == math.factorial(n)
            assert all(dist[s] == dist[-s] for s in dist)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_exact_pvalues_match_enumeration(self, n):
        rng = np.random.default_rng(n)
        values = rng.permutation(np.arange(1.0, n + 1.0))
        result = mk_test(values, alpha=0.05)
        assert result.method == "exact"
        total = math.factorial(n)
        all_s = [s_statistic(perm) for perm in itertools.permutations(values)]
        assert result.p_upward == sum(1 for s in all_s if s >= result.s) / total
        assert result.p_downward == sum(1 for s in all_s if s <= result.s) / total
        expected_two = min(1.0, 2.0 * sum(1 for s in all_s if s >= abs(result.s)) / total)
        assert result.p_two_sided == expected_two

    def test_exact_two_sided_for_1324_is_one_third(self):
        result = mk_test([1, 3, 2, 4], alpha=0.05)
        assert result.s == 4
        assert result.method == "exact"
        assert result.p_two_sided == 1 / 3


class TestMkTest:
    def test_monotone_12_points_rejects_at_001(self):
        result = mk_test(np.arange(1.0, 13.0), alpha=0.01)
        assert result.method == "normal"  # n > 10 leaves the exact range
        assert result.s == 66
        assert result.var_s == pytest.approx(212.66666666666666, abs=1e-9)
        assert result.z == pytest.approx(4.4572156286, abs=1e-9)
        assert result.p_upward < 1e-5
        assert result.decision == "upward"

    def test_monotone_decreasing_rejects_downward(self):
        result = mk_test(np.arange(12.0, 0.0, -1.0), alpha=0.01)
        assert result.decision == "downward"
        assert result.p_downward < 1e-5

    def test_constant_series_not_rejected(self):
        result = mk_test([3.0] * 8, alpha=0.01)
        assert result.decision == "no_trend_not_rejected"
        assert result.method == "normal"
        assert result.p_two_sided == 1.0
        assert result.p_upward == 1.0
        assert result.p_downward == 1.0
        assert result.z == 0.0
        assert result.var_s == 0.0
        assert result.tau == 0.0

    def test_method_flag(self):
        assert mk_test(np.arange(10.0), alpha=0.05).method == "exact"
        assert mk_test(np.arange(11.0), alpha=0.05).method == "normal"
        assert mk_test([1, 2, 2, 4, 5], alpha=0.05).method == "normal"  # ties break exact

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            mk_test([1, 2, 3, 4], alpha=1.5)
        with pytest.raises(ValueError):
            mk_test([1, 2, 3, 4], alpha=0.0)

    def test_too_short(self):
        with pytest.raises(AnalysisError, match="series too short"):
            mk_test([1.0], alpha=0.05)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value(self, bad):
        with pytest.raises(AnalysisError, match="^non-finite value$"):
            mk_test([1.0, bad])

    def test_decision_matches_pvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            drift = float(rng.uniform(-0.5, 0.5))
            x = rng.normal(0.0, 1.0, n) + drift * np.arange(n)
            alpha = float(rng.choice([0.01, 0.05, 0.1]))
            r = mk_test(x, alpha=alpha)
            if r.decision == "upward":
                assert r.p_upward <= alpha
            elif r.decision == "downward":
                assert r.p_downward <= alpha
            else:
                assert r.p_upward > alpha and r.p_downward > alpha
            if r.s != 0:
                assert math.copysign(1, r.tau) == math.copysign(1, r.s)


class TestSymmetries:
    def test_reversal_antisymmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            x = rng.normal(0.0, 1.0, n)
            if rng.integers(0, 2):
                x = np.round(x, 1)  # induce ties
            fwd = mk_test(x, alpha=0.05)
            rev = mk_test(x[::-1], alpha=0.05)
            assert mk_s(x[::-1]) == -mk_s(x)
            assert rev.p_two_sided == fwd.p_two_sided
            assert rev.p_upward == fwd.p_downward
            assert rev.p_downward == fwd.p_upward

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(4, 25))
            x = rng.integers(-10, 11, n).astype(float)
            for transform in (lambda v: v**3, np.exp):
                y = transform(x)
                assert mk_s(y) == mk_s(x)
                a = mk_test(x, alpha=0.05)
                b = mk_test(y, alpha=0.05)
                assert b.method == a.method
                assert b.tau == a.tau
                assert b.p_two_sided == a.p_two_sided
                assert b.p_upward == a.p_upward
                assert b.p_downward == a.p_downward

    def test_exact_and_normal_agree_at_the_crossover(self):
        rng = np.random.default_rng(8)
        for n in (8, 9, 10):
            for _ in range(60):
                x = rng.permutation(np.arange(float(n)))
                r = mk_test(x, alpha=0.05)
                assert r.method == "exact"
                p_normal = math.erfc(abs(r.z) / math.sqrt(2.0))  # 2 * upper tail
                assert abs(r.p_two_sided - p_normal) < 0.03


class TestTau:
    def test_hand_values(self):
        assert kendall_tau_b([1, 2, 3, 4]) == 1.0
        assert kendall_tau_b([4, 3, 2, 1]) == -1.0
        assert kendall_tau_b([1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-15)

    def test_tie_correction(self):
        # S = 5, n0 = 6, one tied pair: 5 / sqrt(6 * 5)
        assert kendall_tau_b([1, 2, 2, 3]) == pytest.approx(5 / math.sqrt(30), abs=1e-12)

    def test_all_tied_is_undefined(self):
        with pytest.raises(AnalysisError, match="tau undefined"):
            kendall_tau_b([2.0, 2.0, 2.0])

    def test_range_and_extremes(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 10, n).astype(float)
            if np.unique(x).size == 1:
                continue
            assert -1.0 <= kendall_tau_b(x) <= 1.0
        assert kendall_tau_b(np.arange(25.0)) == 1.0
        assert kendall_tau_b(np.arange(25.0)[::-1]) == -1.0

    def test_mk_test_reuses_its_s_for_tau(self, monkeypatch):
        from evometrics import trend

        calls = []
        real_mk_s = trend.mk_s
        monkeypatch.setattr(trend, "mk_s", lambda x: calls.append(len(x)) or real_mk_s(x))
        series = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0]
        result = trend.mk_test(series)
        assert calls == [12]
        assert result.tau == kendall_tau_b(series)


class TestSenSlope:
    def test_hand_values(self):
        assert sen_slope([0, 1, 2, 3]) == 1.0
        assert sen_slope([3, 2, 1, 0]) == -1.0
        assert sen_slope([1, 3, 2, 4]) == 0.75

    def test_linear_series_recovers_the_slope(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            slope = float(rng.uniform(-5.0, 5.0))
            intercept = float(rng.uniform(-10.0, 10.0))
            n = int(rng.integers(2, 30))
            x = intercept + slope * np.arange(n)
            assert sen_slope(x) == pytest.approx(slope, abs=1e-9)

    def test_matches_pairwise_list_oracle_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            x = rng.integers(-5, 6, n).astype(float)
            slopes = [(x[j] - x[i]) / (j - i) for i in range(n) for j in range(i + 1, n)]
            assert sen_slope(x) == float(np.median(slopes))

    def test_too_short(self):
        with pytest.raises(AnalysisError, match="series too short"):
            sen_slope([4.0])
