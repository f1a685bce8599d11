"""Unit, oracle, and property tests for the inequality indices."""

import math
import sys
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from evometrics import (
    AnalysisError,
    atkinson,
    gini,
    inequality_report,
    lorenz_points,
    pietra,
    theil,
)

INDICES = {
    "gini": gini,
    "pietra": pietra,
    "theil": theil,
    "atkinson": lambda x: atkinson(x, 0.5),
}


def gini_pairwise(values):
    """O(n^2) oracle: mean absolute difference over all ordered pairs, over 2*mu."""
    x = np.asarray(values, dtype=float)
    n = x.size
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n * x.mean()))


def random_distribution(rng, max_n=200):
    n = int(rng.integers(2, max_n + 1))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        x = rng.lognormal(0.0, float(rng.uniform(0.2, 1.5)), n)
    elif kind == 1:
        x = rng.uniform(0.0, 100.0, n)
    else:
        x = rng.integers(0, 50, n).astype(float)  # ties and zeros
    if x.sum() == 0:
        x[0] = 1.0
    return x


class TestHandValues:
    def test_gini(self):
        assert gini([2, 2, 2, 2]) == 0.0
        assert gini([0, 0, 0, 1]) == 0.75
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-15)

    def test_pietra(self):
        assert pietra([7, 7, 7]) == 0.0
        assert pietra([1, 2, 3, 4]) == pytest.approx(0.2, abs=1e-15)
        assert pietra([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_theil(self):
        assert theil([5, 5, 5, 5, 5]) == 0.0
        assert theil([0, 0, 0, 1]) == pytest.approx(math.log(4), abs=1e-12)
        # frozen from the direct evaluation of (1/4) sum (x/mu) ln(x/mu)
        assert theil([1, 2, 3, 4]) == pytest.approx(0.10644013528622318, abs=1e-12)

    def test_atkinson(self):
        assert atkinson([9, 9, 9], 0.5) == 0.0
        # frozen from 1 - (mean of sqrt(x/mu))^2
        assert atkinson([1, 2, 3, 4], 0.5) == pytest.approx(0.055585857369545355, abs=1e-12)
        assert atkinson([0, 1, 1, 1], 1.0) == 1.0
        assert atkinson([0, 1, 1, 1], 2.0) == 1.0

    def test_atkinson_default_epsilon_is_half(self):
        assert atkinson([1, 2, 3, 4]) == atkinson([1, 2, 3, 4], 0.5)


class TestErrors:
    @pytest.mark.parametrize("name", list(INDICES) + ["lorenz"])
    def test_empty_input(self, name):
        func = lorenz_points if name == "lorenz" else INDICES[name]
        with pytest.raises(AnalysisError, match="empty input"):
            func([])

    @pytest.mark.parametrize("name", list(INDICES) + ["lorenz"])
    def test_negative_value(self, name):
        func = lorenz_points if name == "lorenz" else INDICES[name]
        with pytest.raises(AnalysisError, match="negative value"):
            func([1.0, -0.5, 2.0])

    @pytest.mark.parametrize("name", list(INDICES) + ["lorenz"])
    def test_degenerate_mean(self, name):
        func = lorenz_points if name == "lorenz" else INDICES[name]
        with pytest.raises(AnalysisError, match="degenerate mean"):
            func([0.0, 0.0, 0.0])

    def test_non_finite_value(self):
        with pytest.raises(AnalysisError, match="non-finite"):
            gini([1.0, float("nan")])

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, math.inf, math.nan])
    def test_invalid_aversion(self, epsilon):
        with pytest.raises(AnalysisError, match="invalid aversion parameter"):
            atkinson([1, 2, 3], epsilon)


class TestUnderflowingRatios:
    """A positive value whose ratio to the mean underflows to 0 (here 5e-324 / 5e299)."""

    def test_theil_leaves_the_underflowed_term_out_like_a_zero(self):
        # the term is (x/mu) ln(x/mu) < 4e-321 in size; the exact index is ln 2 to ~600 digits
        assert theil([5e-324, 1e300]) == math.log(2.0)
        assert theil([0.0, 5e-324, 1e300]) == theil([0.0, 0.0, 1e300])

    @pytest.mark.parametrize("epsilon", [1e-9, 0.5, 0.99, 1.0, 2.0, 3.5])
    def test_atkinson_takes_the_log_of_an_underflowing_ratio(self, epsilon):
        # its log ratio is ln x - ln mu; dropping its term as 0 would move the index from the
        # 7th digit on (0.63027036235 for [5e-324] + [1e300] * 99 at 0.99, not 0.63027014398)
        for values in ([5e-324, 1e300], [5e-324] + [1e300] * 99, [1e-300, 1e300]):
            assert close_to_oracle(atkinson(values, epsilon), decimal_atkinson(values, epsilon))
        report = inequality_report([5e-324, 1e300], epsilon)
        assert report.atkinson == atkinson([5e-324, 1e300], epsilon)

    def test_a_zero_still_forces_atkinson_to_one_from_aversion_one(self):
        assert atkinson([0.0, 5e-324, 1e300], 1.0) == 1.0
        assert atkinson([0.0, 5e-324, 1e300], 2.0) == 1.0
        # below aversion 1 the zero adds a term of 0; the index is 2/3 to about 300 digits
        assert abs(atkinson([0.0, 5e-324, 1e300], 0.5) - 2 / 3) <= math.ulp(2 / 3)


class TestConventions:
    def test_single_element_distribution_scores_zero(self):
        for func in INDICES.values():
            assert func([7.5]) == 0.0
        assert atkinson([7.5], 2.0) == 0.0

    def test_theil_keeps_zero_entries(self):
        # 0 * ln(0) = 0: zeros contribute nothing but still count in n
        assert theil([0, 1, 1]) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_atkinson_below_one_aversion_tolerates_zeros(self):
        value = atkinson([0, 1, 1, 1], 0.5)
        assert 0.0 < value < 1.0


class TestInvariances:
    def test_scale_invariance(self):
        rng = np.random.default_rng(101)
        for _ in range(250):
            x = random_distribution(rng)
            c = float(rng.uniform(0.01, 1000.0))
            for name, func in INDICES.items():
                assert func(c * x) == pytest.approx(func(x), abs=1e-12), name

    def test_replication_invariance(self):
        rng = np.random.default_rng(102)
        for _ in range(120):
            x = random_distribution(rng, max_n=60)
            for k in (2, 3):
                tiled = np.tile(x, k)
                for name, func in INDICES.items():
                    assert func(tiled) == pytest.approx(func(x), abs=1e-12), name

    def test_permutation_invariance(self):
        rng = np.random.default_rng(103)
        for _ in range(150):
            x = random_distribution(rng)
            shuffled = rng.permutation(x)
            for name, func in INDICES.items():
                assert func(shuffled) == pytest.approx(func(x), abs=1e-12), name


class TestPigouDalton:
    def test_transfer_toward_the_poorer_reduces_inequality(self):
        rng = np.random.default_rng(104)
        done = 0
        while done < 200:
            x = random_distribution(rng)
            i, j = (int(v) for v in rng.integers(0, x.size, 2))
            if x[i] <= x[j] + 0.05 * x.mean():
                continue  # need a clear donor/receiver gap
            delta = 0.4 * (x[i] - x[j])
            y = x.copy()
            y[i] -= delta
            y[j] += delta
            assert gini(y) < gini(x)
            assert theil(y) < theil(x)
            assert atkinson(y, 0.5) < atkinson(x, 0.5)
            assert pietra(y) <= pietra(x) + 1e-12
            mu = x.mean()
            if x[j] < mu < x[i]:
                assert pietra(y) < pietra(x)
            done += 1


class TestBounds:
    def test_ranges_on_random_inputs(self):
        rng = np.random.default_rng(105)
        for _ in range(300):
            x = random_distribution(rng)
            n = x.size
            top = (n - 1) / n
            assert -1e-12 <= gini(x) <= top + 1e-12
            assert -1e-12 <= pietra(x) <= top + 1e-12
            assert -1e-12 <= theil(x) <= math.log(n) + 1e-12
            for epsilon in (0.5, 1.0, 2.0):
                assert -1e-12 <= atkinson(x, epsilon) <= 1.0 + 1e-12

    def test_positive_for_spread_distributions(self):
        rng = np.random.default_rng(106)
        for _ in range(100):
            x = random_distribution(rng)
            if x.max() <= x.min() + 0.01 * x.mean():
                continue
            for name, func in INDICES.items():
                assert func(x) > 0.0, name

    def test_maximal_concentration_hits_the_upper_bounds(self):
        for n in (2, 3, 10, 50):
            x = np.zeros(n)
            x[-1] = 5.0
            assert gini(x) == pytest.approx((n - 1) / n, abs=1e-12)
            assert pietra(x) == pytest.approx((n - 1) / n, abs=1e-12)
            assert theil(x) == pytest.approx(math.log(n), abs=1e-12)


class TestGiniOracle:
    def test_sorted_form_matches_pairwise_definition(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            n = int(rng.integers(2, 1001))
            x = rng.lognormal(0.0, 1.0, n)
            assert gini(x) == pytest.approx(gini_pairwise(x), abs=1e-12)


class TestLorenz:
    def test_hand_values(self):
        assert lorenz_points([1, 1]) == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
        assert lorenz_points([0, 1]) == [(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)]
        assert lorenz_points([1, 3]) == [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]

    def test_shape(self):
        rng = np.random.default_rng(108)
        for _ in range(100):
            x = random_distribution(rng)
            pts = lorenz_points(x)
            assert len(pts) == x.size + 1
            assert pts[0] == (0.0, 0.0)
            assert pts[-1] == (1.0, 1.0)
            ys = [y for _, y in pts]
            assert all(b >= a for a, b in zip(ys, ys[1:]))
            assert all(y <= fx + 1e-12 for fx, y in pts)

    def test_area_identity_with_gini(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            x = random_distribution(rng)
            pts = lorenz_points(x)
            area = sum(
                (y0 + y1) / 2.0 * (x1 - x0)
                for (x0, y0), (x1, y1) in zip(pts, pts[1:])
            )
            assert gini(x) == pytest.approx(1.0 - 2.0 * area, abs=1e-9)


class TestReport:
    def test_collects_all_four_indices(self):
        rep = inequality_report([1, 2, 3, 4], epsilon=0.5)
        assert rep.gini == gini([1, 2, 3, 4])
        assert rep.pietra == pietra([1, 2, 3, 4])
        assert rep.theil == theil([1, 2, 3, 4])
        assert rep.atkinson == atkinson([1, 2, 3, 4], 0.5)
        assert rep.epsilon == 0.5
        assert rep.n == 4

    def test_fields_within_ranges(self):
        rng = np.random.default_rng(110)
        for _ in range(50):
            x = random_distribution(rng)
            rep = inequality_report(x, epsilon=1.0)
            assert rep.n == x.size
            assert 0.0 <= rep.gini < 1.0
            assert 0.0 <= rep.pietra < 1.0
            assert rep.theil >= 0.0
            assert 0.0 <= rep.atkinson <= 1.0


def ulps_from(value, exact):
    """Distance of a float from an exact rational or decimal, in units of the exact value's last
    place."""
    return float(abs(Fraction(value) - Fraction(exact))) / math.ulp(float(exact))


def decimal_atkinson(values, epsilon):
    """The Atkinson index to 60 significant digits (over 40 at epsilon = 1 +- 2**-52)."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = [Decimal(float(v)) for v in values]
        mu = sum(x) / len(x)
        if epsilon == 1:  # the geometric mean; a zero's log is -Infinity, so the index is 1
            return 1 - (sum((v / mu).ln() for v in x) / len(x)).exp()
        if epsilon > 1 and 0 in x:  # a mean of negative order over a zero is 0
            return Decimal(1)
        m = sum((v / mu) ** (1 - Decimal(epsilon)) for v in x) / len(x)
        return 1 - m ** (1 / (1 - Decimal(epsilon)))


def exact_gini_and_pietra(values):
    x = sorted(Fraction(float(v)) for v in values)
    n, total = len(x), sum(x)
    mu = total / n
    gini_ = sum((2 * i - n - 1) * v for i, v in enumerate(x, 1)) / (n * total)
    return gini_, sum(abs(v - mu) for v in x) / (2 * n * mu)


class TestCorrectlyRoundedSums:
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 110, 1000])
    @pytest.mark.parametrize("kind", ["integer", "uniform", "lognormal"])
    def test_gini_and_pietra_stay_within_a_few_ulp_of_exact(self, kind, n):
        rng = np.random.default_rng(2024 + n)
        for _ in range(20):
            if kind == "integer":
                x = rng.integers(0, 1000, n).astype(float)
                x[0] += 1.0  # a nonzero total
            elif kind == "uniform":
                x = rng.uniform(0.0, 100.0, n)
            else:
                x = rng.lognormal(0.0, 1.5, n)
            exact_gini, exact_pietra = exact_gini_and_pietra(x)
            if exact_gini:
                assert ulps_from(gini(x), exact_gini) <= 2.0
            if exact_pietra:
                assert ulps_from(pietra(x), exact_pietra) <= 4.0

    def test_same_bits_for_any_input_order(self):
        rng = np.random.default_rng(111)
        for _ in range(100):
            x = random_distribution(rng, max_n=400)
            shuffled = rng.permutation(x)
            for name, func in INDICES.items():
                assert func(list(shuffled)) == func(x), name
            assert inequality_report(shuffled, 2.0) == inequality_report(x, 2.0)

    def test_a_sum_past_the_float_range_is_refused(self):
        with pytest.raises(AnalysisError, match="sum beyond the float range"):
            gini([1e308, 1e308])

    # the sum fits, but n times it does not; the true values are 0.75 and 1/6
    @pytest.mark.parametrize("func", [gini, pietra])
    @pytest.mark.parametrize("x", [[0.0, 0.0, 0.0, 1e308], [1e308, 5e307]])
    def test_n_times_the_sum_past_the_float_range_is_refused(self, func, x):
        with pytest.raises(AnalysisError, match="n times the sum beyond the float range"):
            func(x)

    def test_theil_and_atkinson_take_n_times_a_sum_past_the_float_range(self):
        assert theil([0.0, 0.0, 0.0, 1e308]) == math.log(4.0)
        assert atkinson([0.0, 0.0, 0.0, 1e308]) == 0.75
        assert theil([1e308, 5e307]) == theil([2.0, 1.0])
        assert atkinson([1e308, 5e307]) == atkinson([2.0, 1.0])

    def test_atkinson_whose_power_would_pass_the_float_range_is_not_one(self):
        # (1e-10 / mu) ** (1 - 40) overflows, but the generalized mean of order -39 is not 0:
        # the index is 1 - 1.54e-10, not 1
        assert atkinson([1e-10, 1.0, 1.0], 40.0) == float(decimal_atkinson([1e-10, 1.0, 1.0], 40))

    # (x/mu) ** (1 - epsilon) overflows at these aversions (at 1000 none of [1, 3] does: 0.49965)
    @pytest.mark.parametrize("values, epsilon", [([1.0, 3.0], 1100), ([0.01, 1.0], 200)])
    def test_atkinson_at_an_aversion_whose_powers_overflow_lands_on_the_oracle(
        self, values, epsilon
    ):
        assert atkinson(values, epsilon) == float(decimal_atkinson(values, epsilon))


# The generator-expression kernels the map-based ones replaced, kept as the reference: every
# index, the Lorenz curve and the report must keep their bits and their refusals. The reference
# checks every value for a nan or an infinity before it sorts and sums, and shifts each Atkinson
# log ratio by its top, as the kernels once did.
def reference_validate(values):
    x = [float(v) for v in values]
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
    if total <= 0.0:
        raise AnalysisError("degenerate mean")
    return x, total


def reference_gini(x, total):
    n = len(x)
    if math.isinf(n * total):
        raise AnalysisError("n times the sum beyond the float range")
    return math.fsum((2 * i - n - 1) * v for i, v in enumerate(x, 1)) / (n * total)


def reference_pietra(x, total):
    n = len(x)
    if math.isinf(n * total):
        raise AnalysisError("n times the sum beyond the float range")
    mu = total / n
    return math.fsum(abs(v - mu) for v in x) / (2.0 * n * mu)


def reference_theil(x, total):
    n = len(x)
    mu = total / n
    return math.fsum(v / mu * math.log(v / mu) for v in x if v / mu > 0.0) / n


def reference_lorenz(x, total):
    cum = list(accumulate(x))
    return [(0.0, 0.0)] + [((k + 1) / len(x), c / cum[-1]) for k, c in enumerate(cum)]


def reference_atkinson(x, total, epsilon):
    if not 0.0 < epsilon < math.inf:
        raise AnalysisError("invalid aversion parameter")
    n = len(x)
    mu = total / n
    zeros = bisect_right(x, 0.0)
    r = [v / mu for v in x[zeros:]]
    lost = bisect_right(r, 0.0)
    logs = [math.log(v) - math.log(mu) for v in x[zeros:zeros + lost]]
    logs += [math.log(v) for v in r[lost:]]
    if epsilon >= 1.0 and zeros:
        return 1.0
    d = 1.0 - epsilon
    if d == 0.0:
        log_mean = math.fsum(logs) / n
    else:
        top = logs[0] if d < 0.0 else 0.0
        terms = (math.expm1((v - top) * d) for v in logs)
        log_mean = top + math.log1p((math.fsum(terms) - zeros) / n) / d
    return max(0.0, -math.expm1(log_mean))


def reference_report(values, epsilon):
    """A report's fields, or its first refusal in field order."""
    x, total = reference_validate(values)
    return (reference_gini(x, total), reference_pietra(x, total), reference_theil(x, total),
            reference_atkinson(x, total, epsilon), epsilon, len(x))


def as_bits(value):
    """``float.hex`` of a float, and of each float in a tuple or list (both become lists)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return list(map(as_bits, value))
    return value


def outcome(func, *args):
    """The bits of the result, or the exact type and text of the refusal."""
    try:
        return as_bits(func(*args))
    except (AnalysisError, ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def kernel_inputs(seed, cases):
    rng = np.random.default_rng(seed)
    yield from ([7.5], [0.0], [0.0, 0.0, 3.0], [2.0, 2.0, 2.0], [5e-324], [5e-324, 5e-324, 1e-300],
                [0.0, 5e-324], [1e308], [1e308, 5e307], [0.0, 0.0, 0.0, 1e308], [1e308, 1e308],
                [1e-10, 1.0, 1.0], [1e-300, 1e300], [-0.0, 1.0], [])
    # a sum that overflows is refused before the values are checked one by one, and the
    # refusal must still name a nan or an infinity first, then a negative value
    yield from ([1e308, 1e308, math.inf], [1e308, 1e308, -math.inf], [1e308, 1e308, math.nan],
                [1e308, 1e308, -1.0], [1e308, 1e308, -1.0, math.inf], [math.inf, -math.inf],
                [math.inf, 1e308, 1e308], [-1.0, math.nan], [math.nan], [-math.inf, 1.0],
                [-1.0, 2.0], [-1e308, -1e308, 1.0])
    for _ in range(cases):
        n = int(rng.choice([1, 2, 3, 7, 50, 400]))
        kind = int(rng.integers(0, 8))
        if kind == 0:  # ties and zeros
            x = rng.integers(0, 4, n).astype(float)
        elif kind == 1:  # subnormals among normal values
            x = rng.choice([0.0, 5e-324, 1e-310, 2.5e-308, 1.0], n)
        elif kind == 2:  # near the top of the float range
            x = 10.0 ** rng.uniform(300.0, 308.0, n) / n
        elif kind == 3:  # a zero smallest value
            x = np.concatenate([[0.0], rng.lognormal(0.0, 2.0, n - 1)])
        elif kind == 4:  # tiny values, where high aversion overflows a term
            x = 10.0 ** rng.uniform(-300.0, 2.0, n)
        elif kind == 5:
            x = rng.lognormal(0.0, 3.0, n)
        else:  # a nan, an infinity or a negative value beside values whose sum may overflow
            top = 308.0 if kind == 6 else 2.0
            specials = rng.choice([math.nan, math.inf, -math.inf, -1.0], int(rng.integers(1, 3)))
            x = np.concatenate([10.0 ** rng.uniform(top - 2.0, top, n), specials])
        yield rng.permutation(x).tolist()


def close_to_oracle(value, exact):
    # 1 - M/mu cancels where the index is small (about epsilon times a log variance at a
    # small aversion), so the bound has an absolute part
    return math.isclose(value, float(exact), rel_tol=1e-12, abs_tol=2e-15)


def as_scored(x):
    """``x``, or where its mean is subnormal ``x`` times 2**600, as the indices score it.

    The product is exact and every index is scale-free, so the reference kernels, which
    divide by the float mean, score the scaled slice without the mean's rounding.
    """
    try:
        total = math.fsum(x)
        subnormal = total > 0.0 and total / len(x) < sys.float_info.min
    except (ArithmeticError, ValueError):  # empty, or a sum the reference refuses
        return x
    return [v * 2.0**600 for v in x] if subnormal else x


class TestKernelBits:
    @pytest.mark.parametrize("seed", range(4))
    def test_indices_and_report_match_the_reference_kernels(self, seed):
        pairs = [(gini, reference_gini), (pietra, reference_pietra), (theil, reference_theil),
                 (lorenz_points, reference_lorenz)]
        for x in kernel_inputs(seed, 400):
            scored = as_scored(x)
            for func, kernel in pairs:
                expected = outcome(lambda v: kernel(*reference_validate(v)), scored)
                assert outcome(func, x) == expected, (func.__name__, x)
            for epsilon in (0.1, 0.5, 1.0, 1 + 2**-52, 2.0, 1e308, 1e-9, 3.5, 0.0):
                expected = outcome(lambda v: reference_atkinson(*reference_validate(v), epsilon),
                                   scored)
                assert outcome(atkinson, x, epsilon) == expected, (epsilon, x)
                got = outcome(inequality_report, x, epsilon)
                assert got == outcome(reference_report, scored, epsilon), (epsilon, x)
                if expected.startswith("AnalysisError: "):
                    continue
                value = atkinson(x, epsilon)
                assert 0.0 <= value <= 1.0 and math.copysign(1.0, value) == 1.0, (epsilon, x)
                # the 60-digit oracle costs about 0.1 ms a power, so it checks the short
                # inputs; at aversion 1e308 its powers overflow the decimal range
                if epsilon < 1e308 and len(x) <= 7:
                    assert close_to_oracle(value, decimal_atkinson(x, epsilon)), (epsilon, x)


class TestAtkinsonOracle:
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.999, 1.0, 1.001, 2.0, 3.5, 10.0, 60.0])
    def test_relative_error_on_lognormal_inputs(self, epsilon):
        rng = np.random.default_rng(1600)
        for _ in range(40):
            x = rng.lognormal(0.0, float(rng.uniform(0.1, 2.0)), int(rng.integers(2, 31)))
            exact = decimal_atkinson(x, epsilon)
            assert abs(Decimal(atkinson(x, epsilon)) - exact) <= Decimal("1e-10") * exact

    # the form 1 - m ** (1 / (1 - epsilon)) magnifies the rounding of m by 1 / (1 - epsilon):
    # 0.0 at 1 +- 2**-52 and 0.216690 at 1 + 1e-12, where the index is 0.216698...
    @pytest.mark.parametrize("epsilon", [1 + 2**-52, 1 - 2**-52, 1 - 2**-53, 1 + 1e-12])
    def test_continuous_through_aversion_one(self, epsilon):
        x = [1, 3, 7, 2]
        assert ulps_from(atkinson(x, epsilon), decimal_atkinson(x, epsilon)) <= 2

    def test_the_largest_finite_aversion_gives_one_minus_min_over_mean(self):
        # (1 - epsilon) ln(x/mu) overflows at 1e308; shifted inside the product, no term does
        assert atkinson([1, 3], 1e308) == 0.5
        assert atkinson([1, 3, 7, 2], 1e308) == 1 - 1 / 3.25

    @pytest.mark.parametrize("epsilon", [1e-9, 0.5, 1.0, 2.0, 1e308])
    def test_an_equal_slice_scores_positive_zero(self, epsilon):
        for x in ([7.5], [2, 2, 2]):
            value = atkinson(x, epsilon)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_a_subnormal_mean_is_not_rounded(self):
        # the float mean 1e-323 / 3 would round from 3.3e-324 up to 5e-324, making every ratio
        # 1: pietra 1/6, theil 0 and atkinson 5/9 where they are 1/3, ln 1.5 and 1/3
        x = [0.0, 5e-324, 5e-324]
        report = inequality_report(x, 0.5)
        assert ulps_from(report.pietra, Fraction(1, 3)) <= 1
        assert ulps_from(report.theil, Decimal("1.5").ln()) <= 1
        assert ulps_from(report.atkinson, Fraction(1, 3)) <= 1
        assert report.gini == 1 / 3  # as before: gini divides by n times the sum, not by the mean

    @pytest.mark.parametrize("x", [[0.0, 5e-324], [0.0, 0.0, 5e-324]])
    def test_a_mean_that_rounds_to_zero_is_scored(self, x):
        # the sum is positive, so the slice is not degenerate, though its float mean is 0
        n = len(x)
        report = inequality_report(x, 0.5)
        assert report.gini == (n - 1) / n
        assert ulps_from(report.pietra, Fraction(n - 1, n)) <= 1
        assert ulps_from(report.theil, Decimal(n).ln()) <= 1
        assert ulps_from(report.atkinson, Fraction(n - 1, n)) <= 1
