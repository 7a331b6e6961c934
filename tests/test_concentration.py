import math

import numpy as np
import pytest

from assortbench.concentration import adaptive_ci, fixed_ci, validate_uniform_concentration


class TestFixedCi:
    def test_delta_one_degenerates(self):
        assert fixed_ci(5, 10, 1.0) == (0.5, 0.5)

    def test_unit_half_width_clamps(self):
        assert fixed_ci(0, 1, math.exp(-2.0)) == (0.0, 1.0)

    def test_frozen_value(self):
        lower, upper = fixed_ci(50, 100, 1e-6)
        half = math.sqrt(math.log(1e6) / 200.0)
        assert half == pytest.approx(0.26282608848784655, abs=1e-15)
        assert upper - 50 / 100 == pytest.approx(half, abs=1e-15)
        assert 50 / 100 - lower == pytest.approx(half, abs=1e-15)

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            fixed_ci(0, 0, 0.5)

    def test_sum_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fixed_ci(11, 10, 0.5)
        with pytest.raises(ValueError):
            fixed_ci(-1, 10, 0.5)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            fixed_ci(1, 2, 0.0)
        with pytest.raises(ValueError):
            fixed_ci(1, 2, 1.5)


class TestAdaptiveCi:
    def test_floored_log(self):
        assert adaptive_ci(1, 1, 8.0) == (1.0, 1.0)

    def test_clamped_first_sample(self):
        half = math.sqrt(2.0 * math.log(8000.0))
        assert half == pytest.approx(4.239621874804868, abs=1e-12)
        assert adaptive_ci(0, 1, 1e-3, 2.0) == (0.0, 1.0)

    def test_frozen_value(self):
        lower, upper = adaptive_ci(248, 496, 1e-3, 2.0)
        half = math.sqrt(2.0 * math.log(8000.0 / 496.0) / 496.0)
        assert half == pytest.approx(0.1058875867320608, abs=1e-15)
        assert upper - 248 / 496 == pytest.approx(half, abs=1e-15)
        assert 248 / 496 - lower == pytest.approx(half, abs=1e-15)

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            adaptive_ci(0, 0, 0.5)

    @pytest.mark.parametrize(
        "delta, scale",
        [(0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0), (1e-3, 0.0), (1e-3, math.nan), (1e-3, math.inf)],
    )
    def test_bad_delta_or_scale_rejected(self, delta, scale):
        # NaN compares False both ways, so it must not slip past the checks
        # into a zero-width or [0, 1] interval.
        with pytest.raises(ValueError):
            adaptive_ci(1.0, 2, delta, scale)

    def test_widths_comparable_to_fixed(self):
        # delta = 1/T^2 fixed vs delta = 1/T adaptive (scale 2): around a
        # mean of 1/2 the half-widths stay within a factor of 4 of each other.
        for horizon in (10, 1000, 10**6):
            for t in (1, 7, horizon // 2, horizon):
                wf = fixed_ci(t / 2, t, 1.0 / horizon**2)[1] - 0.5
                wa = adaptive_ci(t / 2, t, 1.0 / horizon, 2.0)[1] - 0.5
                assert 0.25 <= wa / wf <= 4.0

    def test_width_decreasing_in_count(self):
        # The total is 0, so the mean is 0 and the upper end is the width.
        widths = [adaptive_ci(0, t, 1e-3, 2.0)[1] for t in range(1, 2000)]
        clamped = [min(w, 1.0) for w in widths]
        assert all(a >= b - 1e-15 for a, b in zip(clamped, clamped[1:]))


class TestUniformConcentration:
    def test_degenerate_sampler_full_coverage(self):
        rng = np.random.default_rng(0)
        cov = validate_uniform_concentration(1.0, 50, 0.01, 1000, rng)
        assert cov == 1.0

    def test_bernoulli_half(self):
        rng = np.random.default_rng(1)
        cov = validate_uniform_concentration(0.5, 100, 1e-4, 10_000, rng)
        assert cov >= 0.99

    def test_bernoulli_skewed(self):
        rng = np.random.default_rng(2)
        cov = validate_uniform_concentration(0.1, 1000, 1e-5, 10_000, rng)
        assert cov >= 0.99

    @pytest.mark.parametrize(
        "p, depth, trials", [(1.5, 10, 10), (-0.1, 10, 10), (0.5, 0, 10), (0.5, 10, 0)]
    )
    def test_bad_arguments_rejected(self, p, depth, trials):
        with pytest.raises(ValueError):
            validate_uniform_concentration(p, depth, 0.01, trials, np.random.default_rng(3))
