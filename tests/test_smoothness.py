import math

import numpy as np
import numpy.testing as npt
import pytest

from pls_lab.errors import DivergenceError
from pls_lab.rng import SeededRng
from pls_lab.linalg import BLOCK
from pls_lab.smoothness import SmoothnessEstimator
from pls_lab.stability import sgd_rate_window

from _oracles import ReferenceEstimator, base_rate_admissible

TINY = 1e-300  # effectively-zero denominator guard for exact-ratio checks


class TestPredict:
    def test_bootstrap_reading(self):
        est = SmoothnessEstimator(0.01, 0.01, eta0=0.5)
        assert est.predict(np.array([1.0, 2.0]), np.array([0.1, 0.2])) == (0.5, 0.0)
        assert est.t == 1

    def test_norm_ratio(self):
        est = SmoothnessEstimator(TINY, 0.01, eta0=1.0)
        est.predict(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        _, l_hat = est.predict(np.array([1.0, 0.0]), np.array([3.0, 4.0]))
        npt.assert_allclose(l_hat, 5.0, rtol=1e-15)

    def test_stationary_point_reads_zero(self):
        est = SmoothnessEstimator(0.01, 0.01, eta0=0.001)
        x, g = np.array([1.0, -1.0]), np.array([0.5, 0.5])
        est.predict(x, g)
        eta, l_hat = est.predict(x.copy(), g.copy())
        assert l_hat == 0.0
        npt.assert_allclose(eta, 0.001 / 0.01)  # the eta0/eps2 cap

    def test_scalar_quadratic_two_steps(self):
        # curvature 2: gradients 2x; move 1 -> 0.9
        est = SmoothnessEstimator(1e-8, 0.01, eta0=1.0)
        est.predict(np.array([1.0]), np.array([2.0]))
        _, l_hat = est.predict(np.array([0.9]), np.array([1.8]))
        npt.assert_allclose(l_hat, 2.0, atol=1e-6)

    def test_exact_ratio_against_curvature(self):
        # after the bootstrap, |l_hat - c*r/(r + eps1)| stays at float noise
        c, eps1 = 3.0, 1e-8
        est = SmoothnessEstimator(eps1, 0.01, eta0=1.0)
        rng = SeededRng(5)
        x_prev = rng.uniform_array(4, -1, 1)
        est.predict(x_prev, c * x_prev)
        x = rng.uniform_array(4, -1, 1)
        _, l_hat = est.predict(x, c * x)
        dist = float(np.linalg.norm(x - x_prev))
        npt.assert_allclose(l_hat, c * dist / (dist + eps1), atol=1e-12)

    def test_scale_covariance(self):
        def run(scale):
            est = SmoothnessEstimator(TINY, 0.01, eta0=1.0)
            est.predict(scale * np.array([0.0, 1.0]), scale * np.array([1.0, 1.0]))
            return est.predict(
                scale * np.array([0.5, 0.2]), scale * np.array([-1.0, 2.0])
            )[1]

        npt.assert_allclose(run(1.0), run(7.25), rtol=1e-12)

    def test_state_update_and_counter(self):
        est = SmoothnessEstimator(0.01, 0.01, eta0=1.0)
        for t in range(1, 5):
            est.predict(np.full(2, float(t)), np.full(2, -float(t)))
            assert est.t == t
        npt.assert_array_equal(est.prev_x, np.full(2, 4.0))

    def test_dimension_mismatch_rejected(self):
        est = SmoothnessEstimator(0.01, 0.01, eta0=1.0)
        est.predict(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            est.predict(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            est.predict(np.zeros(3), np.zeros(2))

    def test_non_finite_gradient_rejected(self):
        est = SmoothnessEstimator(0.01, 0.01, eta0=1.0)
        with pytest.raises(DivergenceError):
            est.predict(np.zeros(2), np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("n", [1, 7, 3 * BLOCK + 17])
    @pytest.mark.parametrize("decay", ["constant", "sqrt_t"])
    def test_readings_match_the_reference_over_50_calls(self, n, decay):
        est = SmoothnessEstimator(0.01, 0.01, eta0=0.002, decay=decay)
        ref = ReferenceEstimator(0.01, 0.01, eta0=0.002, decay=decay)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        for _ in range(50):
            scale = 10.0 ** rng.integers(-6, 3)
            g = scale * rng.standard_normal(n + 2)[1:-1]  # a view, as in a run
            assert est.predict(x, g) == ref.predict(x, g)
            assert est.t == ref.t
            assert est.prev_x.tobytes() == ref.prev_x.tobytes()
            assert est.prev_g.tobytes() == ref.prev_g.tobytes()
            x = x - scale * 1e-3 * rng.standard_normal(n)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_after_the_first_call(self, bad):
        for est in (SmoothnessEstimator(0.01, 0.01, 1.0), ReferenceEstimator(0.01, 0.01, 1.0)):
            est.predict(np.zeros(3), np.ones(3))
            with pytest.raises(DivergenceError,
                               match="^non-finite gradient in smoothness update$"):
                est.predict(np.ones(3), np.array([1.0, bad, 1.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("which", [0, 1])  # the iterate's or the gradient's difference
    def test_overflowing_difference(self, which):
        big = np.array([0.0, 1.7e308])
        for est in (SmoothnessEstimator(0.01, 0.01, 1.0), ReferenceEstimator(0.01, 0.01, 1.0)):
            est.predict(big, big)
            pair = [big, big]
            pair[which] = -big  # finite entries whose difference is -inf
            with pytest.raises(DivergenceError, match="^non-finite entry in vector$"):
                est.predict(*pair)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_of_finite_squares(self):
        # every entry of the difference is finite, its sum of squares is not:
        # the prediction is l_hat = inf with a zero step, as in the reference
        for est in (SmoothnessEstimator(0.01, 0.01, 1.0), ReferenceEstimator(0.01, 0.01, 1.0)):
            est.predict(np.zeros(2), np.zeros(2))
            assert est.predict(np.ones(2), np.full(2, 1e200)) == (0.0, math.inf)

    def test_guards_must_be_positive(self):
        with pytest.raises(ValueError):
            SmoothnessEstimator(0.0, 0.01, eta0=1.0)
        with pytest.raises(ValueError):
            SmoothnessEstimator(0.01, 0.0, eta0=1.0)


def rate_at(l_hat, eta0, eps2, decay="constant", t=2):
    """The step size of an estimator whose t-th prediction reads l_hat: the
    iterate moves by 1 each call and the gradient by l_hat on the last."""
    est = SmoothnessEstimator(TINY, eps2, eta0, decay)
    for k in range(t - 1):
        est.predict(np.array([float(k)]), np.array([0.0]))
    eta, got = est.predict(np.array([float(t - 1)]), np.array([l_hat]))
    npt.assert_allclose(got, l_hat, rtol=1e-15)
    return eta


class TestAdaptiveRate:
    """The rule eta0 / (l_hat + eps2), damped by 1/sqrt(t) under sqrt_t."""

    def test_zero_smoothness_hits_cap(self):
        npt.assert_allclose(rate_at(0.0, 0.001, 0.01), 0.1)

    def test_plain_ratio(self):
        npt.assert_allclose(rate_at(1.99, 0.001, 0.01), 0.0005)

    def test_sqrt_decay(self):
        npt.assert_allclose(rate_at(0.9, 0.01, 0.1, decay="sqrt_t", t=4), 0.005)

    def test_monotone_nonincreasing_in_smoothness(self):
        rates = [rate_at(l, 0.01, 0.05) for l in np.linspace(0.0, 100.0, 200)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_never_exceeds_cap(self):
        rng = SeededRng(6)
        for _ in range(1000):
            l_hat = rng.uniform(0.0, 50.0)
            eta0 = rng.uniform(1e-4, 1.0)
            eps2 = rng.uniform(1e-3, 1.0)
            assert rate_at(l_hat, eta0, eps2) <= eta0 / eps2 + 1e-15

    def test_negative_smoothness_rejected(self):
        # a ratio of norms: differences of either sign predict l_hat >= 0,
        # and a negative guard, the other way to a denominator below l_hat,
        # is refused
        est = SmoothnessEstimator(TINY, 0.01, eta0=1.0)
        est.predict(np.array([1.0, -1.0]), np.array([2.0, 3.0]))
        assert est.predict(np.array([-1.0, 1.0]), np.array([-2.0, -3.0]))[1] >= 0.0
        with pytest.raises(ValueError):
            SmoothnessEstimator(0.01, -0.01, eta0=1.0)

    def test_unknown_decay_rejected(self):
        with pytest.raises(ValueError):
            SmoothnessEstimator(0.01, 0.01, eta0=1.0, decay="linear")


class TestBaseRateWindow:
    def test_midpoint_inside(self):
        assert base_rate_admissible(0.75, 0.5)

    def test_below_window(self):
        assert not base_rate_admissible(0.25, 0.5)

    def test_upper_boundary_inclusive(self):
        assert base_rate_admissible(1.0, 0.9)

    def test_lower_boundary_inclusive(self):
        assert base_rate_admissible(0.5, 0.5)

    def test_rho_range_checked(self):
        with pytest.raises(ValueError):
            base_rate_admissible(0.5, 1.0)

    def test_is_the_sgd_window_at_unit_smoothness(self):
        for rho in (0.1, 0.5, 0.9):
            lo, hi = sgd_rate_window(1.0, rho)
            for eta0 in np.linspace(0.0, 1.2, 49):
                assert base_rate_admissible(eta0, rho) == (lo <= eta0 <= hi)
