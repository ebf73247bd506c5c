import math

import numpy as np
import numpy.testing as npt
import pytest

from pls_lab.linalg import BLOCK
from pls_lab.optimizers import WHOLE, PlsRate
from pls_lab.rng import SeededRng
from pls_lab.stability import sgd_rate_window

from _oracles import GradientStub, ReferenceEstimator, base_rate_admissible, run_rows

TINY = 1e-300  # effectively-zero denominator guard for exact-ratio checks


def whole(eps1, eps2, eta0, decay="constant", cls=PlsRate):
    """A one-group rate over the whole vector."""
    return cls(WHOLE, eta0, eps1, eps2, decay)


def read(rate, t, x, g):
    """The (eta, l_hat) reading of a one-group rate at step t."""
    (pair,) = rate.rates(t, x, g)
    return pair


class TestPredict:
    def test_bootstrap_reading(self):
        rate = PlsRate([(0, 2), (2, 4)], 0.5, 0.01, 0.01)
        x, g = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.1, 0.2, 0.3, 0.4])
        assert rate.rates(1, x, g) == [(0.5, 0.0), (0.5, 0.0)]
        assert [h[0].tolist() for h in rate.history] == [[1.0, 2.0], [3.0, 4.0]]

    def test_norm_ratio(self):
        rate = whole(TINY, 0.01, eta0=1.0)
        read(rate, 1, np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        _, l_hat = read(rate, 2, np.array([1.0, 0.0]), np.array([3.0, 4.0]))
        npt.assert_allclose(l_hat, 5.0, rtol=1e-15)

    def test_stationary_point_reads_zero(self):
        rate = whole(0.01, 0.01, eta0=0.001)
        x, g = np.array([1.0, -1.0]), np.array([0.5, 0.5])
        read(rate, 1, x, g)
        eta, l_hat = read(rate, 2, x.copy(), g.copy())
        assert l_hat == 0.0
        npt.assert_allclose(eta, 0.001 / 0.01)  # the eta0/eps2 cap

    def test_scalar_quadratic_two_steps(self):
        # curvature 2: gradients 2x; move 1 -> 0.9
        rate = whole(1e-8, 0.01, eta0=1.0)
        read(rate, 1, np.array([1.0]), np.array([2.0]))
        _, l_hat = read(rate, 2, np.array([0.9]), np.array([1.8]))
        npt.assert_allclose(l_hat, 2.0, atol=1e-6)

    def test_exact_ratio_against_curvature(self):
        # after the bootstrap, |l_hat - c*r/(r + eps1)| stays at float noise
        c, eps1 = 3.0, 1e-8
        rate = whole(eps1, 0.01, eta0=1.0)
        rng = SeededRng(5)
        x_prev = rng.uniform_array(4, -1, 1)
        read(rate, 1, x_prev, c * x_prev)
        x = rng.uniform_array(4, -1, 1)
        _, l_hat = read(rate, 2, x, c * x)
        dist = float(np.linalg.norm(x - x_prev))
        npt.assert_allclose(l_hat, c * dist / (dist + eps1), atol=1e-12)

    def test_scale_covariance(self):
        def run(scale):
            rate = whole(TINY, 0.01, eta0=1.0)
            read(rate, 1, scale * np.array([0.0, 1.0]), scale * np.array([1.0, 1.0]))
            return read(rate, 2, scale * np.array([0.5, 0.2]), scale * np.array([-1.0, 2.0]))[1]

        npt.assert_allclose(run(1.0), run(7.25), rtol=1e-12)

    def test_state_update_and_counter(self):
        # the history holds the last call's arrays, and sqrt_t damps by
        # the step counter it is given, not by a count of its own calls
        rate = whole(TINY, 1.0, eta0=3.0, decay="sqrt_t")
        for t in range(1, 5):
            read(rate, t, np.full(2, float(t)), np.full(2, -float(t)))
        npt.assert_array_equal(rate.history[0][0], np.full(2, 4.0))
        npt.assert_array_equal(rate.history[0][1], np.full(2, -4.0))
        eta, l_hat = read(rate, 9, np.full(2, 5.0), np.full(2, -2.0))
        npt.assert_allclose((eta, l_hat), (1.0 / 3.0, 2.0))

    def test_dimension_mismatch_rejected(self):
        rate = whole(0.01, 0.01, eta0=1.0)
        read(rate, 1, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            read(rate, 2, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="^iterate and gradient must have the same shape$"):
            read(rate, 2, np.zeros(3), np.zeros(2))
        # a 1-entry slice would broadcast against the 3-entry history
        with pytest.raises(ValueError, match="^group 0 has 1 entries, its history 3$"):
            read(rate, 2, np.ones(1), np.ones(1))
        npt.assert_array_equal(rate.history[0][0], np.zeros(3))
        npt.assert_array_equal(rate.history[0][1], np.zeros(3))

    def test_non_finite_gradient_rejected(self):
        # by the run loop, which flags the row before the rate reads it
        rate = whole(0.01, 0.01, eta0=1.0)
        rows = run_rows(GradientStub([np.inf, 0.0]), "sgd", rate, steps=3, seed=1,
                        x0=np.zeros(2), batch_size=1)
        assert [(r.iter, r.diverged, r.etas) for r in rows] == [(0, False, None), (1, True, None)]
        assert rate.history == [None]

    @pytest.mark.parametrize("n", [1, 7, 3 * BLOCK + 17])
    @pytest.mark.parametrize("decay", ["constant", "sqrt_t"])
    def test_readings_match_the_reference_over_50_calls(self, n, decay):
        groups = [(0, n // 2 + 1), (n // 2 + 1, n + 2)]
        rate = PlsRate(groups, 0.002, 0.01, 0.01, decay=decay)
        ref = ReferenceEstimator(groups, 0.002, 0.01, 0.01, decay=decay)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n + 2)
        for t in range(1, 51):
            scale = 10.0 ** rng.integers(-6, 3)
            g = scale * rng.standard_normal(n + 4)[1:-1]  # a view, as in a run
            assert rate.rates(t, x, g) == ref.rates(t, x, g)
            for h, h_ref in zip(rate.history, ref.history):
                assert [a.tobytes() for a in h] == [a.tobytes() for a in h_ref]
            x = x - scale * 1e-3 * rng.standard_normal(n + 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_after_the_first_call(self, bad):
        # the run loop flags the row; the rate keeps the first call's history
        for rate in (whole(0.01, 0.01, 1.0), whole(0.01, 0.01, 1.0, cls=ReferenceEstimator)):
            problem = GradientStub([1.0, 1.0, 1.0], [1.0, bad, 1.0])
            rows = run_rows(problem, "sgd", rate, steps=3, seed=1, x0=np.zeros(3), batch_size=1)
            assert [(r.iter, r.diverged, r.etas) for r in rows] == [
                (0, False, None), (1, False, (1.0,)), (2, True, None)]
            npt.assert_array_equal(rate.history[0][0], np.zeros(3))
            npt.assert_array_equal(rate.history[0][1], np.ones(3))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("which", [0, 1])  # the iterate's or the gradient's difference
    def test_overflowing_difference(self, which):
        # an infinite norm in plain IEEE arithmetic, as in the reference: an
        # infinite displacement predicts l_hat = 0 (the capped rate), an
        # infinite gradient difference l_hat = inf (a zero step)
        def big():  # a fresh array per call: the rate keeps the gradient it is handed
            return np.array([0.0, 1.7e308])

        for rate in (whole(0.01, 0.01, 1.0), whole(0.01, 0.01, 1.0, cls=ReferenceEstimator)):
            read(rate, 1, big(), big())
            pair = [big(), big()]
            pair[which] = -pair[which]  # finite entries whose difference is -inf
            assert read(rate, 2, *pair) == [(100.0, 0.0), (0.0, math.inf)][which]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_of_finite_squares(self):
        # every entry of the difference is finite, its sum of squares is not:
        # the prediction is l_hat = inf with a zero step, as in the reference
        for rate in (whole(0.01, 0.01, 1.0), whole(0.01, 0.01, 1.0, cls=ReferenceEstimator)):
            read(rate, 1, np.zeros(2), np.zeros(2))
            assert read(rate, 2, np.ones(2), np.full(2, 1e200)) == (0.0, math.inf)

    def test_guards_must_be_positive(self):
        with pytest.raises(ValueError):
            whole(0.0, 0.01, eta0=1.0)
        with pytest.raises(ValueError):
            whole(0.01, 0.0, eta0=1.0)


def rate_at(l_hat, eta0, eps2, decay="constant", t=2):
    """The step size of a rate whose reading at step t is l_hat: the
    iterate moves by 1 each step and the gradient by l_hat on the last."""
    rate = whole(TINY, eps2, eta0, decay)
    for k in range(1, t):
        read(rate, k, np.array([float(k - 1)]), np.array([0.0]))
    eta, got = read(rate, t, np.array([float(t - 1)]), np.array([l_hat]))
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
        rate = whole(TINY, 0.01, eta0=1.0)
        read(rate, 1, np.array([1.0, -1.0]), np.array([2.0, 3.0]))
        assert read(rate, 2, np.array([-1.0, 1.0]), np.array([-2.0, -3.0]))[1] >= 0.0
        with pytest.raises(ValueError):
            whole(0.01, -0.01, eta0=1.0)

    def test_unknown_decay_rejected(self):
        with pytest.raises(ValueError):
            whole(0.01, 0.01, eta0=1.0, decay="linear")


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
