import math

import numpy as np
import numpy.testing as npt
import pytest

from pls_lab.errors import DivergenceError
from pls_lab.optimizers import (
    AccsgdState,
    AmsgradState,
    FixedDecayRate,
    FixedRate,
    PlsRate,
    accsgd_coefficients,
    run_optimizer,
    sgd_step,
)
from pls_lab.problems import QuadraticProblem
from pls_lab.rng import SeededRng
from pls_lab.smoothness import SmoothnessReading, adaptive_rate


def isotropic_quadratic(curvature=1.0, dim=3, n=10, seed=2):
    return QuadraticProblem.random(dim, n, curvature, 1.0, SeededRng(seed))


class TestSgdStep:
    def test_scalar(self):
        npt.assert_array_equal(sgd_step(np.array([1.0]), np.array([2.0]), 0.25), [0.5])

    def test_zero_gradient_fixed_point(self):
        x = np.array([1.0, -2.0])
        npt.assert_array_equal(sgd_step(x, np.zeros(2), 0.1), x)

    def test_one_step_exact_on_matched_curvature(self):
        # curvature 2 with step 1/2 lands on the minimizer in one step
        npt.assert_array_equal(sgd_step(np.array([1.0]), np.array([2.0]), 0.5), [0.0])

    def test_per_coordinate_rates(self):
        x = np.array([1.0, 1.0])
        out = sgd_step(x, np.array([1.0, 1.0]), np.array([0.1, 0.5]))
        npt.assert_array_equal(out, [0.9, 0.5])

    def test_non_finite_raises(self):
        with pytest.raises(DivergenceError):
            sgd_step(np.array([1e308]), np.array([-1e308]), 10.0)


class TestAmsgrad:
    def test_first_step_hand_trace(self):
        st = AmsgradState(1, beta1=0.9, beta2=0.999)
        x = st.step(np.array([0.0]), np.array([1.0]), 0.1)
        npt.assert_allclose(st.m, [0.1], rtol=1e-15)
        npt.assert_allclose(st.v, [0.001], rtol=1e-15)
        npt.assert_allclose(st.vhat, [0.001], rtol=1e-15)
        npt.assert_allclose(x, [-0.1 * 0.1 / math.sqrt(0.001)], rtol=1e-12)

    def test_zero_gradients_never_move(self):
        st = AmsgradState(2)
        x = np.array([1.0, -1.0])
        for _ in range(5):
            x = st.step(x, np.zeros(2), 0.1)
        npt.assert_array_equal(x, [1.0, -1.0])

    def test_running_max_never_decreases(self):
        st = AmsgradState(1)
        x = np.zeros(1)
        seen = []
        for g in (1.0, 0.0, 0.0, 0.0, 0.5):
            x = st.step(x, np.array([g]), 0.01)
            seen.append(st.vhat[0])
        assert all(b >= a for a, b in zip(seen, seen[1:]))
        # after the g=1 step the max is pinned until something larger arrives
        assert seen[1] == seen[0] and seen[2] == seen[0]

    def test_beta1_over_t_schedule(self):
        st = AmsgradState(1, beta1=0.8, beta1_schedule="over_t")
        st.step(np.zeros(1), np.array([1.0]), 0.0)
        npt.assert_allclose(st.m, [(1 - 0.8) * 1.0])
        st.step(np.zeros(1), np.array([1.0]), 0.0)
        # second step uses beta1/2 = 0.4
        npt.assert_allclose(st.m, [0.4 * 0.2 + 0.6 * 1.0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AmsgradState(1, beta1=1.0)
        with pytest.raises(ValueError):
            AmsgradState(1, beta2=0.0)
        with pytest.raises(ValueError):
            AmsgradState(1, beta1_schedule="cosine")


class TestAccsgd:
    def test_coefficients(self):
        alpha, a, b = accsgd_coefficients(1000.0, 10.0)
        npt.assert_allclose(alpha, 0.9951, rtol=1e-12)
        npt.assert_allclose(a, 1428.5714285714287, rtol=1e-12)
        npt.assert_allclose(b, 0.0069513, atol=1e-7)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            accsgd_coefficients(0.5, 0.5)
        with pytest.raises(ValueError):
            accsgd_coefficients(4.0, 3.0)  # xi > sqrt(kappa)

    def test_zero_gradient_fixed_point_with_matched_buffer(self):
        x0 = np.array([1.0, -3.0])
        st = AccsgdState.from_params(1000.0, 10.0, x0, m0="x0")
        x = x0.copy()
        for _ in range(10):
            x = st.step(x, np.zeros(2), 0.01)
        npt.assert_allclose(x, x0, rtol=1e-13)
        npt.assert_allclose(st.m, x0, rtol=1e-13)

    def test_zero_buffer_mode(self):
        st = AccsgdState.from_params(1000.0, 10.0, np.array([5.0]), m0="zero")
        npt.assert_array_equal(st.m, [0.0])

    def test_hand_traced_step(self):
        kappa, xi, eta = 1000.0, 10.0, 0.5
        alpha, a, b = accsgd_coefficients(kappa, xi)
        x, m, g = 1.0, 1.0, 1.0  # curvature-1 quadratic centered at 0
        m_next = alpha * m + (1 - alpha) * (x - (kappa * eta / 0.7) * g)
        x_next = 0.7 / (0.7 + (1 - alpha)) * (x - eta * g) + (1 - alpha) / (
            0.7 + (1 - alpha)
        ) * m_next
        st = AccsgdState.from_params(kappa, xi, np.array([m]))
        got = st.step(np.array([x]), np.array([g]), eta)
        npt.assert_allclose(got, [x_next], rtol=1e-12)
        npt.assert_allclose(st.m, [m_next], rtol=1e-12)

    def test_degenerate_alpha_zero_collapses_momentum_line(self):
        # with alpha = 0 the buffer is exactly x - a*eta*g each step
        a, b = 10.0, 0.3
        st = AccsgdState(np.array([2.0]), alpha=0.0, a=a, b=b)
        x, g, eta = np.array([1.0]), np.array([0.5]), 0.1
        got = st.step(x, g, eta)
        m_expect = x - a * eta * g
        npt.assert_allclose(st.m, m_expect, rtol=1e-15)
        npt.assert_allclose(got, (1 - b) * (x - eta * g) + b * m_expect, rtol=1e-15)


class TestRateSources:
    def test_fixed_positive_only(self):
        with pytest.raises(ValueError):
            FixedRate(0.0)
        with pytest.raises(ValueError):
            FixedRate(float("nan"))
        with pytest.raises(ValueError):
            FixedDecayRate(-1.0)

    def test_fixed_decay_schedule(self):
        src = FixedDecayRate(0.4)
        assert src.rates(1, None, None)[0][0] == 0.4
        npt.assert_allclose(src.rates(4, None, None)[0][0], 0.2)

    def test_pls_negative_base_rate_gated(self):
        with pytest.raises(ValueError):
            PlsRate([(0, 2)], -0.001, 0.01, 0.01)
        src = PlsRate([(0, 2)], -0.001, 0.01, 0.01, allow_negative_eta0=True)
        assert src.eta0 == -0.001

    def test_pls_per_group_readings(self):
        src = PlsRate([(0, 2), (2, 4)], 0.01, 1e-8, 1e-8)
        x = np.array([0.0, 0.0, 0.0, 0.0])
        g = np.array([1.0, 0.0, 2.0, 0.0])
        first = src.rates(1, x, g)
        assert [eta for eta, _ in first] == [0.01, 0.01]  # bootstrap
        x2 = np.array([1.0, 0.0, 0.0, 1.0])
        g2 = np.array([3.0, 0.0, 2.0, 0.0])
        second = src.rates(2, x2, g2)
        npt.assert_allclose(second[0][1], 2.0, rtol=1e-7)  # |dg|=2 over |dx|=1
        npt.assert_allclose(second[1][1], 0.0, atol=1e-12)  # gradient unchanged


class TestRunOptimizer:
    def test_zero_steps_only_initial_record(self):
        prob = isotropic_quadratic()
        res = run_optimizer(
            prob, "sgd", FixedRate(0.1), steps=0, seed=1, x0=np.zeros(prob.d)
        )
        assert len(res.records) == 1
        assert res.records[0].iter == 0
        assert not res.diverged

    def test_deterministic_trajectories(self):
        prob = isotropic_quadratic()
        kw = dict(steps=50, seed=9, x0=np.ones(prob.d), batch_size=3)
        r1 = run_optimizer(prob, "amsgrad", FixedRate(0.05), **kw)
        r2 = run_optimizer(prob, "amsgrad", FixedRate(0.05), **kw)
        npt.assert_array_equal(r1.x_final, r2.x_final)
        assert [r.train_loss for r in r1.records] == [r.train_loss for r in r2.records]

    def test_full_batch_ignores_seed(self):
        prob = isotropic_quadratic()
        r1 = run_optimizer(prob, "sgd", FixedRate(0.1), steps=20, seed=1,
                           x0=np.ones(prob.d), batch_size=prob.n)
        r2 = run_optimizer(prob, "sgd", FixedRate(0.1), steps=20, seed=999,
                           x0=np.ones(prob.d), batch_size=prob.n)
        npt.assert_array_equal(r1.x_final, r2.x_final)

    def test_adaptive_with_pinned_smoothness_equals_fixed_rate(self):
        # the adaptive source is purely a step-size rule: pinning its
        # smoothness reading must reproduce the fixed-rate run bit for bit
        prob = isotropic_quadratic(curvature=2.0)
        l0, eta0, eps2 = 3.0, 0.002, 0.01
        eta_fixed = eta0 / (l0 + eps2)
        reading = SmoothnessReading(l0, adaptive_rate(l0, eta0, eps2))
        kw = dict(steps=40, seed=4, x0=np.ones(prob.d), batch_size=4)
        for algo in ("sgd", "amsgrad", "accsgd"):
            pinned = PlsRate(prob.layer_partition, eta0, 0.01, eps2)
            for est in pinned.estimators:
                est.predict = lambda x, g: reading
            ra = run_optimizer(prob, algo, pinned, **kw)
            rb = run_optimizer(prob, algo, FixedRate(eta_fixed), **kw)
            npt.assert_array_equal(ra.x_final, rb.x_final)
            assert [r.train_loss for r in ra.records] == [
                r.train_loss for r in rb.records
            ]

    def test_adaptive_contraction_on_isotropic_quadratic(self):
        prob = isotropic_quadratic(curvature=1.0, dim=2, n=8)
        src = PlsRate(prob.layer_partition, 0.5, 1e-8, 1e-8)
        res = run_optimizer(prob, "sgd", src, steps=25, seed=1,
                            x0=np.array([1.5, -0.7]), batch_size=prob.n,
                            keep_trajectory=True)
        xs = np.array(res.trajectory)
        dist = np.linalg.norm(xs - prob.x_star, axis=1)
        factors = dist[3:8] / dist[2:7]
        npt.assert_allclose(factors, 0.5, rtol=1e-5)

    def test_divergence_detected_and_flagged(self):
        prob = isotropic_quadratic(curvature=4.0)
        res = run_optimizer(prob, "sgd", FixedRate(1.0), steps=200, seed=3,
                            x0=np.ones(prob.d), batch_size=prob.n)
        assert res.diverged
        assert res.diverged_at is not None
        assert res.records[-1].diverged
        assert res.records[-1].iter == res.diverged_at
        assert len(res.records) == res.diverged_at + 1

    def test_records_log_rates_and_smoothness(self):
        prob = isotropic_quadratic()
        src = PlsRate(prob.layer_partition, 0.01, 0.01, 0.01)
        res = run_optimizer(prob, "sgd", src, steps=5, seed=2,
                            x0=np.ones(prob.d), batch_size=4)
        assert res.records[0].etas is None
        assert res.records[1].etas == (0.01,)  # bootstrap applies eta0
        for rec in res.records[2:]:
            assert rec.l_hats[0] >= 0.0
            assert rec.etas[0] <= 0.01 / 0.01

    def test_test_fn_cadence(self):
        prob = isotropic_quadratic()
        res = run_optimizer(prob, "sgd", FixedRate(0.05), steps=12, seed=2,
                            x0=np.ones(prob.d), batch_size=4,
                            test_fn=prob.full_value, test_every=5)
        present = [r.iter for r in res.records if r.test_loss is not None]
        assert present == [0, 5, 10]

    def test_invalid_arguments(self):
        prob = isotropic_quadratic()
        with pytest.raises(ValueError):
            run_optimizer(prob, "adam", FixedRate(0.1), steps=1, seed=1,
                          x0=np.zeros(prob.d))
        with pytest.raises(ValueError):
            run_optimizer(prob, "sgd", FixedRate(0.1), steps=-1, seed=1,
                          x0=np.zeros(prob.d))
        with pytest.raises(ValueError):
            run_optimizer(prob, "sgd", FixedRate(0.1), steps=1, seed=1,
                          x0=np.zeros(prob.d), batch_size=0)
