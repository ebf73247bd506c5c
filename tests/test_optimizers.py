import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from pls_lab.linalg import BLOCK
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

from _oracles import accsgd_step, amsgrad_step


def isotropic_quadratic(curvature=1.0, dim=3, n=10, seed=2):
    return QuadraticProblem.random(dim, n, curvature, 1.0, SeededRng(seed))


class TestSgdStep:
    def test_scalar(self):
        x = np.array([1.0])
        assert sgd_step(x, np.array([2.0]), 0.25) is None
        npt.assert_array_equal(x, [0.5])

    def test_zero_gradient_fixed_point(self):
        x = np.array([1.0, -2.0])
        sgd_step(x, np.zeros(2), 0.1)
        npt.assert_array_equal(x, [1.0, -2.0])

    def test_one_step_exact_on_matched_curvature(self):
        # curvature 2 with step 1/2 lands on the minimizer in one step
        x = np.array([1.0])
        sgd_step(x, np.array([2.0]), 0.5)
        npt.assert_array_equal(x, [0.0])


class TestAmsgrad:
    def test_first_step_hand_trace(self):
        st = AmsgradState(1, beta1=0.9, beta2=0.999)
        x = np.array([0.0])
        assert st.step(x, np.array([1.0]), 0.1) is None
        npt.assert_allclose(st.m, [0.1], rtol=1e-15)
        npt.assert_allclose(st.v, [0.001], rtol=1e-15)
        npt.assert_allclose(st.vhat, [0.001], rtol=1e-15)
        npt.assert_allclose(x, [-0.1 * 0.1 / math.sqrt(0.001)], rtol=1e-12)

    def test_zero_gradients_never_move(self):
        st = AmsgradState(2)
        x = np.array([1.0, -1.0])
        for _ in range(5):
            st.step(x, np.zeros(2), 0.1)
        npt.assert_array_equal(x, [1.0, -1.0])

    def test_running_max_never_decreases(self):
        st = AmsgradState(1)
        x = np.zeros(1)
        seen = []
        for g in (1.0, 0.0, 0.0, 0.0, 0.5):
            st.step(x, np.array([g]), 0.01)
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
            st.step(x, np.zeros(2), 0.01)
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
        got = np.array([x])
        assert st.step(got, np.array([g]), eta) is None
        npt.assert_allclose(got, [x_next], rtol=1e-12)
        npt.assert_allclose(st.m, [m_next], rtol=1e-12)

    def test_degenerate_alpha_zero_collapses_momentum_line(self):
        # with alpha = 0 the buffer is exactly x - a*eta*g each step
        a, b = 10.0, 0.3
        st = AccsgdState(np.array([2.0]), alpha=0.0, a=a, b=b)
        x, g, eta = np.array([1.0]), np.array([0.5]), 0.1
        got = x.copy()
        st.step(got, g, eta)
        m_expect = x - a * eta * g
        npt.assert_allclose(st.m, m_expect, rtol=1e-15)
        npt.assert_allclose(got, (1 - b) * (x - eta * g) + b * m_expect, rtol=1e-15)


# sizes on both sides of each block edge, and the 784x500 layer's group
BLOCK_SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17, 392_500)


def _gradients(n, steps, seed):
    """Gradients with exact zeros (the vhat floor), squares that overflow
    and a spread of scales, as views into a larger buffer."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        buf = rng.standard_normal(n + 3) * 10.0 ** rng.integers(-8, 3, n + 3)
        buf[rng.integers(0, n + 3, max(1, n // 50))] = 0.0
        buf[rng.integers(0, n + 3, max(1, n // 500))] = 1e200
        yield buf[2:n + 2]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestBlockedUpdatesMatchWholeArrays:
    """The blocked updates give the bits of the whole-array expressions."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("schedule", ["constant", "over_t"])
    def test_amsgrad(self, n, schedule):
        st = AmsgradState(n, beta1=0.9, beta2=0.999, beta1_schedule=schedule)
        m, v, vhat = np.zeros(n), np.zeros(n), np.zeros(n)
        x = np.random.default_rng(n).standard_normal(n + 1)[1:]
        ref = x.copy()
        for t, g in enumerate(_gradients(n, 4, seed=n + 1), start=1):
            eta = 0.01 / t
            st.step(x, g, eta)
            amsgrad_step(m, v, vhat, ref, g, eta, 0.9 / t if schedule == "over_t" else 0.9, 0.999)
            assert x.tobytes() == ref.tobytes()
            assert st.m.tobytes() == m.tobytes()
            assert st.v.tobytes() == v.tobytes()
            assert st.vhat.tobytes() == vhat.tobytes()

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("m0", ["x0", "zero"])
    def test_accsgd(self, n, m0):
        x = np.random.default_rng(n).standard_normal(n + 1)[1:]
        st = AccsgdState.from_params(1000.0, 10.0, x, m0=m0)
        m, ref = st.m.copy(), x.copy()
        for t, g in enumerate(_gradients(n, 4, seed=n + 2), start=1):
            eta = 0.003 * t
            st.step(x, g, eta)
            accsgd_step(m, ref, g, eta, st.alpha, st.a, st.b)
            assert x.tobytes() == ref.tobytes()
            assert st.m.tobytes() == m.tobytes()


def test_steady_state_step_allocates_less_than_one_group():
    # after the first step a rate reading and an update reuse their buffers
    n = 392_500
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n)
    src = PlsRate([(0, n)], 0.001, 0.01, 0.01)
    updates = [AmsgradState(n).step, AccsgdState.from_params(1000.0, 10.0, x).step]
    for update in updates:
        g = rng.standard_normal(n)
        (eta, _), = src.rates(1, x, g)
        update(x, g, eta)
    g = rng.standard_normal(n)
    tracemalloc.start()
    try:
        for t, update in enumerate(updates, start=2):
            (eta, _), = src.rates(t, x, g)
            update(x, g, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


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
        assert [est.eta0 for est in src.estimators] == [-0.001]

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
        # smoothness prediction must reproduce the fixed-rate run bit for bit
        prob = isotropic_quadratic(curvature=2.0)
        l0, eta0, eps2 = 3.0, 0.002, 0.01
        eta_fixed = eta0 / (l0 + eps2)
        pair = (eta_fixed, l0)
        kw = dict(steps=40, seed=4, x0=np.ones(prob.d), batch_size=4)
        for algo in ("sgd", "amsgrad", "accsgd"):
            pinned = PlsRate(prob.layer_partition, eta0, 0.01, eps2)
            for est in pinned.estimators:
                est.predict = lambda x, g: pair
            ra = run_optimizer(prob, algo, pinned, **kw)
            rb = run_optimizer(prob, algo, FixedRate(eta_fixed), **kw)
            npt.assert_array_equal(ra.x_final, rb.x_final)
            assert [r.train_loss for r in ra.records] == [
                r.train_loss for r in rb.records
            ]

    def test_group_rates_apply_to_their_own_slices(self):
        # a diagonal quadratic separates by coordinate, so each group of a
        # two-group run must follow the one-rate run at that group's rate
        prob = QuadraticProblem.random(4, 10, [1.0, 2.0, 0.5, 3.0], 1.0, SeededRng(5))
        e1, e2 = 0.1, 0.3
        kw = dict(steps=30, seed=6, x0=np.ones(prob.d), batch_size=3)
        for algo in ("sgd", "amsgrad", "accsgd"):
            grouped = PlsRate([(0, 2), (2, 4)], 0.01, 0.01, 0.01)
            for est, eta in zip(grouped.estimators, (e1, e2)):
                est.predict = lambda x, g, r=(eta, 1.0): r
            rg = run_optimizer(prob, algo, grouped, **kw)
            r1 = run_optimizer(prob, algo, FixedRate(e1), **kw)
            r2 = run_optimizer(prob, algo, FixedRate(e2), **kw)
            assert not (rg.diverged or r1.diverged or r2.diverged)
            assert rg.records[-1].etas == (e1, e2)
            npt.assert_array_equal(rg.x_final[:2], r1.x_final[:2])
            npt.assert_array_equal(rg.x_final[2:], r2.x_final[2:])

    def test_non_finite_iterate_ends_run_at_that_step(self):
        prob = isotropic_quadratic()
        for algo in ("sgd", "amsgrad", "accsgd"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = run_optimizer(prob, algo, FixedRate(1e308), steps=10, seed=1,
                                    x0=np.full(prob.d, 10.0), batch_size=4)
            assert res.diverged_at == 1
            assert len(res.records) == 2
            last = res.records[-1]
            assert last.iter == 1 and last.diverged
            assert last.etas == (1e308,)
            assert last.test_loss is None
            assert not np.all(np.isfinite(res.x_final))

    def test_adaptive_contraction_on_isotropic_quadratic(self):
        prob = isotropic_quadratic(curvature=1.0, dim=2, n=8)
        # full batch: a run of n steps ends at iterate n of any longer run
        xs = np.array([
            run_optimizer(prob, "sgd", PlsRate(prob.layer_partition, 0.5, 1e-8, 1e-8), steps=n,
                          seed=1, x0=np.array([1.5, -0.7]), batch_size=prob.n).x_final
            for n in range(2, 8)
        ])
        dist = np.linalg.norm(xs - prob.x_star, axis=1)
        factors = dist[1:] / dist[:-1]
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
