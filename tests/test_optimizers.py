import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from pls_lab.linalg import BLOCK
from pls_lab.optimizers import (
    AccsgdState,
    AmsgradState,
    FixedRate,
    PlsRate,
    accsgd_coefficients,
    run_optimizer,
    sgd_step,
)
from pls_lab.problems import MlpLsrProblem, QuadraticProblem, glorot_init
from pls_lab.rng import SeededRng

from _oracles import accsgd_step, amsgrad_step, run_rows, run_with_iterates
from conftest import traced


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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AmsgradState(1, beta1=1.0)
        with pytest.raises(ValueError):
            AmsgradState(1, beta2=0.0)


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
        st = AccsgdState(x0, *accsgd_coefficients(1000.0, 10.0))
        x = x0.copy()
        for _ in range(10):
            st.step(x, np.zeros(2), 0.01)
        npt.assert_allclose(x, x0, rtol=1e-13)
        npt.assert_allclose(st.m, x0, rtol=1e-13)

    def test_hand_traced_step(self):
        kappa, xi, eta = 1000.0, 10.0, 0.5
        alpha, a, b = accsgd_coefficients(kappa, xi)
        x, m, g = 1.0, 1.0, 1.0  # curvature-1 quadratic centered at 0
        m_next = alpha * m + (1 - alpha) * (x - (kappa * eta / 0.7) * g)
        x_next = 0.7 / (0.7 + (1 - alpha)) * (x - eta * g) + (1 - alpha) / (
            0.7 + (1 - alpha)
        ) * m_next
        st = AccsgdState(np.array([m]), alpha, a, b)
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
    def test_amsgrad(self, n):
        st = AmsgradState(n, beta1=0.9, beta2=0.999)
        m, v, vhat = np.zeros(n), np.zeros(n), np.zeros(n)
        x = np.random.default_rng(n).standard_normal(n + 1)[1:]
        ref = x.copy()
        for t, g in enumerate(_gradients(n, 4, seed=n + 1), start=1):
            eta = 0.01 / t
            st.step(x, g, eta)
            amsgrad_step(m, v, vhat, ref, g, eta, 0.9, 0.999)
            assert x.tobytes() == ref.tobytes()
            assert st.m.tobytes() == m.tobytes()
            assert st.v.tobytes() == v.tobytes()
            assert st.vhat.tobytes() == vhat.tobytes()

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_accsgd(self, n):
        x = np.random.default_rng(n).standard_normal(n + 1)[1:]
        st = AccsgdState(x, *accsgd_coefficients(1000.0, 10.0))
        m, ref = st.m.copy(), x.copy()
        for t, g in enumerate(_gradients(n, 4, seed=n + 2), start=1):
            eta = 0.003 * t
            st.step(x, g, eta)
            accsgd_step(m, ref, g, eta, st.alpha, st.a, st.b)
            assert x.tobytes() == ref.tobytes()
            assert st.m.tobytes() == m.tobytes()

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_sgd(self, n):
        x = np.random.default_rng(n).standard_normal(n + 1)[1:]
        ref = x.copy()
        for t, g in enumerate(_gradients(n, 4, seed=n + 3), start=1):
            eta = 0.01 / t
            sgd_step(x, g, eta)
            ref -= eta * g
            assert x.tobytes() == ref.tobytes()


def test_steady_state_step_allocates_less_than_one_group():
    # after the first step a rate reading and an update reuse their buffers
    n = 392_500
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n)
    src = PlsRate([(0, n)], 0.001, 0.01, 0.01)
    updates = [sgd_step, AmsgradState(n).step,
               AccsgdState(x, *accsgd_coefficients(1000.0, 10.0)).step]
    for update in updates:
        g = rng.standard_normal(n)
        (eta, _), = src.rates(1, x, g)
        update(x, g, eta)
    grads = [rng.standard_normal(n) for _ in updates]  # the rate keeps each one
    with traced() as mem:
        for t, (update, g) in enumerate(zip(updates, grads), start=2):
            (eta, _), = src.rates(t, x, g)
            update(x, g, eta)
    assert mem.peak < x.nbytes


def test_pls_history_keeps_the_gradient_it_was_handed():
    # the bootstrap copies each group's iterate but not its gradient; a
    # later call writes the difference into the previous gradient, keeps
    # the new one and allocates less than one block
    n = 392_500
    rng = np.random.default_rng(4)
    x = rng.standard_normal(n)
    grads = [rng.standard_normal(n) for _ in range(4)]
    src = PlsRate([(0, n // 3), (n // 3, n)], 0.001, 0.01, 0.01)
    with traced() as bootstrap:
        src.rates(1, x, grads[0])
    for t in (2, 3, 4):
        prev = grads[t - 2].copy()
        x -= 1e-3 * grads[t - 2]
        with traced() as mem:
            src.rates(t, x, grads[t - 1])
        assert mem.peak < BLOCK * 8
        assert np.array_equal(grads[t - 2], prev - grads[t - 1])
        assert all(np.shares_memory(h[1], grads[t - 1]) for h in src.history)
    assert x.nbytes <= bootstrap.held < x.nbytes + BLOCK * 8


class TestRateSources:
    def test_fixed_positive_only(self):
        with pytest.raises(ValueError):
            FixedRate(0.0)
        with pytest.raises(ValueError):
            FixedRate(float("nan"))
        with pytest.raises(ValueError):
            FixedRate(-1.0, "sqrt_t")
        with pytest.raises(ValueError):
            FixedRate(0.1, "linear")

    def test_fixed_decay_schedule(self):
        src = FixedRate(0.4, "sqrt_t")
        assert src.rates(1, None, None)[0][0] == 0.4
        npt.assert_allclose(src.rates(4, None, None)[0][0], 0.2)

    def test_pls_negative_base_rate_gated(self):
        with pytest.raises(ValueError):
            PlsRate([(0, 2)], -0.001, 0.01, 0.01)

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
        rows = run_rows(prob, "sgd", FixedRate(0.1), steps=0, seed=1, x0=np.zeros(prob.d))
        assert len(rows) == 1
        assert rows[0].iter == 0
        assert not rows[0].diverged

    def test_deterministic_trajectories(self):
        prob = isotropic_quadratic()
        kw = dict(steps=50, seed=9, batch_size=3)
        x1, x2 = np.ones(prob.d), np.ones(prob.d)
        r1 = run_rows(prob, "amsgrad", FixedRate(0.05), x0=x1, **kw)
        r2 = run_rows(prob, "amsgrad", FixedRate(0.05), x0=x2, **kw)
        npt.assert_array_equal(x1, x2)
        assert [r.train_loss for r in r1] == [r.train_loss for r in r2]

    def test_full_batch_ignores_seed(self):
        prob = isotropic_quadratic()
        x1, x2 = np.ones(prob.d), np.ones(prob.d)
        run_optimizer(prob, "sgd", FixedRate(0.1), steps=20, seed=1, x0=x1, batch_size=prob.n)
        run_optimizer(prob, "sgd", FixedRate(0.1), steps=20, seed=999, x0=x2, batch_size=prob.n)
        npt.assert_array_equal(x1, x2)

    def test_adaptive_with_pinned_smoothness_equals_fixed_rate(self):
        # the adaptive source is purely a step-size rule: pinning its
        # smoothness prediction must reproduce the fixed-rate run bit for bit
        prob = isotropic_quadratic(curvature=2.0)
        l0, eta0, eps2 = 3.0, 0.002, 0.01
        eta_fixed = eta0 / (l0 + eps2)
        pair = (eta_fixed, l0)
        kw = dict(steps=40, seed=4, batch_size=4)
        for algo in ("sgd", "amsgrad", "accsgd"):
            pinned = PlsRate(prob.layer_partition, eta0, 0.01, eps2)
            pinned.rates = lambda t, x, g: [pair]  # one group
            xa, xb = np.ones(prob.d), np.ones(prob.d)
            ra = run_rows(prob, algo, pinned, x0=xa, **kw)
            rb = run_rows(prob, algo, FixedRate(eta_fixed), x0=xb, **kw)
            npt.assert_array_equal(xa, xb)
            assert [r.train_loss for r in ra] == [r.train_loss for r in rb]

    def test_group_rates_apply_to_their_own_slices(self):
        # a diagonal quadratic separates by coordinate, so each group of a
        # two-group run must follow the one-rate run at that group's rate
        prob = QuadraticProblem.random(4, 10, [1.0, 2.0, 0.5, 3.0], 1.0, SeededRng(5))
        e1, e2 = 0.1, 0.3
        kw = dict(steps=30, seed=6, batch_size=3)
        for algo in ("sgd", "amsgrad", "accsgd"):
            grouped = PlsRate([(0, 2), (2, 4)], 0.01, 0.01, 0.01)
            grouped.rates = lambda t, x, g: [(e1, 1.0), (e2, 1.0)]
            xg, x1, x2 = np.ones(prob.d), np.ones(prob.d), np.ones(prob.d)
            rg = run_optimizer(prob, algo, grouped, x0=xg, **kw)
            r1 = run_optimizer(prob, algo, FixedRate(e1), x0=x1, **kw)
            r2 = run_optimizer(prob, algo, FixedRate(e2), x0=x2, **kw)
            assert not (rg.diverged or r1.diverged or r2.diverged)
            assert rg.etas == (e1, e2)
            npt.assert_array_equal(xg[:2], x1[:2])
            npt.assert_array_equal(xg[2:], x2[2:])

    def test_non_finite_iterate_ends_run_at_that_step(self):
        prob = isotropic_quadratic()
        for algo in ("sgd", "amsgrad", "accsgd"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x0 = np.full(prob.d, 10.0)
                rows = run_rows(prob, algo, FixedRate(1e308), steps=10, seed=1, x0=x0,
                                batch_size=4)
            assert len(rows) == 2
            last = rows[-1]
            assert last.iter == 1 and last.diverged
            assert last.etas == (1e308,)
            assert last.test_loss is None
            assert not np.all(np.isfinite(x0))

    def test_adaptive_contraction_on_isotropic_quadratic(self):
        prob = isotropic_quadratic(curvature=1.0, dim=2, n=8)
        # full batch: a run of n steps ends at iterate n of any longer run
        xs = np.array([[1.5, -0.7]] * 6)
        for x, n in zip(xs, range(2, 8)):  # each row trained in place
            run_optimizer(prob, "sgd", PlsRate(prob.layer_partition, 0.5, 1e-8, 1e-8), steps=n,
                          seed=1, x0=x, batch_size=prob.n)
        dist = np.linalg.norm(xs - prob.x_star, axis=1)
        factors = dist[1:] / dist[:-1]
        npt.assert_allclose(factors, 0.5, rtol=1e-5)

    def test_divergence_detected_and_flagged(self):
        prob = isotropic_quadratic(curvature=4.0)
        rows = run_rows(prob, "sgd", FixedRate(1.0), steps=200, seed=3,
                        x0=np.ones(prob.d), batch_size=prob.n)
        assert [r.diverged for r in rows] == [False] * (len(rows) - 1) + [True]
        assert len(rows) == rows[-1].iter + 1

    def test_records_log_rates_and_smoothness(self):
        prob = isotropic_quadratic()
        src = PlsRate(prob.layer_partition, 0.01, 0.01, 0.01)
        rows = run_rows(prob, "sgd", src, steps=5, seed=2, x0=np.ones(prob.d), batch_size=4)
        assert rows[0].etas is None
        assert rows[1].etas == (0.01,)  # bootstrap applies eta0
        for rec in rows[2:]:
            assert rec.l_hats[0] >= 0.0
            assert rec.etas[0] <= 0.01 / 0.01

    def test_test_fn_cadence(self):
        prob = isotropic_quadratic()
        rows = run_rows(prob, "sgd", FixedRate(0.05), steps=12, seed=2, x0=np.ones(prob.d),
                        batch_size=4, test_fn=prob.full_value, test_every=5)
        present = [r.iter for r in rows if r.test_loss is not None]
        assert present == [0, 5, 10]

    @pytest.mark.parametrize("algo", ["sgd", "amsgrad", "accsgd"])
    def test_trains_x0_in_place(self, algo):
        prob = isotropic_quadratic()
        x0, copy = np.ones(prob.d), np.ones(prob.d)
        tested = []

        def test_fn(x):
            tested.append(x)
            return 0.0

        kw = dict(steps=5, seed=2, batch_size=4)
        run_optimizer(prob, algo, PlsRate(prob.layer_partition, 0.01, 0.01, 0.01), x0=x0,
                      test_fn=test_fn, test_every=1, **kw)
        run_optimizer(prob, algo, PlsRate(prob.layer_partition, 0.01, 0.01, 0.01), x0=copy, **kw)
        assert len(tested) == 6 and all(x is x0 for x in tested)  # every iterate is x0
        assert not np.array_equal(x0, np.ones(prob.d))
        npt.assert_array_equal(x0, copy)  # and it ends as the trained iterate

    @pytest.mark.parametrize("x0, message", [
        ([0.0], "x0 must be a float64 array, got list"),
        (np.zeros(1, dtype=np.float32), "x0 must be a float64 array, got float32 array"),
        (np.zeros(1, dtype=np.int64), "x0 must be a float64 array, got int64 array"),
        (np.zeros(4), r"x0 must have shape \(1,\), got \(4,\)"),
        (np.zeros((1, 1)), r"x0 must have shape \(1,\), got \(1, 1\)"),
        (np.float64(0.0), "x0 must be a float64 array, got float64$"),
        (np.zeros(1)[:0], r"x0 must have shape \(1,\), got \(0,\)"),
        (np.broadcast_to(np.zeros(1), (1,)), "x0 must be writable"),
    ], ids=["list", "float32", "int64", "too-long", "2-d", "scalar", "empty", "read-only"])
    def test_refuses_an_x0_it_cannot_train_in_place(self, x0, message):
        # unchecked, a 1-d quadratic run from 4 coordinates would broadcast
        # and sum its losses over all 4
        prob = QuadraticProblem.random(1, 5, 1.0, 1.0, SeededRng(1))
        with pytest.raises(ValueError, match=message):
            run_optimizer(prob, "sgd", PlsRate(prob.layer_partition, 0.5, 0.01, 0.01),
                          steps=3, seed=1, x0=x0, batch_size=2)

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


def _mlp(layers, n, seed=8):
    rng = SeededRng(seed)
    prob = MlpLsrProblem(layers, rng.uniform_array(n * layers[0]).reshape(n, layers[0]),
                         rng.uniform_array(n * layers[-1]).reshape(n, layers[-1]), l2=1e-4)
    return prob, lambda: glorot_init(layers, rng.spawn(1))


@pytest.mark.parametrize("kind", ["quadratic", "mlp"])
@pytest.mark.parametrize("algo", ["sgd", "amsgrad", "accsgd"])
def test_full_batch_steps_keep_the_index_batch_records(kind, algo, monkeypatch):
    # a full-batch step reads every sample in place (batch None); its
    # records are those of the gathered index batch np.arange(n), bit for bit
    if kind == "quadratic":
        prob = isotropic_quadratic()
        make_x0 = lambda: np.ones(prob.d)  # noqa: E731
    else:
        prob, make_x0 = _mlp([784, 16, 10], 40)
    kw = dict(steps=12, seed=1, batch_size=prob.n, test_fn=prob.full_value, test_every=4)
    x_in_place, x_indexed = make_x0(), make_x0()
    in_place = run_rows(prob, algo, PlsRate(prob.layer_partition, 0.01, 0.01, 0.01),
                        x0=x_in_place, **kw)
    batches = []
    value_and_grad = prob.value_and_grad

    def gathered(x, batch):
        batches.append(batch)
        return value_and_grad(x, np.arange(prob.n))

    monkeypatch.setattr(prob, "value_and_grad", gathered)
    indexed = run_rows(prob, algo, PlsRate(prob.layer_partition, 0.01, 0.01, 0.01),
                       x0=x_indexed, **kw)
    assert batches == [None] * 12
    assert not in_place[-1].diverged
    assert in_place == indexed
    assert x_in_place.tobytes() == x_indexed.tobytes()


def test_a_full_batch_step_reads_the_training_set_in_place():
    # 784-64-32-10 on 1000 samples: a gathered copy of the inputs is 6.3 MB,
    # one step on them 8.6 MB; read in place, a step takes 2.25 MB
    prob, make_x0 = _mlp([784, 64, 32, 10], 1000)
    x0 = make_x0()
    with traced() as mem:
        run_optimizer(prob, "sgd", FixedRate(0.01), steps=1, seed=1, x0=x0, batch_size=prob.n)
    assert mem.peak < prob.inputs.nbytes / 2


@pytest.mark.parametrize("curvature", [0.1, 1.0, 10.0])
def test_pls_descent_stalls_at_an_eps1_sized_distance(curvature):
    """c05's quadratic over 400 steps: once the displacement is far below
    eps1, L-hat ~ L * ||dx|| / eps1 collapses and the rate grows, so the
    iterate hovers about eps1 / 6 from x*, while a fixed rate reaches it.
    The accelerated update holds 0.168-0.174 * eps1 down to eps1 = 1e-6;
    below that, and under AMSGrad, no band holds."""
    prob = QuadraticProblem.random(4, 10, curvature, 1.0, SeededRng(3))
    x0 = prob.x_star + np.full(4, 0.8)
    cells = [("sgd", eps1, 0.1, 0.3) for eps1 in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
    cells += [("accsgd", eps1, 0.16, 0.18) for eps1 in (1e-2, 1e-4, 1e-6)]
    for algo, eps1, lo, hi in cells:
        res, xs = run_with_iterates(prob, algo, PlsRate(prob.layer_partition, 0.5, eps1, 1e-8),
                                    steps=400, seed=1, x0=x0, batch_size=prob.n)
        assert not res.diverged
        dist = np.linalg.norm(xs[300:] - prob.x_star, axis=1)
        assert np.all((lo * eps1 <= dist) & (dist <= hi * eps1)), (algo, eps1, dist.min(), dist.max())
    if curvature == 1.0:  # eta L = 0.5: a fixed rate inside the window
        res, xs = run_with_iterates(prob, "sgd", FixedRate(0.5), steps=400, seed=1, x0=x0,
                                    batch_size=prob.n)
        assert np.linalg.norm(xs[300:] - prob.x_star, axis=1).max() < 1e-12
