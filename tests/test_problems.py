import numpy as np
import numpy.testing as npt
import pytest

from pls_lab.problems import (
    MlpLsrProblem,
    QuadraticProblem,
    finite_diff_grad,
    glorot_init,
    layer_layout,
)
from pls_lab.config import ExperimentConfig
from pls_lab.rng import SeededRng
from pls_lab.runner import build_problem

from _oracles import exact_smoothness, full_grad, mlp_value_and_grad
from conftest import mlp_classification_config, traced


def make_quadratic(seed=1, dim=4, n=12, curvature=2.0):
    return QuadraticProblem.random(dim, n, curvature, 1.0, SeededRng(seed))


class TestQuadratic:
    def test_full_gradient_vanishes_at_equilibrium(self):
        prob = make_quadratic()
        npt.assert_array_equal(full_grad(prob, prob.x_star), np.zeros(prob.d))

    def test_scalar_single_center_gradient_is_linear(self):
        prob = QuadraticProblem(np.array([3.0]), np.array([[0.0]]))
        for x in (-2.0, 0.5, 4.0):
            npt.assert_allclose(prob.grad(np.array([x]), [0]), [3.0 * x])

    def test_full_batch_grad_equals_full_grad_bitwise(self):
        prob = make_quadratic()
        x = SeededRng(3).uniform_array(prob.d, -2, 2)
        npt.assert_array_equal(prob.grad(x, np.arange(prob.n)), full_grad(prob, x))

    def test_none_batch_is_every_center_bitwise(self):
        prob = make_quadratic()
        x = SeededRng(3).uniform_array(prob.d, -2, 2)
        every = np.arange(prob.n)
        assert prob.value(x, None) == prob.value(x, every) == prob.full_value(x)
        assert prob.grad(x, None).tobytes() == prob.grad(x, every).tobytes()
        loss, g = prob.value_and_grad(x, None)
        assert (loss, g.tobytes()) == (prob.value(x, every), prob.grad(x, every).tobytes())

    def test_mean_of_single_sample_grads_is_full_grad(self):
        prob = make_quadratic()
        x = SeededRng(4).uniform_array(prob.d, -2, 2)
        singles = np.array([prob.grad(x, [i]) for i in range(prob.n)])
        npt.assert_allclose(singles.mean(axis=0), full_grad(prob, x), rtol=1e-12, atol=1e-14)

    def test_gradient_lipschitz_bound(self):
        prob = QuadraticProblem.random(5, 8, [2.0, 5.0, 1.0, 0.5, 3.0], 1.0, SeededRng(6))
        L = exact_smoothness(prob)
        rng = SeededRng(7)
        for _ in range(1000):
            x = rng.uniform_array(5, -3, 3)
            y = rng.uniform_array(5, -3, 3)
            lhs = np.linalg.norm(full_grad(prob, x) - full_grad(prob, y))
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_exact_smoothness_is_max_curvature(self):
        prob = QuadraticProblem(np.array([2.0, 5.0, 1.0]), np.zeros((3, 3)))
        assert exact_smoothness(prob) == 5.0
        iso = QuadraticProblem(np.full(4, 2.5), np.zeros((2, 4)))
        assert exact_smoothness(iso) == 2.5

    def test_batch_validation(self):
        prob = make_quadratic()
        with pytest.raises(ValueError):
            prob.grad(np.zeros(prob.d), [])
        with pytest.raises(IndexError):
            prob.grad(np.zeros(prob.d), [prob.n])


class ZeroObjective:
    """Constant-zero loss; the finite-difference oracle must return zeros."""

    n = 3
    d = 4
    layer_partition = [(0, 4)]

    def value(self, x, batch):
        return 0.0

    def grad(self, x, batch):
        return np.zeros(self.d)

    def value_and_grad(self, x, batch):
        return 0.0, np.zeros(self.d)

    def full_value(self, x):
        return 0.0


class TestFiniteDiff:
    def test_scalar_quadratic_derivative(self):
        prob = QuadraticProblem(np.array([2.0]), np.array([[0.0]]))
        g = finite_diff_grad(prob, np.array([3.0]), [0])
        npt.assert_allclose(g, [6.0], atol=1e-6)

    def test_zero_function(self):
        g = finite_diff_grad(ZeroObjective(), np.ones(4), [0, 1])
        npt.assert_array_equal(g, np.zeros(4))

    def test_coordinate_subset(self):
        prob = make_quadratic()
        x = SeededRng(8).uniform_array(prob.d, -1, 1)
        full = finite_diff_grad(prob, x, [0, 1])
        coords = finite_diff_grad(prob, x, [0, 1], coords=[2, 0])
        npt.assert_allclose(coords, full[[2, 0]], rtol=1e-9)


def small_mlp(seed=7, l2=0.0):
    rng = SeededRng(seed)
    inputs = rng.uniform_array(6 * 10).reshape(6, 10)
    targets = rng.uniform_array(6 * 5).reshape(6, 5)
    return MlpLsrProblem([10, 8, 5], inputs, targets, l2=l2)


class TestMlp:
    def test_zero_weights_zero_input_gives_zero_activations(self):
        prob = MlpLsrProblem([3, 4, 2], np.zeros((2, 3)), np.zeros((2, 2)))
        acts = list(prob._forward(np.zeros(prob.d), prob.inputs))
        assert len(acts) == 2
        for a in acts:
            npt.assert_array_equal(a, np.zeros_like(a))
        assert prob.full_value(np.zeros(prob.d)) == 0.0

    def test_loss_nonnegative(self):
        prob = small_mlp()
        rng = SeededRng(9)
        for _ in range(10):
            x = rng.uniform_array(prob.d, -1, 1)
            assert prob.value(x, np.arange(prob.n)) >= 0.0

    def test_gradient_matches_finite_differences(self):
        prob = small_mlp(l2=1e-3)
        rng = SeededRng(10)
        batch = np.arange(prob.n)
        for k in range(5):
            x = glorot_init([10, 8, 5], rng.spawn(k))
            ga = prob.grad(x, batch)
            gn = finite_diff_grad(prob, x, batch)
            rel = np.linalg.norm(ga - gn) / np.linalg.norm(ga)
            assert rel < 1e-5

    def test_regularizer_touches_weights_only(self):
        base = small_mlp(l2=0.0)
        reg = small_mlp(l2=0.5)
        x = glorot_init([10, 8, 5], SeededRng(11))
        batch = np.arange(base.n)
        diff = reg.grad(x, batch) - base.grad(x, batch)
        expected = np.zeros_like(x)
        for (start, split, end) in base._spans:
            expected[start:split] = 0.5 * x[start:split]
            assert np.all(diff[split:end] == 0.0)
        npt.assert_allclose(diff, expected, atol=1e-12)

    def test_relu_kink_one_sided_discrepancy_is_reported(self):
        # one hidden unit parked exactly at its kink: the two one-sided
        # slopes differ by the active-side gain instead of failing
        prob = MlpLsrProblem([1, 1, 1], np.array([[1.0]]), np.array([[-1.0]]))
        x = np.zeros(prob.d)
        x[2] = 1.0  # output weight; hidden weight and biases at zero
        h = 1e-6
        f0 = prob.value(x, [0])
        step = np.zeros(prob.d)
        step[1] = h  # hidden bias
        fwd = (prob.value(x + step, [0]) - f0) / h
        bwd = (f0 - prob.value(x - step, [0])) / h
        assert abs(fwd - bwd) > 0.5
        npt.assert_allclose(bwd, 0.0, atol=1e-6)
        npt.assert_allclose(fwd, 1.0, atol=1e-3)

    def test_blocked_weight_decay_matches_the_whole_array_sum(self):
        # 784x64 weights span two blocks; gw += l2 * w on the whole array
        # is the reference the blocked sum must match bit for bit
        layers, l2 = [784, 64, 10], 1e-4
        rng = SeededRng(14)
        inputs = rng.uniform_array(30 * 784).reshape(30, 784)
        targets = rng.uniform_array(30 * 10).reshape(30, 10)
        x = glorot_init(layers, rng.spawn(1))
        batch = [3, 7, 11, 29]
        _, g = MlpLsrProblem(layers, inputs, targets, l2=l2).value_and_grad(x, batch)
        plain = MlpLsrProblem(layers, inputs, targets)
        _, expected = plain.value_and_grad(x, batch)
        for (gw, _), (w, _) in zip(plain.unpack(expected), plain.unpack(x)):
            gw += l2 * w
        assert g.tobytes() == expected.tobytes()

    def test_value_and_grad_consistent(self):
        prob = small_mlp(l2=1e-2)
        x = glorot_init([10, 8, 5], SeededRng(13))
        batch = [0, 2, 4]
        loss, g = prob.value_and_grad(x, batch)
        assert loss == prob.value(x, batch)
        npt.assert_array_equal(g, prob.grad(x, batch))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MlpLsrProblem([3, 2], np.zeros((2, 4)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            MlpLsrProblem([3, 2], np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            MlpLsrProblem([3, 2], np.zeros((2, 3)), np.zeros((2, 2)), l2=-1.0)

    @pytest.mark.parametrize("inputs, got", [
        (np.zeros((2, 3, 1)), "a 3-D float64 array"),
        (np.zeros(3), "a 1-D float64 array"),
        (np.float64(0.0), "a 0-D float64 array"),
        (np.full((2, 3), "0"), "a 2-D <U1 array"),
        (np.zeros((2, 3), dtype=bool), "a 2-D bool array"),
        (np.zeros((2, 3), dtype=complex), "a 2-D complex128 array"),
        (np.zeros((2, 3), dtype=object), "a 2-D object array"),
    ], ids=["3-d", "1-d", "0-d", "text", "bool", "complex", "object"])
    def test_refuses_inputs_that_are_not_rows_of_numbers(self, inputs, got):
        with pytest.raises(ValueError, match=f"^inputs must be 2-D rows of uint8 pixels or "
                                             f"real numbers, got {got}$"):
            MlpLsrProblem([3, 2], inputs, np.zeros((2, 2)))


def oracle_cases():
    """(problem, x) cases: l2 on and off, a reconstruction net whose
    targets are its inputs, and both nets on uint8 pixels."""
    rng = SeededRng(21)
    inputs = rng.uniform_array(70 * 64).reshape(70, 64)
    targets = rng.uniform_array(70 * 10).reshape(70, 10)
    pixels = rng.index_array(70 * 64, 256).astype(np.uint8).reshape(70, 64)
    for name, layers, rows, tgt, l2 in (
            ("classification", [64, 48, 32, 10], inputs, targets, 0.0),
            ("classification-l2", [64, 48, 32, 10], inputs, targets, 1e-3),
            ("reconstruction-l2", [64, 24, 64], inputs, inputs, 1e-4),
            ("classification-bytes", [64, 48, 32, 10], pixels, targets, 1e-3),
            ("reconstruction-bytes", [64, 24, 64], pixels, pixels, 1e-4)):
        prob = MlpLsrProblem(layers, rows, tgt, l2=l2)
        yield pytest.param(prob, glorot_init(layers, rng.spawn(len(layers))), id=name)


class TestForwardOracle:
    """The passes read every sample in place, keep one layer's activations
    where they can, and give the bits of the whole-array forward."""

    @pytest.mark.parametrize("prob, x", oracle_cases())
    @pytest.mark.parametrize("batch", ["random", "one", "every"])
    def test_bits_match_the_whole_array_forward(self, prob, x, batch):
        idx = {"random": SeededRng(5).index_array(25, prob.n), "one": np.array([17]),
               "every": np.arange(prob.n)}[batch]
        data, loss, grad = mlp_value_and_grad(prob, x, idx)
        got_loss, got_grad = prob.value_and_grad(x, idx)
        assert (got_loss, got_grad.tobytes()) == (loss, grad.tobytes())
        assert prob.data_value(x, idx) == data
        assert prob.value(x, idx) == loss
        if batch == "every":
            assert prob.data_value(x, None) == data
            assert prob.full_value(x) == loss
            got_loss, got_grad = prob.value_and_grad(x, None)
            assert (got_loss, got_grad.tobytes()) == (loss, grad.tobytes())

    def test_a_full_pass_holds_one_layer_at_a_time(self):
        # 784-500-500-10 on 1000 samples: a hidden layer's output is 4 MB;
        # a gathered copy of the inputs and every activation kept is 22 MB
        layers, n = [784, 500, 500, 10], 1000
        rng = SeededRng(8)
        prob = MlpLsrProblem(layers, rng.uniform_array(n * 784).reshape(n, 784),
                             rng.uniform_array(n * 10).reshape(n, 10), l2=1e-4)
        x = glorot_init(layers, rng.spawn(1))
        layer_bytes = n * 500 * 8
        for full_pass in (prob.full_value, lambda x: prob.data_value(x, None)):
            with traced() as mem:
                full_pass(x)
            assert mem.peak < 2.5 * layer_bytes

    def test_a_gradient_holds_one_gradient_and_batch_sized_arrays(self):
        # 784-500-500-10 at batch 10: the gradient is 5.2 MB, each batch-sized
        # array at most 63 KB; a separate w * w of the first layer is 3.1 MB
        layers, n, batch = [784, 500, 500, 10], 100, 10
        rng = SeededRng(9)
        prob = MlpLsrProblem(layers, rng.uniform_array(n * 784).reshape(n, 784),
                             rng.uniform_array(n * 10).reshape(n, 10), l2=1e-4)
        x = glorot_init(layers, rng.spawn(1))
        idx = rng.index_array(batch, n)
        with traced() as mem:
            prob.value_and_grad(x, idx)
        assert mem.peak < x.nbytes + 16 * batch * max(layers) * 8


@pytest.mark.parametrize("kind", ["classification", "reconstruction"])
@pytest.mark.parametrize("limit", [None, 150])
def test_byte_rows_give_the_bits_of_rows_scaled_on_load(kind, limit, small_digits_dir):
    # build_problem keeps the IDX pixels as bytes, after its limit gather;
    # a twin built on rows / 255.0 is the problem of rows scaled on load
    cfg = mlp_classification_config(small_digits_dir, layers=[64, 24, 10], steps=1, seed=4,
                                    rate={"kind": "fixed", "eta": 0.1}, limit=limit)
    if kind == "reconstruction":
        cfg["problem"] = {"kind": "mlp-reconstruction", "layers": [64, 24, 64], "l2": 1e-4,
                          "images": cfg["problem"]["images"],
                          "test_images": cfg["problem"]["test_images"]}
    prob, x, test_fn = build_problem(ExperimentConfig.from_dict(cfg))
    test_prob = test_fn.__self__
    assert prob.inputs.dtype == test_prob.inputs.dtype == np.uint8
    assert prob.n == (limit or 300)
    twins = []
    for p in (prob, test_prob):
        rows = p.inputs / 255.0
        twins.append(MlpLsrProblem(p.layer_sizes, rows,
                                   rows if p.targets is p.inputs else p.targets, l2=p.l2))
    twin, test_twin = twins
    for batch in (SeededRng(3).index_array(20, prob.n), [7], None):
        assert prob.value(x, batch) == twin.value(x, batch)
        assert prob.data_value(x, batch) == twin.data_value(x, batch)
        loss, g = prob.value_and_grad(x, batch)
        twin_loss, twin_g = twin.value_and_grad(x, batch)
        assert (loss, g.tobytes()) == (twin_loss, twin_g.tobytes())
    assert prob.full_value(x) == twin.full_value(x)
    assert test_fn(x) == test_twin.full_value(x)


class TestGlorotInit:
    def test_balanced_fan_gives_unit_bound(self):
        x = glorot_init([3, 3], SeededRng(1))
        w = x[:9]
        assert np.all(np.abs(w) <= 1.0)
        assert np.abs(w).max() > 0.5  # draws actually fill the range

    def test_wide_layer_bound(self):
        x = glorot_init([784, 1000], SeededRng(2))
        bound = np.sqrt(6.0 / (784 + 1000))
        npt.assert_allclose(bound, 0.05800, atol=5e-5)
        w = x[: 784 * 1000]
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.99 * bound

    def test_biases_zero(self):
        sizes = [4, 3, 2]
        x = glorot_init(sizes, SeededRng(3))
        spans, _ = layer_layout(sizes)
        for (_, split, end) in spans:
            npt.assert_array_equal(x[split:end], np.zeros(end - split))

    def test_deterministic(self):
        npt.assert_array_equal(
            glorot_init([5, 4, 3], SeededRng(9)), glorot_init([5, 4, 3], SeededRng(9))
        )


def test_layer_partition_covers_vector():
    prob = small_mlp()
    spans = prob.layer_partition
    assert spans[0][0] == 0
    assert spans[-1][1] == prob.d
    for (a, b), (c, _) in zip(spans, spans[1:]):
        assert b == c
