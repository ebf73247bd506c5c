"""Finite-sum objectives with analytic stochastic gradients.

An objective is the average of per-sample losses; gradients over an index
batch are averages of per-sample gradients, so the expectation over a
uniformly sampled index equals the full gradient. Parameters live in one
flat float64 vector, optionally partitioned into per-layer groups.

The MLP is piecewise linear (ReLU hidden units, linear output) with a
least-squares loss, and backpropagation is written out explicitly so the
gradient path stays independent of any autodiff framework. The finite
difference oracle below is the cross-check for it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import BLOCK, blocks
from .rng import SeededRng

FD_STEP = 1e-6  # finite_diff_grad's step, relative to max(1, |x_i|)


def _check_batch(batch: Sequence[int], n: int) -> np.ndarray:
    idx = np.asarray(batch, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty index batch")
    if idx.min() < 0 or idx.max() >= n:
        raise IndexError(f"batch indices must lie in [0, {n})")
    return idx


class QuadraticProblem:
    """Per-sample loss 0.5 * (x - c_i)^T diag(D) (x - c_i).

    The full gradient vanishes at the mean of the centers, and the exact
    Lipschitz constant of the full gradient is max(D). Used as the test
    problem with analytically known smoothness.
    """

    def __init__(self, diag: np.ndarray, centers: np.ndarray):
        diag = np.asarray(diag, dtype=np.float64)
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != diag.shape[0]:
            raise ValueError("centers must be (n, d) matching diag length")
        if np.any(diag <= 0.0):
            raise ValueError("curvatures must be positive")
        self.diag = diag
        self.centers = centers
        self.n = centers.shape[0]
        self.d = diag.shape[0]
        self.layer_partition = [(0, self.d)]
        self.x_star = centers.mean(axis=0)

    @classmethod
    def random(
        cls,
        dim: int,
        n_samples: int,
        curvature: float | Sequence[float],
        center_scale: float,
        rng: SeededRng,
    ) -> "QuadraticProblem":
        diag = (
            np.full(dim, float(curvature))
            if np.isscalar(curvature)
            else np.asarray(curvature, dtype=np.float64)
        )
        centers = rng.uniform_array(n_samples * dim, -center_scale, center_scale)
        return cls(diag, centers.reshape(n_samples, dim))

    def _centers(self, batch) -> np.ndarray:
        """The centers of an index batch; None reads every center in place."""
        return self.centers if batch is None else self.centers[_check_batch(batch, self.n)]

    def value(self, x, batch) -> float:
        diff = x[None, :] - self._centers(batch)
        return float(0.5 * np.mean(np.sum(diff * diff * self.diag[None, :], axis=1)))

    def grad(self, x, batch) -> np.ndarray:
        return self.diag * (x - self._centers(batch).mean(axis=0))

    def value_and_grad(self, x, batch):
        return self.value(x, batch), self.grad(x, batch)

    def full_value(self, x) -> float:
        return self.value(x, None)


def layer_layout(layer_sizes: Sequence[int]) -> tuple[list[tuple[int, int, int]], int]:
    """Flat-vector offsets of each layer's weights and biases.

    Returns ([(start, split, end), ...], total_dim): the weights of layer l
    fill [start, split), row-major with shape (n_in, n_out), and its n_out
    biases fill [split, end).
    """
    spans = []
    pos = 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        split = pos + n_in * n_out
        spans.append((pos, split, split + n_out))
        pos = split + n_out
    return spans, pos


class MlpLsrProblem:
    """Fully connected ReLU network with a least-squares loss.

    Per-sample loss: 0.5 * ||net(u_i) - t_i||^2 + 0.5 * l2 * sum ||W_l||^2.
    The regularizer touches weights only, never biases. The ReLU
    subgradient at exactly zero is taken as zero, which matters when
    consecutive gradients are differenced across a kink.

    ``inputs`` are (n, width) rows. uint8 rows are pixels: they are stored
    as the bytes they are, and every pass divides the rows it reads by
    255.0, the bits of rows scaled when loaded. Other rows are stored and
    read as float64, as are the targets, unless the targets are the inputs
    array itself (reconstruction): then they are the rows each pass reads.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        inputs: np.ndarray,
        targets: np.ndarray,
        l2: float = 0.0,
    ):
        reconstruction = targets is inputs
        inputs = np.asarray(inputs)
        if inputs.ndim != 2 or inputs.dtype.kind not in "iuf":
            raise ValueError(f"inputs must be 2-D rows of uint8 pixels or real numbers, "
                             f"got a {inputs.ndim}-D {inputs.dtype} array")
        if inputs.dtype != np.uint8:
            inputs = inputs.astype(np.float64, copy=False)
        targets = inputs if reconstruction else np.asarray(targets, dtype=np.float64)
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if inputs.shape[1] != layer_sizes[0]:
            raise ValueError("input width does not match first layer size")
        if targets.shape != (inputs.shape[0], layer_sizes[-1]):
            raise ValueError("targets must be (n, output size)")
        if l2 < 0.0:
            raise ValueError("l2 coefficient must be non-negative")
        self.layer_sizes = list(layer_sizes)
        self.inputs = inputs
        self.targets = targets
        self.l2 = float(l2)
        self.n = inputs.shape[0]
        self._spans, self.d = layer_layout(layer_sizes)
        # one parameter group per layer: its weights plus its biases
        self.layer_partition = [(start, end) for (start, _, end) in self._spans]
        # the weight decay term l2 * W is added blockwise through one workspace
        sizes = [split - start for (start, split, _) in self._spans]
        work = np.empty(min(max(sizes), BLOCK))
        self._weight_blocks = [blocks(n, work) for n in sizes]

    def unpack(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views of the flat vector as per-layer (W, b); no copies."""
        out = []
        for (start, split, end), n_in, n_out in zip(
            self._spans, self.layer_sizes[:-1], self.layer_sizes[1:]
        ):
            out.append((x[start:split].reshape(n_in, n_out), x[split:end]))
        return out

    def _samples(self, batch):
        """(inputs, targets) of an index batch, or of every sample for None
        (float64 rows read in place). Byte rows are gathered, then divided
        by 255.0 in one call, whose result also serves as the targets of a
        reconstruction."""
        idx = None if batch is None else _check_batch(batch, self.n)
        inputs = self.inputs if idx is None else self.inputs[idx]
        if inputs.dtype == np.uint8:
            inputs = inputs / 255.0
        if self.targets is self.inputs:
            return inputs, inputs
        return inputs, self.targets if idx is None else self.targets[idx]

    def _forward(self, x: np.ndarray, a: np.ndarray):
        """Each layer's activation on the input rows a, in order: the IEEE
        operations of ``a @ w + b`` and ``np.maximum(z, 0.0)`` (not on the
        output), in place. A caller keeping only the latest holds one layer's."""
        last = len(self._spans) - 1
        for l, (w, b) in enumerate(self.unpack(x)):
            a = a @ w
            a += b
            if l < last:
                np.maximum(a, 0.0, out=a)
            yield a

    def _reg_value(self, x: np.ndarray, squares: np.ndarray | None = None) -> float:
        """0.5 * l2 * sum ||W_l||^2. Each layer's ``w * w`` goes into the
        weight slice of ``squares`` when it is given (the same values in
        the same layout, so the same sum), else into a fresh array."""
        if self.l2 == 0.0:
            return 0.0
        outs = self.unpack(squares) if squares is not None else [(None, None)] * len(self._spans)
        return 0.5 * self.l2 * sum(float(np.sum(np.multiply(w, w, out=sw)))
                                   for (w, _), (sw, _) in zip(self.unpack(x), outs))

    def data_value(self, x, batch) -> float:
        """Mean squared-error term alone, without the regularizer; a batch
        of None is every sample."""
        inputs, targets = self._samples(batch)
        for out in self._forward(x, inputs):
            pass
        err = out - targets
        return float(0.5 * np.sum(err * err) / len(inputs))

    def value(self, x, batch) -> float:
        return self.data_value(x, batch) + self._reg_value(x)

    def value_and_grad(self, x, batch):
        g = np.empty_like(x)  # holds the l2 squares until backprop writes it
        inputs, targets = self._samples(batch)
        activations = [inputs, *self._forward(x, inputs)]  # backprop reads every layer's
        err = activations[-1] - targets
        loss = float(0.5 * np.sum(err * err) / len(inputs)) + self._reg_value(x, g)

        layers = self.unpack(x)
        g_layers = self.unpack(g)
        delta = err / len(inputs)
        for l in range(len(layers) - 1, -1, -1):
            w, _ = layers[l]
            gw, gb = g_layers[l]
            np.matmul(activations[l].T, delta, out=gw)
            if self.l2 != 0.0:  # gw += l2 * w, with the product commuted: same bits
                w0, w1 = self._spans[l][:2]
                w_flat, gw_flat = x[w0:w1], g[w0:w1]
                for s, t in self._weight_blocks[l]:
                    np.multiply(w_flat[s], self.l2, out=t)
                    gws = gw_flat[s]
                    gws += t
            np.sum(delta, axis=0, out=gb)
            if l > 0:
                # hidden activation a = max(z, 0); mask by a > 0 (zero at kink)
                delta = (delta @ w.T) * (activations[l] > 0.0)
        return loss, g

    def grad(self, x, batch) -> np.ndarray:
        return self.value_and_grad(x, batch)[1]

    def full_value(self, x) -> float:
        return self.value(x, None)


def glorot_init(layer_sizes: Sequence[int], rng: SeededRng) -> np.ndarray:
    """Flat parameter vector with per-layer uniform fan-balanced weights.

    Weights of a layer with fan (n_in, n_out) are drawn uniformly from
    [-sqrt(6/(n_in+n_out)), +sqrt(6/(n_in+n_out))]; biases start at zero.
    """
    spans, dim = layer_layout(layer_sizes)
    x = np.zeros(dim)
    for (start, split, _), n_in, n_out in zip(spans, layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        x[start:split] = rng.uniform_array(n_in * n_out, -bound, bound)
    return x


def finite_diff_grad(
    obj: QuadraticProblem | MlpLsrProblem,
    x: np.ndarray,
    batch: Sequence[int],
    coords: Sequence[int] | None = None,
) -> np.ndarray:
    """Central-difference gradient oracle, independent of any backprop path.

    Coordinate i steps by ``FD_STEP * max(1, |x_i|)``. ``coords`` limits the
    check to a subset of coordinates (essential for large parameter
    vectors); the result then has one entry per requested coordinate.
    """
    idx = np.arange(x.size) if coords is None else np.asarray(coords, dtype=np.int64)
    out = np.empty(idx.size)
    xp = x.copy()
    for k, i in enumerate(idx):
        hi = FD_STEP * max(1.0, abs(x[i]))
        xp[i] = x[i] + hi
        f_plus = obj.value(xp, batch)
        xp[i] = x[i] - hi
        f_minus = obj.value(xp, batch)
        xp[i] = x[i]
        out[k] = (f_plus - f_minus) / (2.0 * hi)
    return out

