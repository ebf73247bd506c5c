"""Oracles and reference code that the tests share and the library does not need.

The reference updates, rate, MLP forward pass and uniform draws are the
library's earlier whole-array expressions, the reference permutation, digit
generator and envelope simulations its earlier per-step loops; the
library's blocked, in-place and chunked versions must match them bit
for bit.
"""

import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from pls_lab.errors import DivergenceError
from pls_lab.linalg import cond2
from pls_lab.optimizers import VHAT_FLOOR, PlsRate, run_optimizer
from pls_lab.problems import layer_layout
from pls_lab.rng import SeededRng
from pls_lab.stability import DecayReport, _Envelope


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm. Raises DivergenceError on any non-finite entry."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("l2_norm of an empty vector")
    if not np.all(np.isfinite(v)):
        raise DivergenceError("non-finite entry in vector")
    return float(np.sqrt(np.dot(v, v)))


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, as strict JSON parsers do."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def base_rate_admissible(eta0: float, rho: float) -> bool:
    """Whether a base rate sits in the window [1 - rho, 1] (inclusive).

    For step sizes of the form eta0 / L, base rates in this window keep
    the averaged descent update contracting at rate rho.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    return 1.0 - rho <= eta0 <= 1.0


def exact_smoothness(problem) -> float:
    """Lipschitz constant of a quadratic's full gradient: max curvature."""
    return float(problem.diag.max())


def full_grad(problem, x: np.ndarray) -> np.ndarray:
    """Full gradient of a QuadraticProblem at x."""
    return problem.diag * (x - problem.centers.mean(axis=0))


def _rows(array, idx):
    """The rows idx of a problem's stored array, uint8 pixels divided by 255.0."""
    rows = array[idx]
    return rows / 255.0 if rows.dtype == np.uint8 else rows


def mlp_forward(problem, x, idx):
    """Every activation of an MlpLsrProblem on the samples idx, input
    first: a gather by index (pixels then scaled), then ``a @ w + b`` and
    ``np.maximum(z, 0.0)`` per layer (no ReLU on the output), each a fresh
    array."""
    layers = problem.unpack(x)
    a = _rows(problem.inputs, idx)
    activations = [a]
    for l, (w, b) in enumerate(layers):
        z = a @ w + b
        a = np.maximum(z, 0.0) if l < len(layers) - 1 else z
        activations.append(a)
    return activations


def mlp_value_and_grad(problem, x, idx):
    """(data term, loss, gradient) of an MlpLsrProblem on the samples idx,
    from mlp_forward and backprop on whole arrays."""
    idx = np.asarray(idx, dtype=np.int64)
    activations = mlp_forward(problem, x, idx)
    err = activations[-1] - _rows(problem.targets, idx)
    data = float(0.5 * np.sum(err * err) / idx.size)
    layers = problem.unpack(x)
    reg = 0.5 * problem.l2 * sum(float(np.sum(w * w)) for w, _ in layers) if problem.l2 else 0.0
    g = np.empty_like(x)
    delta = err / idx.size
    for l in range(len(layers) - 1, -1, -1):
        (w, _), (gw, gb) = layers[l], problem.unpack(g)[l]
        np.matmul(activations[l].T, delta, out=gw)
        if problem.l2:
            gw += problem.l2 * w
        np.sum(delta, axis=0, out=gb)
        if l > 0:
            delta = (delta @ w.T) * (activations[l] > 0.0)
    return data, data + reg, g


def amsgrad_step(m, v, vhat, x, g, eta, b1t, beta2):
    """One adaptive-moment update on whole arrays, in place."""
    m *= b1t
    m += (1.0 - b1t) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    np.maximum(v, vhat, out=vhat)
    denom = np.sqrt(vhat)
    np.maximum(denom, VHAT_FLOOR, out=denom)
    x -= eta * (m / denom)


def accsgd_step(m, x, g, eta, alpha, a, b):
    """One accelerated update on whole arrays, in place."""
    m *= alpha
    m += (1.0 - alpha) * (x - (a * eta) * g)
    x -= eta * g
    x *= 1.0 - b
    x += b * m


class ReferenceEstimator(PlsRate):
    """The rate with fresh differences and a finiteness scan of each
    group's gradient and of each difference on every call."""

    def rates(self, t, x, g):
        out = []
        for k, (lo, hi) in enumerate(self.groups):
            xs, gs = x[lo:hi], g[lo:hi]
            if xs.shape != gs.shape:
                raise ValueError("iterate and gradient must have the same shape")
            if not np.all(np.isfinite(gs)):
                raise DivergenceError("non-finite gradient in smoothness update")
            if self.history[k] is None:
                self.history[k] = (xs.copy(), gs.copy())
                out.append((self.eta0, 0.0))
                continue
            prev_x, prev_g = self.history[k]
            l_hat = l2_norm(gs - prev_g) / (l2_norm(xs - prev_x) + self.eps1)
            self.history[k] = (xs.copy(), gs.copy())
            eta = self.eta0 / (l_hat + self.eps2)
            if self.decay == "sqrt_t":
                eta /= math.sqrt(t)
            out.append((eta, l_hat))
        return out


def run_rows(obj, algorithm, rate_source, **kwargs):
    """The records a run emits, in order."""
    rows = []
    run_optimizer(obj, algorithm, rate_source, emit=rows.append, **kwargs)
    return rows


def run_with_iterates(obj, algorithm, rate_source, *, x0, **kwargs):
    """A run from a copy of x0, as its records (``.records``, ``.diverged``)
    and its iterates x_0, x_1, ... as rows: the run hands each iterate to
    its test function when it tests at every step."""
    seen = []

    def record(x):
        seen.append(x.copy())
        return 0.0

    rows = run_rows(obj, algorithm, rate_source, x0=x0.copy(), test_fn=record, test_every=1,
                    **kwargs)
    return SimpleNamespace(records=rows, diverged=rows[-1].diverged), np.array(seen)


def uniform_whole(rng, n, lo=0.0, hi=1.0):
    """``n`` draws of ``rng.uniform(lo, hi)`` as one whole-array formula over
    the next ``n`` counters; advances ``rng`` past them."""
    z = np.arange(rng._count + 1, rng._count + n + 1, dtype=np.uint64)
    rng.skip(n)
    z = z * np.uint64(0x9E3779B97F4A7C15) + np.uint64(rng.seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return lo + (hi - lo) * ((z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)


def glorot_whole(layer_sizes, rng):
    """``glorot_init`` with each layer's weights drawn by uniform_whole."""
    spans, dim = layer_layout(layer_sizes)
    x = np.zeros(dim)
    for (start, split, _), n_in, n_out in zip(spans, layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        x[start:split] = uniform_whole(rng, n_in * n_out, -bound, bound)
    return x


def fisher_yates(rng, n):
    """Permutation of arange(n): swap i with rng.randint(i + 1) for i from
    n - 1 down to 1, one scalar draw at a time."""
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def synthetic_digits_loop(n, seed, rows=28, cols=28, num_classes=10, label_noise=0.10):
    """The digit generator one sample at a time, with scalar draws."""
    rng = SeededRng(seed)
    yy, xx = np.mgrid[0:rows, 0:cols].astype(np.float64)
    class_rng = SeededRng(0xD161).spawn(7)
    blobs_per_class = 3
    class_blobs = []
    for _ in range(num_classes):
        centers = class_rng.uniform_array(blobs_per_class * 2, 0.25, 0.75)
        widths = class_rng.uniform_array(blobs_per_class, 0.09, 0.16)
        class_blobs.append((centers.reshape(blobs_per_class, 2), widths))

    images = np.zeros((n, rows, cols), dtype=np.uint8)
    labels = (np.arange(n) % num_classes).astype(np.int64)
    labels = labels[fisher_yates(rng, n)]
    for i in range(n):
        centers, widths = class_blobs[labels[i]]
        jitter = rng.uniform_array(blobs_per_class * 2, -0.10, 0.10).reshape(-1, 2)
        amps = rng.uniform_array(blobs_per_class, 1.2, 1.9)
        canvas = np.zeros((rows, cols))
        for (cy, cx), (jy, jx), w, amp in zip(centers, jitter, widths, amps):
            dy = (yy / rows - (cy + jy)) ** 2
            dx = (xx / cols - (cx + jx)) ** 2
            canvas += amp * np.exp(-(dy + dx) / (2.0 * w * w))
        for _ in range(4):
            cy, cx = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            w = rng.uniform(0.04, 0.12)
            amp = rng.uniform(0.4, 1.5)
            dy = (yy / rows - cy) ** 2
            dx = (xx / cols - cx) ** 2
            canvas += amp * np.exp(-(dy + dx) / (2.0 * w * w))
        if rng.uniform() < 0.10:
            canvas *= 1.7
        canvas = np.clip(canvas, 0.0, 1.0)
        canvas[canvas < 0.10] = 0.0
        paper = rng.uniform_array(rows * cols, 0.0, 0.30).reshape(rows, cols)
        canvas = np.clip(canvas + paper, 0.0, 1.0)
        images[i] = np.round(canvas * 255.0).astype(np.uint8)
        if label_noise > 0.0 and rng.uniform() < label_noise:
            labels[i] = rng.randint(num_classes)
    return images, labels.astype(np.uint8)


def simulate_factors_loop(factors, z0, rho):
    """simulate_factors one step and one envelope observation at a time."""
    z = float(z0)
    if z == 0.0:
        return DecayReport(0.0, None, None, False)
    env = _Envelope(rho, abs(z))
    for f in factors:
        z *= f
        divisor = env.observe(abs(z))
        if divisor is None:
            return DecayReport(math.inf, None, None, True)
        if divisor != 1.0:
            z /= divisor
    return DecayReport(env.max_ratio, None, None, False)


def simulate_system_loop(m, steps, zeta0, rho, p=None):
    """simulate_system one step at a time: a fresh array, errstate and
    np.linalg.norm on every step, with math.hypot for a state whose
    squared norm is below the normal range."""
    z = np.asarray(zeta0, dtype=np.float64).copy()
    scale = float(np.linalg.norm(z))
    bound = math.sqrt(cond2(p)) if p is not None else None
    if scale == 0.0:
        return DecayReport(0.0, bound, True if bound is not None else None, False)
    env = _Envelope(rho, scale)
    for m_t in [m] * steps:
        with np.errstate(over="ignore", invalid="ignore"):
            z = m_t.as_array() @ z
            norm = float(np.linalg.norm(z))
            if z.dot(z) < sys.float_info.min:
                norm = math.hypot(*z)
        divisor = env.observe(norm)
        if divisor is None:
            return DecayReport(math.inf, bound, False if bound is not None else None, True)
        if divisor != 1.0:
            z /= divisor
    max_ratio = env.max_ratio
    within = (max_ratio <= bound * (1.0 + 1e-9)) if bound is not None else None
    return DecayReport(max_ratio, bound, within, False)
