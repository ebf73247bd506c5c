"""Independent reference for the benchmark's correctness checks.

Nothing here imports pls_lab. The SplitMix64 draws, the IDX layout, the
ReLU least-squares network with l2 on the weights, the PLS step-size rule
and the three updates are written out again from README.md and the
docstrings, so a fault in the program cannot hide in the check:

- draw ``i`` of stream ``s`` is ``mix64(s + i * GAMMA)``; a child stream
  with key ``k`` has seed ``mix64(mix64(s) ^ ((k + 1) * GAMMA))``; stream 0
  of the run seed initialises the weights, stream 1 samples batches;
- PLS: ``L = ||g_t - g_{t-1}|| / (||x_t - x_{t-1}|| + eps1)`` per layer and
  ``eta = eta0 / (L + eps2)``; the first step of a run has no history and
  uses ``L = 0`` and ``eta = eta0``;
- sgd ``x - eta*g``; amsgrad with moments ``m, v``, running max ``vhat`` and
  ``x - eta*m/max(sqrt(vhat), 1e-12)``; accsgd with
  ``m <- alpha*m + (1-alpha)*(x - a*eta*g)`` and
  ``x <- (1-b)*(x - eta*g) + b*m``, ``m`` started at ``x0``.

The stability half builds each linearised state matrix from the update
rules (gradient ``L*(x - x*)``) and takes the spectral radius from
``numpy.linalg.eigvals``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1
VHAT_FLOOR = 1e-12


# --- SplitMix64 -----------------------------------------------------------


def mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self.seed = seed & MASK
        self.drawn = 0

    def child(self, key: int) -> "SplitMix64":
        return SplitMix64(mix64((mix64(self.seed) ^ ((key + 1) * GAMMA)) & MASK))

    def raw(self, n: int) -> np.ndarray:
        """The next n 64-bit draws, as uint64."""
        i = np.arange(self.drawn + 1, self.drawn + n + 1, dtype=np.uint64)
        self.drawn += n
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + i * np.uint64(GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int, lo: float, hi: float) -> np.ndarray:
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return lo + (hi - lo) * u

    def indices(self, count: int, n: int) -> np.ndarray:
        return (self.raw(count) % np.uint64(n)).astype(np.int64)


# --- data and network -----------------------------------------------------


def read_idx(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = struct.unpack(">I", blob[:4])[0]
    ndim = {0x803: 3, 0x801: 1}[magic]
    dims = struct.unpack(f">{ndim}I", blob[4 : 4 + 4 * ndim])
    payload = np.frombuffer(blob, dtype=np.uint8, offset=4 + 4 * ndim)
    if payload.size != math.prod(dims):
        raise ValueError(f"{path}: payload size {payload.size} != {dims}")
    return payload.reshape(dims)


def load_split(images_path, labels_path, classes: int = 10):
    images = read_idx(images_path)
    inputs = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    labels = read_idx(labels_path).astype(np.int64)
    targets = np.eye(classes)[labels]
    return inputs, targets


class Net:
    """784-...-10 ReLU net, flat parameters laid out [W0, b0, W1, b1, ...]."""

    def __init__(self, sizes, l2: float):
        self.sizes = list(sizes)
        self.l2 = l2
        self.slices = []  # (weight slice, bias slice, shape) per layer
        pos = 0
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            w = slice(pos, pos + n_in * n_out)
            pos += n_in * n_out
            b = slice(pos, pos + n_out)
            pos += n_out
            self.slices.append((w, b, (n_in, n_out)))
        self.dim = pos
        # one rate group per layer: its weights and its biases
        self.groups = [slice(w.start, b.stop) for w, b, _ in self.slices]

    def glorot(self, seed: int) -> np.ndarray:
        stream = SplitMix64(seed).child(0)
        x = np.zeros(self.dim)
        for w, _, (n_in, n_out) in self.slices:
            r = math.sqrt(6.0 / (n_in + n_out))
            x[w] = stream.uniform(n_in * n_out, -r, r)
        return x

    def _params(self, x):
        return [(x[w].reshape(shape), x[b]) for w, b, shape in self.slices]

    def reg(self, x) -> float:
        return 0.5 * self.l2 * sum(float(np.dot(x[w], x[w])) for w, _, _ in self.slices)

    def loss(self, x, inputs, targets, with_reg=True) -> float:
        h = inputs
        params = self._params(x)
        for k, (w, b) in enumerate(params):
            h = h.dot(w) + b
            if k + 1 < len(params):
                h = np.where(h > 0.0, h, 0.0)
        err = h - targets
        value = 0.5 * float(np.einsum("ij,ij->", err, err)) / inputs.shape[0]
        return value + (self.reg(x) if with_reg else 0.0)

    def loss_and_grad(self, x, inputs, targets):
        params = self._params(x)
        outs = [inputs]
        h = inputs
        for k, (w, b) in enumerate(params):
            h = h.dot(w) + b
            if k + 1 < len(params):
                h = np.where(h > 0.0, h, 0.0)
            outs.append(h)
        err = h - targets
        batch = inputs.shape[0]
        value = 0.5 * float(np.einsum("ij,ij->", err, err)) / batch + self.reg(x)
        grad = np.zeros(self.dim)
        delta = err / batch
        for k in reversed(range(len(params))):
            w_sl, b_sl, _ = self.slices[k]
            w, _ = params[k]
            grad[w_sl] = (outs[k].T.dot(delta) + self.l2 * w).ravel()
            grad[b_sl] = delta.sum(axis=0)
            if k > 0:
                delta = delta.dot(w.T) * (outs[k] > 0.0)
        return value, grad


# --- training replay ------------------------------------------------------


def accsgd_coefficients(kappa: float, xi: float):
    alpha = 1.0 - 0.49 * xi / kappa
    a = kappa / 0.7
    b = (1.0 - alpha) / (0.7 + (1.0 - alpha))
    return alpha, a, b


def replay(cfg: dict, steps: int):
    """The first ``steps`` rows of a run, as (train_loss, test_loss, lrs, Ls).

    ``cfg`` is an mlp-classification config dict with a fixed or
    constant-decay per-layer pls rate, and no training-subset shuffle.
    """
    prob = cfg["problem"]
    net = Net(prob["layers"], prob.get("l2", 0.0))
    inputs, targets = load_split(prob["images"], prob["labels"], prob.get("num_classes", 10))
    if cfg.get("limit") is not None and cfg["limit"] < inputs.shape[0]:
        raise ValueError("replay does not model the training-subset shuffle")
    test = None
    if "test_images" in prob:
        test = load_split(prob["test_images"], prob["test_labels"], prob.get("num_classes", 10))
    n = inputs.shape[0]
    rate = cfg["rate"]
    algorithm = cfg["algorithm"]
    batch_size = cfg.get("batch_size", 100)
    test_every = cfg.get("test_every", 50)

    x = net.glorot(cfg["seed"])
    batches = SplitMix64(cfg["seed"]).child(1)

    def test_loss(x_now, t):
        if test is None or t % test_every:
            return None
        return net.loss(x_now, *test, with_reg=False)

    rows = [(net.loss(x, inputs, targets), test_loss(x, 0), None, None)]
    ams = cfg.get("amsgrad", {})
    b1, b2 = ams.get("beta1", 0.9), ams.get("beta2", 0.999)
    acc = cfg.get("accsgd", {})
    alpha, a, b = accsgd_coefficients(acc.get("kappa", 1000.0), acc.get("xi", 10.0))
    m = np.zeros(net.dim) if algorithm == "amsgrad" else x.copy()
    v = np.zeros(net.dim)
    vhat = np.zeros(net.dim)
    prev = None
    for t in range(1, steps + 1):
        idx = np.arange(n) if batch_size >= n else batches.indices(batch_size, n)
        loss, g = net.loss_and_grad(x, inputs[idx], targets[idx])
        if rate["kind"] == "fixed":
            lrs, ls = [rate["eta"]], None  # one rate for the whole vector
        else:
            eps1, eps2 = rate.get("eps1", 0.01), rate.get("eps2", 0.01)
            if prev is None:
                ls = [0.0] * len(net.groups)
                lrs = [rate["eta0"]] * len(net.groups)
            else:
                px, pg = prev
                ls = [
                    float(np.linalg.norm(g[s] - pg[s])) / (float(np.linalg.norm(x[s] - px[s])) + eps1)
                    for s in net.groups
                ]
                lrs = [rate["eta0"] / (l + eps2) for l in ls]
            prev = (x.copy(), g.copy())
        eta = np.empty(net.dim)
        for s, lr in zip(net.groups, lrs * len(net.groups) if len(lrs) == 1 else lrs):
            eta[s] = lr
        if algorithm == "sgd":
            x = x - eta * g
        elif algorithm == "amsgrad":
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            vhat = np.maximum(vhat, v)
            x = x - eta * m / np.maximum(np.sqrt(vhat), VHAT_FLOOR)
        else:
            m = alpha * m + (1.0 - alpha) * (x - a * eta * g)
            x = (1.0 - b) * (x - eta * g) + b * m
        rows.append((loss, test_loss(x, t), lrs, ls))
    return rows


# --- linearised systems ---------------------------------------------------


def state_matrix(system: str, p: dict) -> np.ndarray:
    """The one-step map of the error state under gradient ``L*(x - x*)``."""
    eta, L = p["eta"], p["L"]
    if system == "t1":
        return np.array([[1.0 - eta * L]])
    if system == "t2":
        beta, s = p["beta1"], p["sqrtvhat"]
        # m' = beta*m + (1-beta)*L*e ; e' = e - eta*m'/s
        return np.array(
            [
                [beta, (1.0 - beta) * L],
                [-eta * beta / s, 1.0 - eta * (1.0 - beta) * L / s],
            ]
        )
    alpha, a, b = accsgd_coefficients(p["kappa"], p["xi"])
    # m' = alpha*m + (1-alpha)*(1 - a*eta*L)*e ; e' = (1-b)*(1-eta*L)*e + b*m'
    top = (1.0 - alpha) * (1.0 - a * eta * L)
    return np.array([[alpha, top], [b * alpha, (1.0 - b) * (1.0 - eta * L) + b * top]])


def spectral_radius(system: str, p: dict) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(state_matrix(system, p)))))


def window(system: str, p: dict):
    """(lo, hi, closed) of the step-size window as README and docstrings give it."""
    L, rho = p["L"], p["rho"]
    if system == "t1":
        return (1.0 - rho) / L, 1.0 / L, True
    if system == "t2":
        r = math.sqrt(p["beta1"])
        scale = p["sqrtvhat"] / L
        return (1.0 - r) / (1.0 + r) * scale, (1.0 + r) / (1.0 - r) * scale, False
    kappa, xi = p["kappa"], p["xi"]
    return (1.0 - rho * (kappa + 0.7 * xi) / kappa) / L, 1.0 / L, False


def in_window(system: str, p: dict, eta: float | None = None) -> bool:
    lo, hi, closed = window(system, p)
    eta = p["eta"] if eta is None else eta
    return lo <= eta <= hi if closed else lo < eta < hi


def window_verdict(system: str, p: dict, eta: float | None = None) -> bool:
    """What the program's ``stable`` field reports: window membership
    (and, for t3, ``0 < alpha < rho`` as well)."""
    inside = in_window(system, p, eta)
    if system == "t3":
        alpha, _, _ = accsgd_coefficients(p["kappa"], p["xi"])
        return inside and 0.0 < alpha < p["rho"]
    return inside


def contraction_interval(system: str, p: dict):
    """Step sizes at which every eigenvalue has modulus below rho.

    The characteristic polynomial is ``lam^2 - t*lam + d`` with t and d
    affine in eta (t1 is embedded as ``d = 0``). Its roots lie inside
    radius rho iff ``|d| < rho^2`` and ``|t| < rho + d/rho``: four
    half-lines in eta. Returns (lo, hi), possibly empty (lo >= hi).
    """
    rho = p["rho"]

    def td(eta):
        m = state_matrix(system, dict(p, eta=eta))
        if m.shape == (1, 1):
            return float(m[0, 0]), 0.0
        return float(np.trace(m)), float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    t0, d0 = td(0.0)
    t1, d1 = td(1.0)
    t1, d1 = t1 - t0, d1 - d0
    lo, hi = -math.inf, math.inf
    for c0, c1 in (
        (rho * rho - d0, -d1),
        (rho * rho + d0, d1),
        (rho + d0 / rho - t0, d1 / rho - t1),
        (rho + d0 / rho + t0, d1 / rho + t1),
    ):  # c0 + c1*eta > 0
        if c1 > 0.0:
            lo = max(lo, -c0 / c1)
        elif c1 < 0.0:
            hi = min(hi, -c0 / c1)
        elif c0 <= 0.0:
            return 0.0, 0.0
    return lo, hi
