"""Optimizer step rules and the experiment run loop.

Three base updates (plain descent, max-normalized adaptive moments,
accelerated momentum) share one loop; the adaptive-smoothness variants are
the same updates driven by a different step-size source. Each iteration
follows the same line order: sample batch, gradient, smoothness
prediction, step size, moment updates, parameter update, and then hands
its record to the caller's ``emit``; the loop keeps no log of its own.
Every update takes one scalar step size and advances one rate group's
slice of the iterate in place. The updates run block by block
(``linalg.blocks``) through one block-sized workspace, with the
operations and their order of the textbook expressions in their
docstrings, so they allocate nothing the size of a group per step and
give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .linalg import BLOCK, blocks
from .rng import SeededRng
from .smoothness import BAD_GRADIENT, DECAY_MODES, predict

ALGORITHMS = ("sgd", "amsgrad", "accsgd")

# Runs halt once the batch loss exceeds this or anything goes non-finite.
LOSS_CAP = 1e12

# Floor applied to sqrt(vhat) before dividing; the running max starts at
# zero and is divided at the very first step.
VHAT_FLOOR = 1e-12

BATCH_STREAM = 1  # spawn key for the batch-sampling substream of a run seed

# The group of a source with one rate: the whole vector, as slice bounds.
WHOLE = ((0, None),)


def sgd_step(x: np.ndarray, g: np.ndarray, eta: float) -> None:
    """x -= eta * g, in place, block by block through one block-sized
    workspace (``g * eta``: the same bits)."""
    for s, w in blocks(x.size, np.empty(min(x.size, BLOCK))):
        np.multiply(g[s], eta, out=w)
        x[s] -= w


class AmsgradState:
    """First/second moment averages plus the running max of the second.

    One step is

        m <- beta1 * m + (1-beta1) * g
        v <- beta2 * v + (1-beta2) * (g * g)
        vhat <- max(v, vhat)
        x <- x - eta * (m / max(sqrt(vhat), VHAT_FLOOR))

    The running max never decreases, so the effective per-coordinate step
    scale never grows.
    """

    def __init__(self, dim: int, beta1: float = 0.9, beta2: float = 0.999):
        if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.vhat = np.zeros(dim)
        self.beta1 = beta1
        self.beta2 = beta2
        self._blocks = blocks(dim, np.empty(min(dim, BLOCK)))

    def step(self, x: np.ndarray, g: np.ndarray, eta: float) -> None:
        beta1, beta2, c1, c2 = self.beta1, self.beta2, 1.0 - self.beta1, 1.0 - self.beta2
        for s, w in self._blocks:  # scalar products commuted: same bits
            m, v, vhat, xs, gs = self.m[s], self.v[s], self.vhat[s], x[s], g[s]
            m *= beta1
            np.multiply(gs, c1, out=w)
            m += w
            v *= beta2
            np.multiply(gs, gs, out=w)
            w *= c2
            v += w
            np.maximum(v, vhat, out=vhat)
            np.sqrt(vhat, out=w)
            np.maximum(w, VHAT_FLOOR, out=w)
            np.divide(m, w, out=w)
            w *= eta
            xs -= w


def accsgd_coefficients(kappa: float, xi: float) -> tuple[float, float, float]:
    """(alpha, a, b) derived from the long-step and advantage parameters.

    alpha = 1 - 0.49 xi / kappa, a = kappa / 0.7, b = (1-alpha)/(0.7+(1-alpha)).
    """
    if kappa < 1.0:
        raise ValueError("kappa must be at least 1")
    if not 0.0 < xi <= np.sqrt(kappa):
        raise ValueError("xi must lie in (0, sqrt(kappa)]")
    alpha = 1.0 - 0.7 * 0.7 * xi / kappa
    a = kappa / 0.7
    b = (1.0 - alpha) / (0.7 + (1.0 - alpha))
    return alpha, a, b


class AccsgdState:
    """Momentum buffer and mixing coefficients for the accelerated update.

    The two-line recursion is

        m <- alpha * m + (1-alpha) * (x - a * eta * g)
        x <- (1-b) * (x - eta * g) + b * m

    The run loop starts m at the group's x0, so a zero gradient is a true
    fixed point.
    """

    def __init__(self, m: np.ndarray, alpha: float, a: float, b: float):
        self.m = np.array(m, dtype=np.float64, copy=True)
        self.alpha = alpha
        self.a = a
        self.b = b
        self._blocks = blocks(self.m.size, np.empty(min(self.m.size, BLOCK)))

    def step(self, x: np.ndarray, g: np.ndarray, eta: float) -> None:
        alpha, b, a_eta = self.alpha, self.b, self.a * eta
        c_alpha, c_b = 1.0 - alpha, 1.0 - b
        for s, w in self._blocks:  # scalar products commuted: same bits
            m, xs, gs = self.m[s], x[s], g[s]
            m *= alpha
            np.multiply(gs, a_eta, out=w)
            np.subtract(xs, w, out=w)
            w *= c_alpha
            m += w
            np.multiply(gs, eta, out=w)
            xs -= w
            xs *= c_b
            np.multiply(m, b, out=w)
            xs += w


class FixedRate:
    """A fixed step size, damped to eta / sqrt(t) under the "sqrt_t"
    decay; reports a single rate group."""

    groups = WHOLE

    def __init__(self, eta: float, decay: str = "constant"):
        if not np.isfinite(eta) or eta <= 0.0:
            raise ValueError("fixed step size must be positive and finite")
        if decay not in DECAY_MODES:
            raise ValueError(f"decay must be one of {DECAY_MODES}")
        self.eta = float(eta)
        self.decay = decay

    def rates(self, t, x, g):
        if self.decay == "sqrt_t":
            return [(self.eta / math.sqrt(t), None)]
        return [(self.eta, None)]


class PlsRate:
    """Step sizes from per-group smoothness prediction (``smoothness``).

    Holds one (prev_x, prev_g) history per parameter group (a single
    full-range group is the global mode), None before the first call,
    which has nothing to difference and returns the bootstrap pair
    (eta0, 0.0), not eta0/eps2, which could be orders of magnitude larger.
    Under "sqrt_t" later rates are damped by the run loop's step t.

    A history copies the group's iterate but keeps the float64 gradient
    slice it was handed, which the next call overwrites with the
    difference: a caller hands a fresh gradient to every call.
    """

    def __init__(self, groups: list[tuple[int, int]], eta0: float, eps1: float, eps2: float,
                 decay: str = "constant"):
        if not np.isfinite(eta0) or eta0 <= 0.0:
            raise ValueError("base step size must be positive and finite")
        if eps1 <= 0.0 or eps2 <= 0.0:
            raise ValueError("eps1 and eps2 must be positive")
        if decay not in DECAY_MODES:
            raise ValueError(f"decay must be one of {DECAY_MODES}")
        self.groups = list(groups)
        self.eta0 = float(eta0)
        self.eps1 = float(eps1)
        self.eps2 = float(eps2)
        self.decay = decay
        self.history: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(self.groups)

    def rates(self, t, x, g):
        out = []
        for k, (lo, hi) in enumerate(self.groups):
            xs, gs = x[lo:hi], g[lo:hi]
            if xs.shape != gs.shape:
                raise ValueError("iterate and gradient must have the same shape")
            if self.history[k] is None:
                if not np.all(np.isfinite(gs)):
                    raise DivergenceError(BAD_GRADIENT)
                self.history[k] = (np.array(xs, dtype=np.float64), gs)
                out.append((self.eta0, 0.0))
                continue
            prev_x, prev_g = self.history[k]
            if xs.shape != prev_x.shape:
                raise ValueError(f"group {k} has {xs.size} entries, its history {prev_x.size}")
            l_hat = predict(prev_x, prev_g, xs, gs, self.eps1)
            self.history[k] = (prev_x, gs)
            eta = self.eta0 / (l_hat + self.eps2)
            if self.decay == "sqrt_t":
                eta /= math.sqrt(t)
            out.append((eta, l_hat))
        return out


@dataclass
class TrainRecord:
    """One log row: losses and per-group rates and smoothness."""

    iter: int
    train_loss: float
    test_loss: float | None
    etas: tuple[float, ...] | None
    l_hats: tuple[float | None, ...] | None
    diverged: bool


def run_optimizer(
    obj,
    algorithm: str,
    rate_source,
    *,
    steps: int,
    seed: int,
    x0: np.ndarray,
    batch_size: int = 100,
    beta1: float = 0.9,
    beta2: float = 0.999,
    kappa: float = 1000.0,
    xi: float = 10.0,
    test_fn=None,
    test_every: int = 50,
    emit=lambda record: None,
) -> TrainRecord:
    """Run one optimizer for ``steps`` iterations and return the last record.

    Each iteration's ``TrainRecord`` is handed to ``emit`` as soon as it
    exists, the initial evaluation (iteration 0) first; by default the
    records are dropped.

    Each rate group of ``rate_source`` gets its own update state; every
    step applies the group's scalar step size in place to its slice of
    the iterate. Batches of ``batch_size`` indices are sampled IID per
    draw from the run seed's batch substream; a batch size of at least n
    means the exact full-sum gradient, on the batch None (every sample,
    read in place). The run halts early (without raising) when the batch
    loss exceeds LOSS_CAP or anything becomes non-finite; the last record
    carries the diverged flag. Identical (config, seed) pairs produce
    identical trajectories.

    ``x0`` is the iterate: a writable 1-D float64 array of ``obj.d``
    entries, which the run trains in place (anything else is refused), so
    afterwards it holds the last iterate (after a divergence found in the
    iterate, that non-finite iterate) and a caller that needs the starting
    point hands over a copy. Each step's gradient is a fresh array,
    handed to the rate source once: it may keep and overwrite it
    (``PlsRate``).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch size must be positive")

    if not isinstance(x0, np.ndarray) or x0.dtype != np.float64:
        got = f"{x0.dtype} array" if isinstance(x0, np.ndarray) else type(x0).__name__
        raise ValueError(f"x0 must be a float64 array, got {got}")
    if x0.shape != (obj.d,):
        raise ValueError(f"x0 must have shape ({obj.d},), got {x0.shape}")
    if not x0.flags.writeable:
        raise ValueError("x0 must be writable: the run trains it in place")

    x = x0
    slices = [slice(lo, hi) for lo, hi in rate_source.groups]
    if algorithm == "sgd":
        updates = [sgd_step] * len(slices)
    elif algorithm == "amsgrad":
        updates = [AmsgradState(x[s].size, beta1, beta2).step for s in slices]
    else:
        coefficients = accsgd_coefficients(kappa, xi)
        updates = [AccsgdState(x[s], *coefficients).step for s in slices]

    batch_rng = SeededRng(seed).spawn(BATCH_STREAM)

    def maybe_test(x_now, t):
        if test_fn is None or t % test_every != 0:
            return None
        return float(test_fn(x_now))

    last = TrainRecord(0, obj.full_value(x), maybe_test(x, 0), None, None, False)
    emit(last)
    for t in range(1, steps + 1):
        batch = None if batch_size >= obj.n else batch_rng.index_array(batch_size, obj.n)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, g = obj.value_and_grad(x, batch)
        if not np.isfinite(loss) or loss > LOSS_CAP or not np.all(np.isfinite(g)):
            last = TrainRecord(t, float(loss), None, None, None, True)
        else:
            group_rates = rate_source.rates(t, x, g)
            etas = tuple(eta for eta, _ in group_rates)
            l_hats = tuple(l for _, l in group_rates)
            with np.errstate(over="ignore", invalid="ignore"):
                for update, s, eta in zip(updates, slices, etas):
                    update(x[s], g[s], eta)
            diverged = not np.all(np.isfinite(x))
            test_loss = None if diverged else maybe_test(x, t)
            last = TrainRecord(t, float(loss), test_loss, etas, l_hats, diverged)
        emit(last)
        if last.diverged:
            break
    return last
