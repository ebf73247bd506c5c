"""Optimizer step rules and the experiment run loop.

Three base updates (plain descent, max-normalized adaptive moments,
accelerated momentum) share one loop; the adaptive-smoothness variants are
the same updates driven by a different step-size source. Each iteration
follows the same line order: sample batch, gradient, smoothness
prediction, step size, moment updates, parameter update. Every update
takes one scalar step size and advances one rate group's slice of the
iterate in place. The adaptive-moment and accelerated updates run block
by block (``linalg.blocks``) through one workspace per update state, with
the operations and their order of the textbook expressions in their
docstrings, so they allocate nothing per step and give the same bits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .linalg import BLOCK, blocks
from .rng import SeededRng
from .smoothness import SmoothnessEstimator

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
    """x -= eta * g, in place."""
    x -= eta * g


class AmsgradState:
    """First/second moment averages plus the running max of the second.

    One step is

        m <- b1t * m + (1-b1t) * g
        v <- beta2 * v + (1-beta2) * (g * g)
        vhat <- max(v, vhat)
        x <- x - eta * (m / max(sqrt(vhat), VHAT_FLOOR))

    The running max never decreases, so the effective per-coordinate step
    scale never grows. beta1 may decay as beta1/t (schedule "over_t"); the
    constant schedule is the practical default.
    """

    def __init__(self, dim: int, beta1: float = 0.9, beta2: float = 0.999,
                 beta1_schedule: str = "constant"):
        if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if beta1_schedule not in ("constant", "over_t"):
            raise ValueError("beta1_schedule must be 'constant' or 'over_t'")
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.vhat = np.zeros(dim)
        self.beta1 = beta1
        self.beta2 = beta2
        self.beta1_schedule = beta1_schedule
        self.t = 0
        self._blocks = blocks(dim, np.empty(min(dim, BLOCK)))

    def step(self, x: np.ndarray, g: np.ndarray, eta: float) -> None:
        self.t += 1
        b1t = self.beta1 / self.t if self.beta1_schedule == "over_t" else self.beta1
        beta2, c1, c2 = self.beta2, 1.0 - b1t, 1.0 - self.beta2
        for s, w in self._blocks:  # scalar products commuted: same bits
            m, v, vhat, xs, gs = self.m[s], self.v[s], self.vhat[s], x[s], g[s]
            m *= b1t
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

    With m started at x, a zero gradient is a true fixed point; starting
    at zero instead is available for literal-fidelity comparisons.
    """

    def __init__(self, m: np.ndarray, alpha: float, a: float, b: float):
        self.m = np.array(m, dtype=np.float64, copy=True)
        self.alpha = alpha
        self.a = a
        self.b = b
        self._blocks = blocks(self.m.size, np.empty(min(self.m.size, BLOCK)))

    @classmethod
    def from_params(cls, kappa: float, xi: float, x0: np.ndarray,
                    m0: str = "x0") -> "AccsgdState":
        alpha, a, b = accsgd_coefficients(kappa, xi)
        if m0 == "x0":
            m = x0
        elif m0 == "zero":
            m = np.zeros_like(x0)
        else:
            raise ValueError("m0 must be 'x0' or 'zero'")
        return cls(m, alpha, a, b)

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
    """Constant step size; reports a single rate group."""

    groups = WHOLE

    def __init__(self, eta: float):
        if not np.isfinite(eta) or eta <= 0.0:
            raise ValueError("fixed step size must be positive and finite")
        self.eta = float(eta)

    def rates(self, t, x, g):
        return [(self.eta, None)]


class FixedDecayRate:
    """eta0 / sqrt(t); reports a single rate group."""

    groups = WHOLE

    def __init__(self, eta0: float):
        if not np.isfinite(eta0) or eta0 <= 0.0:
            raise ValueError("base step size must be positive and finite")
        self.eta0 = float(eta0)

    def rates(self, t, x, g):
        return [(self.eta0 / np.sqrt(t), None)]


class PlsRate:
    """Step sizes from per-group smoothness prediction.

    One estimator per parameter group (pass a single full-range group for
    the global mode).
    """

    def __init__(
        self,
        groups: list[tuple[int, int]],
        eta0: float,
        eps1: float,
        eps2: float,
        decay: str = "constant",
        allow_negative_eta0: bool = False,
    ):
        if not np.isfinite(eta0):
            raise ValueError("base step size must be finite")
        if eta0 <= 0.0 and not allow_negative_eta0:
            raise ValueError(
                "base step size must be positive (negative rates are an "
                "explicit experimental mode)"
            )
        self.groups = list(groups)
        self.estimators = [SmoothnessEstimator(eps1, eps2, eta0, decay) for _ in self.groups]

    def rates(self, t, x, g):
        return [est.predict(x[lo:hi], g[lo:hi])
                for (lo, hi), est in zip(self.groups, self.estimators)]


@dataclass
class TrainRecord:
    """One log row: losses and per-group rates and smoothness."""

    iter: int
    train_loss: float
    test_loss: float | None
    etas: tuple[float, ...] | None
    l_hats: tuple[float | None, ...] | None
    diverged: bool


@dataclass
class RunResult:
    """The log of a run and where it ended.

    ``x_final`` is the last iterate; after a divergence found in the
    iterate it holds that non-finite iterate. ``wall_ms`` times the whole
    run, initial evaluation included.
    """

    records: list[TrainRecord]
    x_final: np.ndarray
    diverged_at: int | None
    wall_ms: float

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


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
    beta1_schedule: str = "constant",
    kappa: float = 1000.0,
    xi: float = 10.0,
    accsgd_m0: str = "x0",
    test_fn=None,
    test_every: int = 50,
) -> RunResult:
    """Run one optimizer for ``steps`` iterations and log every iteration.

    Each rate group of ``rate_source`` gets its own update state; every
    step applies the group's scalar step size in place to its slice of
    the iterate. Batches of ``batch_size`` indices are sampled IID per
    draw from the run seed's batch substream; a batch size of at least n
    means the exact full-sum gradient. The run halts early (without
    raising) when the batch loss exceeds LOSS_CAP or anything becomes
    non-finite; the last record carries the diverged flag. Identical
    (config, seed) pairs produce identical trajectories.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch size must be positive")

    x = np.array(x0, dtype=np.float64, copy=True)
    slices = [slice(lo, hi) for lo, hi in rate_source.groups]
    if algorithm == "sgd":
        updates = [sgd_step] * len(slices)
    elif algorithm == "amsgrad":
        updates = [AmsgradState(x[s].size, beta1, beta2, beta1_schedule).step for s in slices]
    else:
        updates = [AccsgdState.from_params(kappa, xi, x[s], m0=accsgd_m0).step for s in slices]

    batch_rng = SeededRng(seed).spawn(BATCH_STREAM)
    full_batch = np.arange(obj.n)
    t_start = time.perf_counter()

    def maybe_test(x_now, t):
        if test_fn is None or t % test_every != 0:
            return None
        return float(test_fn(x_now))

    records = [TrainRecord(0, obj.full_value(x), maybe_test(x, 0), None, None, False)]
    diverged_at = None

    for t in range(1, steps + 1):
        batch = full_batch if batch_size >= obj.n else batch_rng.index_array(batch_size, obj.n)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, g = obj.value_and_grad(x, batch)
        if not np.isfinite(loss) or loss > LOSS_CAP or not np.all(np.isfinite(g)):
            records.append(TrainRecord(t, float(loss), None, None, None, True))
            diverged_at = t
            break

        group_rates = rate_source.rates(t, x, g)
        etas = tuple(eta for eta, _ in group_rates)
        l_hats = tuple(l for _, l in group_rates)
        with np.errstate(over="ignore", invalid="ignore"):
            for update, s, eta in zip(updates, slices, etas):
                update(x[s], g[s], eta)
        if not np.all(np.isfinite(x)):
            records.append(TrainRecord(t, float(loss), None, etas, l_hats, True))
            diverged_at = t
            break

        records.append(TrainRecord(t, float(loss), maybe_test(x, t), etas, l_hats, False))

    wall_ms = (time.perf_counter() - t_start) * 1e3
    return RunResult(records, x, diverged_at, wall_ms)
