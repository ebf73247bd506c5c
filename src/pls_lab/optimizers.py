"""Optimizer step rules and the experiment run loop.

Three base updates (plain descent, max-normalized adaptive moments,
accelerated momentum) share one loop; the adaptive-smoothness variants are
the same updates driven by a different step-size source. Each iteration
follows the same line order: sample batch, gradient, smoothness
prediction, step size, moment updates, parameter update.

A step size may be a scalar or a per-coordinate vector (one value per
parameter group, expanded to coordinates), so per-layer rates reuse the
same code path as global ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
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


def sgd_step(x: np.ndarray, g: np.ndarray, eta) -> np.ndarray:
    """x - eta * g. eta may be a scalar or per-coordinate vector."""
    with np.errstate(over="ignore", invalid="ignore"):
        x_new = x - eta * g
    if not np.all(np.isfinite(x_new)):
        raise DivergenceError("non-finite iterate after descent step")
    return x_new


class AmsgradState:
    """First/second moment averages plus the running max of the second.

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

    def step(self, x: np.ndarray, g: np.ndarray, eta) -> np.ndarray:
        self.t += 1
        b1t = self.beta1 / self.t if self.beta1_schedule == "over_t" else self.beta1
        with np.errstate(over="ignore", invalid="ignore"):
            self.m *= b1t
            self.m += (1.0 - b1t) * g
            self.v *= self.beta2
            self.v += (1.0 - self.beta2) * (g * g)
            np.maximum(self.v, self.vhat, out=self.vhat)
            denom = np.sqrt(self.vhat)
            np.maximum(denom, VHAT_FLOOR, out=denom)
            x_new = x - eta * (self.m / denom)
        if not np.all(np.isfinite(x_new)):
            raise DivergenceError("non-finite iterate after adaptive-moment step")
        return x_new


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

    def step(self, x: np.ndarray, g: np.ndarray, eta) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            self.m *= self.alpha
            self.m += (1.0 - self.alpha) * (x - (self.a * eta) * g)
            x_new = (1.0 - self.b) * (x - eta * g) + self.b * self.m
        if not np.all(np.isfinite(x_new)):
            raise DivergenceError("non-finite iterate after accelerated step")
        return x_new


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
        self.eta0 = float(eta0)
        self.estimators = [SmoothnessEstimator(eps1, eps2, eta0, decay) for _ in self.groups]

    def rates(self, t, x, g):
        out = []
        for (lo, hi), est in zip(self.groups, self.estimators):
            reading = est.predict(x[lo:hi], g[lo:hi])
            out.append((reading.eta, reading.l_hat))
        return out


@dataclass
class TrainRecord:
    """One log row: losses, per-group rates and smoothness, wall time."""

    iter: int
    train_loss: float
    test_loss: float | None
    etas: tuple[float, ...] | None
    l_hats: tuple[float | None, ...] | None
    wall_ms: float
    diverged: bool


@dataclass
class RunResult:
    records: list[TrainRecord]
    x_final: np.ndarray
    diverged_at: int | None
    trajectory: list[np.ndarray] | None = field(default=None)

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


def _expand_rates(groups, etas, dim):
    if len(etas) == 1:
        return etas[0]
    eta_vec = np.empty(dim)
    for (lo, hi), eta in zip(groups, etas):
        eta_vec[lo:hi] = eta
    return eta_vec


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
    keep_trajectory: bool = False,
) -> RunResult:
    """Run one optimizer for ``steps`` iterations and log every iteration.

    Batches of ``batch_size`` indices are sampled IID per draw from the
    run seed's batch substream; a batch size of at least n means the exact
    full-sum gradient. The run halts early (without raising) when the
    batch loss exceeds LOSS_CAP or anything becomes non-finite; the last
    record carries the diverged flag. Identical (config, seed) pairs
    produce identical trajectories.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch size must be positive")

    x = np.array(x0, dtype=np.float64, copy=True)
    dim = x.size
    state = None
    if algorithm == "amsgrad":
        state = AmsgradState(dim, beta1, beta2, beta1_schedule)
    elif algorithm == "accsgd":
        state = AccsgdState.from_params(kappa, xi, x, m0=accsgd_m0)

    batch_rng = SeededRng(seed).spawn(BATCH_STREAM)
    full_batch = np.arange(obj.n)
    t_start = time.perf_counter()

    def elapsed_ms():
        return (time.perf_counter() - t_start) * 1e3

    def maybe_test(x_now, t):
        if test_fn is None or t % test_every != 0:
            return None
        return float(test_fn(x_now))

    records = [
        TrainRecord(0, obj.full_value(x), maybe_test(x, 0), None, None,
                    elapsed_ms(), False)
    ]
    trajectory = [x.copy()] if keep_trajectory else None
    diverged_at = None

    for t in range(1, steps + 1):
        batch = full_batch if batch_size >= obj.n else batch_rng.index_array(batch_size, obj.n)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, g = obj.value_and_grad(x, batch)
        if not np.isfinite(loss) or loss > LOSS_CAP or not np.all(np.isfinite(g)):
            records.append(
                TrainRecord(t, float(loss), None, None, None, elapsed_ms(), True)
            )
            diverged_at = t
            break

        group_rates = rate_source.rates(t, x, g)
        etas = tuple(eta for eta, _ in group_rates)
        l_hats = tuple(l for _, l in group_rates)
        eta = _expand_rates(rate_source.groups, etas, dim)

        try:
            if algorithm == "sgd":
                x = sgd_step(x, g, eta)
            else:
                x = state.step(x, g, eta)
        except DivergenceError:
            records.append(
                TrainRecord(t, float(loss), None, etas, l_hats, elapsed_ms(), True)
            )
            diverged_at = t
            break

        if keep_trajectory:
            trajectory.append(x.copy())
        records.append(
            TrainRecord(t, float(loss), maybe_test(x, t), etas, l_hats,
                        elapsed_ms(), False)
        )

    return RunResult(records, x, diverged_at, trajectory)
