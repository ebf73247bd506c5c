"""Oracles and reference code that the tests share and the library does not need.

The reference updates and estimator are the library's earlier whole-array
expressions; the library's blocked, in-place versions must match them bit
for bit.
"""

import numpy as np

from pls_lab.errors import DivergenceError
from pls_lab.optimizers import VHAT_FLOOR, run_optimizer
from pls_lab.smoothness import SmoothnessEstimator, SmoothnessReading, adaptive_rate


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm. Raises DivergenceError on any non-finite entry."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("l2_norm of an empty vector")
    if not np.all(np.isfinite(v)):
        raise DivergenceError("non-finite entry in vector")
    return float(np.sqrt(np.dot(v, v)))


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


class ReferenceEstimator(SmoothnessEstimator):
    """The estimator with fresh differences and a finiteness scan of the
    gradient and of each difference on every call."""

    def predict(self, x, g):
        if x.shape != g.shape:
            raise ValueError("iterate and gradient must have the same shape")
        if self.prev_x is not None and x.shape != self.prev_x.shape:
            raise ValueError("dimension changed between updates")
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient in smoothness update")
        self.t += 1
        if self.prev_x is None:
            self.prev_x = x.copy()
            self.prev_g = g.copy()
            return SmoothnessReading(0.0, self.eta0)
        g_diff = l2_norm(g - self.prev_g)
        x_diff = l2_norm(x - self.prev_x)
        l_hat = g_diff / (x_diff + self.eps1)
        self.prev_x = x.copy()
        self.prev_g = g.copy()
        eta = adaptive_rate(l_hat, self.eta0, self.eps2, self.decay, self.t)
        return SmoothnessReading(l_hat, eta)


def run_with_iterates(obj, algorithm, rate_source, **kwargs):
    """A run and its iterates x_0, x_1, ... as rows: the run hands each
    iterate to its test function when it tests at every step."""
    seen = []

    def record(x):
        seen.append(x.copy())
        return 0.0

    res = run_optimizer(obj, algorithm, rate_source, test_fn=record, test_every=1, **kwargs)
    return res, np.array(seen)
