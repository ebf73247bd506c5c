"""Local-smoothness prediction from consecutive gradients.

The estimator keeps the previous iterate and gradient of its parameter
group and predicts the local Lipschitz constant as

    L = ||g_t - g_{t-1}|| / (||x_t - x_{t-1}|| + eps1)

The step size is then eta0 / (L + eps2), optionally damped by 1/sqrt(t).
eps1 guards the vanishing-displacement denominator, eps2 caps the rate at
eta0/eps2 when the predicted smoothness collapses to zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError

DECAY_MODES = ("constant", "sqrt_t")

_BAD_GRADIENT = "non-finite gradient in smoothness update"


class SmoothnessEstimator:
    """Single-owner per-group state producing one (eta, l_hat) pair per update.

    The first call has no history to difference, so it records the state
    and returns the bootstrap pair (eta0, 0.0), not eta0/eps2, which could
    be orders of magnitude larger before any smoothness information exists.

    Later calls difference in place in the history buffers, so a
    prediction allocates nothing the size of the group; a DivergenceError
    leaves the history spent.
    """

    def __init__(
        self,
        eps1: float,
        eps2: float,
        eta0: float,
        decay: str = "constant",
    ):
        if eps1 <= 0.0 or eps2 <= 0.0:
            raise ValueError("eps1 and eps2 must be positive")
        if decay not in DECAY_MODES:
            raise ValueError(f"decay must be one of {DECAY_MODES}")
        self.eps1 = float(eps1)
        self.eps2 = float(eps2)
        self.eta0 = float(eta0)
        self.decay = decay
        self.t = 0
        self.prev_x: np.ndarray | None = None
        self.prev_g: np.ndarray | None = None

    def predict(self, x: np.ndarray, g: np.ndarray) -> tuple[float, float]:
        """(eta, l_hat) at (x, g): the step size by the module's rule and the
        predicted smoothness; stores (x, g) for the next call."""
        if x.shape != g.shape:
            raise ValueError("iterate and gradient must have the same shape")
        if self.prev_x is None:
            if not np.all(np.isfinite(g)):
                raise DivergenceError(_BAD_GRADIENT)
            self.t += 1
            self.prev_x = np.array(x, dtype=np.float64)
            self.prev_g = np.array(g, dtype=np.float64)
            return self.eta0, 0.0
        if x.shape != self.prev_x.shape:
            raise ValueError("dimension changed between updates")
        # prev - new is the negated difference: the same squares, so the
        # same norms as ||new - prev||, sqrt(dot) as np.linalg.norm takes it
        dg = np.subtract(self.prev_g, g, out=self.prev_g)
        dx = np.subtract(self.prev_x, x, out=self.prev_x)
        g_diff = math.sqrt(np.dot(dg, dg))
        x_diff = math.sqrt(np.dot(dx, dx))
        if not math.isfinite(g_diff + x_diff):
            # a finite sum of squares has finite entries; only an infinite
            # or nan sum needs the entries scanned
            if not np.all(np.isfinite(g)):
                raise DivergenceError(_BAD_GRADIENT)
            if not (np.all(np.isfinite(dg)) and np.all(np.isfinite(dx))):
                raise DivergenceError("non-finite entry in vector")
        self.t += 1
        l_hat = g_diff / (x_diff + self.eps1)
        np.copyto(self.prev_x, x)
        np.copyto(self.prev_g, g)
        eta = self.eta0 / (l_hat + self.eps2)
        if self.decay == "sqrt_t":
            eta /= math.sqrt(self.t)
        return eta, l_hat
