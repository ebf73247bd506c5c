"""Local-smoothness prediction from consecutive gradients.

A parameter group's local Lipschitz constant is predicted from its
previous iterate and gradient as

    L = ||g_t - g_{t-1}|| / (||x_t - x_{t-1}|| + eps1)

The step size is then eta0 / (L + eps2), optionally damped by 1/sqrt(t);
``optimizers.PlsRate`` holds each group's history and applies that rule.
eps1 guards the vanishing-displacement denominator, eps2 caps the rate at
eta0/eps2 when the predicted smoothness collapses to zero. It is plain
IEEE arithmetic: a difference that overflows reads as an infinite or nan
L, and the run loop's iterate check answers the rate it gives.
"""

from __future__ import annotations

import math

import numpy as np

DECAY_MODES = ("constant", "sqrt_t")


def predict(prev_x: np.ndarray, prev_g: np.ndarray, x: np.ndarray, g: np.ndarray,
            eps1: float) -> float:
    """The predicted smoothness at (x, g) of a group whose previous iterate
    and gradient are prev_x and prev_g.

    The differences are taken in place, so a prediction allocates
    nothing the size of the group: prev_g is left holding prev_g - g (the
    caller keeps g as the next prev_g), and prev_x a copy of x.
    """
    # prev - new is the negated difference: the same squares, so the
    # same norms as ||new - prev||, sqrt(dot) as np.linalg.norm takes it
    dg = np.subtract(prev_g, g, out=prev_g)
    dx = np.subtract(prev_x, x, out=prev_x)
    g_diff = math.sqrt(np.dot(dg, dg))
    x_diff = math.sqrt(np.dot(dx, dx))
    np.copyto(prev_x, x)
    return g_diff / (x_diff + eps1)
