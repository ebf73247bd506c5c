"""Dense numeric kernel: norms, 2x2 eigenvalues, and contraction certificates.

Everything here is exact closed-form linear algebra on 2x2 matrices; the
only iterative machinery in the package lives in the optimizers. All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, SingularSystemError

# Positive-definiteness margin for leading principal minors. Exact for 2x2.
PD_TOL = 1e-12


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm. Raises DivergenceError on any non-finite entry."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("l2_norm of an empty vector")
    if not np.all(np.isfinite(v)):
        raise DivergenceError("non-finite entry in vector")
    return float(np.sqrt(np.dot(v, v)))


@dataclass(frozen=True)
class Matrix2:
    """2x2 real matrix stored as four scalars."""

    a11: float
    a12: float
    a21: float
    a22: float

    def trace(self) -> float:
        return self.a11 + self.a22

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def is_finite(self) -> bool:
        return all(math.isfinite(x) for x in (self.a11, self.a12, self.a21, self.a22))

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=np.float64)


def eig2x2(m: Matrix2) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix, ordered by descending magnitude.

    Roots of lambda^2 - trace*lambda + det; a complex-conjugate pair when
    the discriminant is negative. The returned pair reproduces trace and
    determinant to float accuracy.
    """
    if not m.is_finite():
        raise DivergenceError("non-finite matrix entry")
    tr = m.trace()
    det = m.det()
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        lam1 = complex((tr + s) / 2.0)
        lam2 = complex((tr - s) / 2.0)
    else:
        s = math.sqrt(-disc)
        lam1 = complex(tr / 2.0, s / 2.0)
        lam2 = complex(tr / 2.0, -s / 2.0)
    if abs(lam2) > abs(lam1):
        lam1, lam2 = lam2, lam1
    return lam1, lam2


def spectral_radius2(m: Matrix2) -> float:
    """Largest eigenvalue magnitude."""
    lam1, _ = eig2x2(m)
    return abs(lam1)


def solve_discrete_lyapunov2(m: Matrix2, rho: float) -> Matrix2 | None:
    """Contraction certificate for ``z -> M z`` at rate ``rho``.

    Solves M^T P M - rho^2 P = -I for symmetric P (three unknowns) and
    returns P when it is positive definite, else None. A positive definite
    P exists iff spectral_radius2(M) < rho. Raises SingularSystemError when
    rho^2 coincides with a product of eigenvalues (the solve is then
    non-unique); that can only happen in the infeasible regime.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not m.is_finite():
        raise DivergenceError("non-finite matrix entry")
    r2 = rho * rho
    a = np.array(
        [
            [m.a11 * m.a11 - r2, 2.0 * m.a11 * m.a21, m.a21 * m.a21],
            [m.a11 * m.a12, m.a11 * m.a22 + m.a12 * m.a21 - r2, m.a21 * m.a22],
            [m.a12 * m.a12, 2.0 * m.a12 * m.a22, m.a22 * m.a22 - r2],
        ],
        dtype=np.float64,
    )
    b = np.array([-1.0, 0.0, -1.0], dtype=np.float64)
    try:
        p11, p12, p22 = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"certificate solve is singular at rho={rho!r}"
        ) from exc
    p = Matrix2(float(p11), float(p12), float(p12), float(p22))
    if p.a11 > PD_TOL and p.det() > PD_TOL:
        return p
    return None


def cond2(p: Matrix2) -> float:
    """Condition number of a symmetric positive definite 2x2 matrix.

    For symmetric PD input this is the ratio of its two (real, positive)
    eigenvalues.
    """
    if abs(p.a12 - p.a21) > 1e-12 * max(1.0, abs(p.a12), abs(p.a21)):
        raise ValueError("cond2 requires a symmetric matrix")
    if not (p.a11 > 0.0 and p.det() > 0.0):
        raise ValueError("cond2 requires a positive definite matrix")
    half_tr = 0.5 * (p.a11 + p.a22)
    # eigenvalues of [[p11, q], [q, p22]]
    gap = math.sqrt(0.25 * (p.a11 - p.a22) ** 2 + p.a12 * p.a21)
    lam_max = half_tr + gap
    lam_min = half_tr - gap
    if lam_min <= 0.0:
        raise ValueError("cond2 requires a positive definite matrix")
    return lam_max / lam_min

