"""Dense numeric kernel: blocked passes, 2x2 eigenvalues, and contraction
certificates.

Apart from the block plan of long elementwise passes, everything here is
exact closed-form linear algebra on 2x2 matrices; the only iterative
machinery in the package lives in the optimizers. All functions are pure
and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, SingularSystemError

# Positive-definiteness margin for leading principal minors. Exact for 2x2.
# Certificates are tested at a rate below 1, where they are at least I.
PD_TOL = 1e-12
# A certificate solved at a rate rho >= 1 is scaled back by at most
# 4**_MAX_UNSCALE, so its entries stay above 2**-500 and their products
# in the normal range.
_MAX_UNSCALE = 250


# Elements per piece of a blocked elementwise pass: at 256 KB per float64
# operand, the six operands of an adaptive-moment update fit in a 2 MB L2
# cache, so each is read from memory once per pass instead of once per
# operation.
BLOCK = 1 << 15


def blocks(n: int, work: np.ndarray) -> list[tuple[slice, np.ndarray]]:
    """Cover range(n) with slices of at most ``work.size`` elements, each
    paired with the view of ``work`` that has its length.

    A pass over long arrays then runs its operations piece by piece with
    ``out=`` into the workspace, so it allocates nothing and touches each
    piece while it is in cache.
    """
    k = max(work.size, 1)
    return [(slice(lo, lo + k), work[:min(k, n - lo)]) for lo in range(0, n, k)]


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

    For rho >= 1 the system is solved at the rate rho / 2**e < 1, with M
    divided by the same power of two: that division is exact, rho^2
    cannot overflow, and the solution 4**e P is tested against PD_TOL,
    the margin the entries of P (about 1/rho^2) would fall under. P is
    then scaled back exactly; for rho beyond 2**250 only by
    4**_MAX_UNSCALE, so the P returned there solves the equation with
    right-hand side -4**(e - _MAX_UNSCALE) I, the same certificate up to
    a positive factor.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not m.is_finite():
        raise DivergenceError("non-finite matrix entry")
    e = max(math.frexp(rho)[1], 0)
    s = math.ldexp(1.0, -e)
    m11, m12, m21, m22, r = m.a11 * s, m.a12 * s, m.a21 * s, m.a22 * s, rho * s
    r2 = r * r
    a = np.array(
        [
            [m11 * m11 - r2, 2.0 * m11 * m21, m21 * m21],
            [m11 * m12, m11 * m22 + m12 * m21 - r2, m21 * m22],
            [m12 * m12, 2.0 * m12 * m22, m22 * m22 - r2],
        ],
        dtype=np.float64,
    )
    b = np.array([-1.0, 0.0, -1.0], dtype=np.float64)
    try:
        q11, q12, q22 = np.linalg.solve(a, b).tolist()
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"certificate solve is singular at rho={rho!r}"
        ) from exc
    if not (q11 > PD_TOL and q11 * q22 - q12 * q12 > PD_TOL):
        return None
    k = -2 * min(e, _MAX_UNSCALE)
    p12 = math.ldexp(q12, k)
    return Matrix2(math.ldexp(q11, k), p12, p12, math.ldexp(q22, k))


def cond2(p: Matrix2) -> float:
    """Condition number of a symmetric positive definite 2x2 matrix.

    For symmetric PD input this is the ratio of its two (real, positive)
    eigenvalues. Where ``half_tr - gap`` cancels to no positive value on an
    ill-conditioned P, the smaller one is taken as det / lam_max.
    """
    if abs(p.a12 - p.a21) > 1e-12 * max(1.0, abs(p.a12), abs(p.a21)):
        raise ValueError("cond2 requires a symmetric matrix")
    if not (p.a11 > 0.0 and p.det() > 0.0):
        raise ValueError("cond2 requires a positive definite matrix")
    half_tr = 0.5 * (p.a11 + p.a22)
    # eigenvalues of [[p11, q], [q, p22]]
    try:
        gap = math.sqrt(0.25 * (p.a11 - p.a22) ** 2 + p.a12 * p.a21)
    except OverflowError:  # the float power overflows where a product would give inf
        return math.inf
    lam_max = half_tr + gap
    lam_min = half_tr - gap
    if lam_min <= 0.0:
        lam_min = p.det() / lam_max
    return lam_max / lam_min if lam_min > 0.0 else math.inf  # det / lam_max underflowed

