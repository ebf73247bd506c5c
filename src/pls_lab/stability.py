"""Linearized update systems and their contraction certificates.

Replacing the gradient by L * (x - x*) turns each optimizer into a
time-varying linear system: a scalar factor for plain descent, and 2x2
state matrices for the adaptive-moment and accelerated updates. This
module builds those systems, derives the step-size windows inside which
they contract at a given rate rho, certifies contraction two independent
ways (discrete Lyapunov solve and spectral radius), and simulates the
systems to check the decay envelope numerically; plain descent is
simulated as the 2x2 system diag(1 - eta*L, 0). ``analyze`` puts these
together into the report that ``pls-lab stability`` prints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import finite_or_none
from .errors import ConsistencyError, SingularSystemError
from .linalg import Matrix2, cond2, eig2x2, solve_discrete_lyapunov2, spectral_radius2
from .optimizers import accsgd_coefficients

# Verdicts from the certificate and eigenvalue routes must agree except
# within this band of the rate boundary.
AGREEMENT_TOL = 1e-9


# --- plain descent: the error contracts by the scalar factor 1 - eta*L ---


def sgd_factor(eta: float, L: float) -> float:
    """Per-step multiplier of the distance to the equilibrium."""
    return 1.0 - eta * L


def sgd_rate_window(L: float, rho: float) -> tuple[float, float]:
    """Closed step-size window [(1-rho)/L, 1/L] for contraction at rate rho.

    Inside it the factor lies in [0, rho]. The window is one-sided: step
    sizes just above 1/L give a small negative factor that still
    contracts, but fall outside this window.
    """
    if L <= 0.0:
        raise ValueError("L must be positive")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    return (1.0 - rho) / L, 1.0 / L


# --- adaptive moments: state (m, x - x*) evolves by a 2x2 matrix ---


def amsgrad_system(beta1: float, eta: float, L: float, sqrt_vhat: float) -> Matrix2:
    """State matrix of the moment-normalized update at one instant."""
    if sqrt_vhat <= 0.0:
        raise ValueError("sqrt_vhat must be positive")
    return Matrix2(
        beta1,
        (1.0 - beta1) * L,
        -eta * beta1 / sqrt_vhat,
        1.0 - (1.0 - beta1) * eta * L / sqrt_vhat,
    )


def amsgrad_discriminant(beta1: float, eta: float, L: float, sqrt_vhat: float) -> float:
    """Discriminant of the state matrix's characteristic polynomial.

    The polynomial is
    lambda^2 - (1 + beta1 - (1-beta1)*eta*L/sqrt_vhat) * lambda + beta1;
    negative discriminant means a conjugate pair of magnitude sqrt(beta1).
    """
    s = 1.0 + beta1 - (1.0 - beta1) * eta * L / sqrt_vhat
    return s * s - 4.0 * beta1


def amsgrad_rate_window(beta1: float, sqrt_vhat: float, L: float) -> tuple[float, float]:
    """Open step-size window inside which both eigenvalues have magnitude
    sqrt(beta1).

    Bounds are ((1 -+ sqrt(beta1)) / (1 +- sqrt(beta1))) * sqrt_vhat / L.
    """
    if not 0.0 < beta1 < 1.0:
        raise ValueError("beta1 must lie strictly in (0, 1)")
    if sqrt_vhat <= 0.0 or L <= 0.0:
        raise ValueError("sqrt_vhat and L must be positive")
    s = math.sqrt(beta1)
    scale = sqrt_vhat / L
    lo = (1.0 - s) / (1.0 + s) * scale
    hi = (1.0 + s) / (1.0 - s) * scale
    return lo, hi


# --- accelerated momentum: state (m - x*, x - x*) evolves by a 2x2 matrix ---


def accsgd_system(kappa: float, xi: float, eta: float, L: float) -> Matrix2:
    """State matrix of the accelerated update at one instant."""
    alpha, a, b = accsgd_coefficients(kappa, xi)
    top_right = (1.0 - alpha) * (1.0 - a * eta * L)
    return Matrix2(
        alpha,
        top_right,
        b * alpha,
        (1.0 - b) * (1.0 - eta * L) + b * top_right,
    )


def accsgd_nominal_eigenvalues(
    kappa: float, xi: float, eta: float, L: float
) -> tuple[float, float]:
    """The pair (alpha, (1-b)(1 - eta*L)) that the rate window is built on.

    Its product equals det of the state matrix exactly, but it is NOT the
    true spectrum: the triangular form it reads off comes from a row
    operation, which is not a similarity, and the trace differs by
    b*(1-alpha)*(1-a*eta*L). Use eig2x2/spectral_radius2 on the state
    matrix for the actual contraction rate.
    """
    alpha, _, b = accsgd_coefficients(kappa, xi)
    return alpha, (1.0 - b) * (1.0 - eta * L)


def accsgd_rate_window(kappa: float, xi: float, L: float, rho: float) -> tuple[float, float]:
    """Open step-size window ((1 - rho*(kappa+0.7*xi)/kappa)/L, 1/L).

    Inside it the second nominal value (1-b)(1-eta*L) lies in (0, rho).
    The lower bound can be negative: when rho exceeds kappa/(kappa+0.7*xi)
    even a (slightly) negative step keeps that value below rho.
    """
    if L <= 0.0:
        raise ValueError("L must be positive")
    accsgd_coefficients(kappa, xi)  # validates the parameter ranges
    lo = (1.0 - rho * (kappa + 0.7 * xi) / kappa) / L
    hi = 1.0 / L
    return lo, hi


@dataclass
class AccsgdVerdict:
    """Outcome of the two-clause check for the accelerated system."""

    stable: bool
    alpha_ok: bool  # 0 < alpha < rho
    eta_window: tuple[float, float]
    eta_in_window: bool
    nominal_eigenvalues: tuple[float, float]


def accsgd_stability(
    kappa: float, xi: float, eta: float, L: float, rho: float
) -> AccsgdVerdict:
    """Check both clauses: alpha below rho, and eta inside the open window.

    Together they are equivalent to both nominal values lying strictly
    inside (0, rho). Because the nominal pair is not the true spectrum of
    the state matrix, this verdict can disagree with lyapunov_verdict near
    the boundaries; the latter is the ground truth.
    """
    alpha, _, _ = accsgd_coefficients(kappa, xi)
    window = accsgd_rate_window(kappa, xi, L, rho)
    alpha_ok = 0.0 < alpha < rho
    eta_in = window[0] < eta < window[1]
    return AccsgdVerdict(
        stable=alpha_ok and eta_in,
        alpha_ok=alpha_ok,
        eta_window=window,
        eta_in_window=eta_in,
        nominal_eigenvalues=accsgd_nominal_eigenvalues(kappa, xi, eta, L),
    )


# --- certificates and simulation ---


@dataclass
class StabilityVerdict:
    """Certificate outcome for one 2x2 system at one rate."""

    stable: bool
    spectral_radius: float
    lyapunov_p: Matrix2 | None
    cond_p: float | None


def lyapunov_verdict(m: Matrix2, rho: float) -> StabilityVerdict:
    """Certify contraction at rate rho via the discrete Lyapunov solve.

    The verdict is the certificate's feasibility; it is cross-checked
    against the spectral radius and a disagreement farther than
    AGREEMENT_TOL from the boundary raises ConsistencyError (the two
    routes are equivalent for 2x2 systems).
    """
    sr = spectral_radius2(m)
    boundary = abs(sr - rho) <= AGREEMENT_TOL
    try:
        p = solve_discrete_lyapunov2(m, rho)
    except SingularSystemError:
        # resonance can only happen when the system is not contracting
        if sr < rho - AGREEMENT_TOL:
            raise ConsistencyError(
                f"singular certificate solve with spectral radius {sr} < rho {rho}"
            )
        p = None
    feasible = p is not None
    if feasible != (sr < rho) and not boundary:
        raise ConsistencyError(
            f"certificate feasibility {feasible} contradicts spectral radius "
            f"{sr} vs rho {rho}"
        )
    return StabilityVerdict(
        stable=feasible,
        spectral_radius=sr,
        lyapunov_p=p,
        cond_p=cond2(p) if feasible else None,
    )


@dataclass
class DecayReport:
    """Envelope statistics of a simulated trajectory against rho^t decay."""

    max_ratio: float  # max over t of ||z_t|| / (rho^t ||z_0||)
    bound: float | None  # sqrt(cond(P)) when a certificate was supplied
    within_bound: bool | None
    overflowed: bool


_TINY = 1e-300  # below this norm a simulated state is carried at unit norm
_HUGE = 1e150  # beyond this norm a simulated trajectory has overflowed
_LOG_HUGE = math.log(_HUGE)
_MIN_NORMAL = sys.float_info.min
_CHUNK = 256  # states per trajectory array: the 100-step default is one chunk


def _norm2(z: np.ndarray) -> float:
    """||z|| of a 2-vector: sqrt(z.z), what np.linalg.norm computes, unless
    the square is below the normal range (a norm below about 1.5e-154);
    then math.hypot, which does not square, so a tiny state keeps its norm."""
    sq = z.dot(z)
    return math.hypot(z[0], z[1]) if sq < _MIN_NORMAL else math.sqrt(sq)


class _Envelope:
    """Running max of ||z_t|| / (rho^t ||z_0||) along a simulated trajectory.

    Once the state's norm falls below 1e-300 the simulation divides the
    state by its norm each step and the log of the true norm is kept in
    ``shift``, so a decaying state never underflows. The ratio comes from
    logs while shifted or once rho^t ||z_0|| has underflowed to 0.
    """

    def __init__(self, rho: float, scale: float):
        self.rho, self.scale = rho, scale
        self.t, self.pow_rho, self.shift, self.max_ratio = 0, 1.0, 0.0, 1.0

    def observe(self, norm: float) -> float | None:
        """Take the next state's norm; return the divisor for the state, or
        None once the trajectory has overflowed."""
        self.t += 1
        self.pow_rho *= self.rho
        divisor = 1.0
        if norm > 0.0 and (self.shift or norm < _TINY):
            self.shift += math.log(norm)
            divisor, norm = norm, 1.0
        if not (norm <= _HUGE and self.shift <= _LOG_HUGE):  # also nan
            return None
        ratio = self._ratio(norm, self.t, self.pow_rho * self.scale)
        if ratio > self.max_ratio:
            self.max_ratio = ratio
        return divisor

    def observe_run(self, norms: np.ndarray) -> int | None:
        """Take the next states' norms as observe would, up to the first that
        needs rescaling; return how many were taken, or None on an overflow."""
        stop = ~(norms <= _HUGE) | ((norms > 0.0) & (norms < _TINY))  # also nan
        taken = int(stop.argmax()) if stop.any() else norms.size
        pows = np.full(taken + 1, self.rho, np.float64)
        pows[0] = self.pow_rho
        np.multiply.accumulate(pows, out=pows)  # rho^t by the same products
        dens = pows[1:] * self.scale
        ratios = norms[:taken] / dens
        for i in np.flatnonzero(~(dens > 0.0)).tolist():  # the log path of _ratio
            ratios[i] = self._ratio(norms[i], self.t + i + 1, dens[i])
        if taken < norms.size and not norms[taken] < _TINY:
            return None
        self.t, self.pow_rho = self.t + taken, float(pows[-1])
        self.max_ratio = float(np.fmax.reduce(ratios, initial=self.max_ratio))  # skips nan
        return taken

    def _ratio(self, norm: float, t: int, den: float) -> float:
        if den > 0.0 and not self.shift:
            return norm / den
        if norm == 0.0:
            return 0.0
        try:
            return math.exp(math.log(norm) + self.shift - t * math.log(self.rho)
                            - math.log(self.scale))
        except OverflowError:
            return math.inf


def _simulate_matrix(env: _Envelope, a: np.ndarray, z: np.ndarray, steps: int) -> bool:
    """Feed env the norms of z_t = a z_{t-1}, t = 1..steps; False on an overflow.
    Chunks of states take the dgemv of ``a @ z`` and the ddot of ``z.dot(z)``
    and are observed in array passes; for a diagonal ``a`` a chunk is running
    products, the bits of that dgemv up to the first non-finite state, whose
    norm ends the observation. From the first state to rescale on, the states
    are stepped and observed one at a time."""
    diag = a.diagonal() if a[0, 1] == 0.0 and a[1, 0] == 0.0 else None
    done = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while done < steps:
            traj, start = np.empty((min(_CHUNK, steps - done), 2)), z
            if diag is None:
                for row in list(traj):
                    z = a.dot(z, out=row)
            else:
                traj[:] = diag
                np.multiply(diag, z, out=traj[0])
                z = np.multiply.accumulate(traj, out=traj)[-1]
            sq = np.matmul(traj[:, None, :], traj[:, :, None]).ravel()
            norms = np.sqrt(sq)
            for i in np.flatnonzero(sq < _MIN_NORMAL).tolist():  # _norm2's hypot rows
                norms[i] = _norm2(traj[i])
            taken = env.observe_run(norms)
            if taken is None:
                return False
            done += taken
            if taken < len(traj):  # go on from the state before that one
                z = traj[taken - 1] if taken else start
                break
        for _ in range(steps - done):
            z = a @ z
            divisor = env.observe(_norm2(z))
            if divisor is None:
                return False
            z /= divisor
    return True


def simulate_system(
    m: Matrix2, steps: int, zeta0: np.ndarray, rho: float, p: Matrix2 | None = None
) -> DecayReport:
    """Iterate z <- M z for ``steps`` steps and measure the envelope.

    When a certificate P is supplied the observed envelope is compared
    against sqrt(cond(P)), the bound the certificate promises.
    """
    z = np.asarray(zeta0, dtype=np.float64)
    scale = _norm2(z)
    bound = math.sqrt(cond2(p)) if p is not None else None
    if scale == 0.0:
        return DecayReport(0.0, bound, True if bound is not None else None, False)
    env = _Envelope(rho, scale)
    if not _simulate_matrix(env, m.as_array(), z, steps):
        return DecayReport(math.inf, bound, False if bound is not None else None, True)
    within = (env.max_ratio <= bound * (1.0 + 1e-9)) if bound is not None else None
    return DecayReport(env.max_ratio, bound, within, False)


# --- the report of one system ---

_ZETA0 = np.array([1.0, 1.0]) / math.sqrt(2.0)  # unit start of the 2x2 simulations


def _certified(m: Matrix2, rho: float, steps: int) -> tuple[StabilityVerdict, DecayReport]:
    """Lyapunov verdict of a 2x2 system and its simulated envelope."""
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    verdict = lyapunov_verdict(m, rho)
    return verdict, simulate_system(m, steps, _ZETA0, rho, verdict.lyapunov_p)


def analyze(
    system: str,
    *,
    L: float,
    eta: float,
    rho: float | None = None,
    steps: int = 100,
    beta1: float | None = None,
    sqrtvhat: float | None = None,
    kappa: float | None = None,
    xi: float | None = None,
) -> dict:
    """Stability report of one linearized system, ready for ``json.dumps``
    with ``allow_nan=False``: every non-finite number in it is None.

    ``system`` is "t1" (plain descent: L, eta, rho), "t2" (adaptive
    moments: beta1, sqrtvhat, L, eta, and rho, which defaults to
    sqrt(beta1)) or "t3" (accelerated momentum: kappa, xi, L, eta, rho).
    The report gives the step-size window and whether eta lies in it,
    the spectral radius, the contraction certificate (``lyapunov_p`` for
    t1; ``lmi_feasible`` and ``cond_p`` for t2 and t3) and the envelope of
    a ``steps``-step simulation. ``stable`` is the window verdict (for t3,
    the nominal-pair verdict of ``accsgd_stability``), which can differ
    from contraction. Invalid parameters raise ValueError or PlsLabError,
    as does an unknown ``system``; a non-finite parameter other than rho
    is refused first, and rho where the system checks its range.
    """
    for name, value in (("L", L), ("eta", eta), ("beta1", beta1), ("sqrtvhat", sqrtvhat),
                        ("kappa", kappa), ("xi", xi)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if system == "t1":
        window = sgd_rate_window(L, rho)
        factor = sgd_factor(eta, L)
        stable = window[0] <= eta <= window[1]
        sim = simulate_system(Matrix2(factor, 0.0, 0.0, 0.0), steps, [1.0, 0.0], rho)
        try:
            lyapunov_p = 1.0 / (rho**2 - factor**2) if abs(factor) < rho else None
        except ZeroDivisionError:  # both squares underflow, and the true value overflows
            lyapunov_p = math.inf
        report = {
            "system": "sgd",
            "rho": rho,
            "window": list(window),
            "eta": eta,
            "eta_in_window": stable,
            "factor": factor,
            "spectral_radius": abs(factor),
            "lyapunov_p": lyapunov_p,
        }
    elif system == "t2":
        window = amsgrad_rate_window(beta1, sqrtvhat, L)
        if rho is None:
            rho = math.sqrt(beta1)
        verdict, sim = _certified(amsgrad_system(beta1, eta, L, sqrtvhat), rho, steps)
        stable = window[0] < eta < window[1]
        report = {
            "system": "amsgrad",
            "rho": rho,
            "window": list(window),
            "eta": eta,
            "eta_in_window": stable,
            "spectral_radius": verdict.spectral_radius,
            "discriminant": amsgrad_discriminant(beta1, eta, L, sqrtvhat),
            "lmi_feasible": verdict.stable,
            "cond_p": verdict.cond_p,
        }
    elif system == "t3":
        nominal = accsgd_stability(kappa, xi, eta, L, rho)
        verdict, sim = _certified(accsgd_system(kappa, xi, eta, L), rho, steps)
        stable = nominal.stable
        report = {
            "system": "accsgd",
            "rho": rho,
            "alpha_ok": nominal.alpha_ok,
            "window": list(nominal.eta_window),
            "eta": eta,
            "eta_in_window": nominal.eta_in_window,
            "nominal_eigenvalues": list(nominal.nominal_eigenvalues),
            "spectral_radius": verdict.spectral_radius,
            "lmi_feasible": verdict.stable,
            "cond_p": verdict.cond_p,
        }
    else:
        raise ValueError(f"unknown system {system!r}: expected t1, t2 or t3")
    if steps < 0:  # checked last, so every other fault keeps its message
        raise ValueError("steps must be non-negative")
    report["stable"] = stable
    report["envelope"] = {"steps": steps, **vars(sim)}
    return finite_or_none(report)
