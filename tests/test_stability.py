import json
import math
from itertools import repeat

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import simulate_factors_loop, simulate_system_loop, strict_json
from conftest import traced
from pls_lab import stability
from pls_lab.cli import main
from pls_lab.linalg import Matrix2, eig2x2, spectral_radius2
from pls_lab.rng import SeededRng
from pls_lab.stability import (
    _CHUNK,
    AGREEMENT_TOL,
    DecayReport,
    accsgd_nominal_eigenvalues,
    accsgd_rate_window,
    accsgd_stability,
    accsgd_system,
    amsgrad_discriminant,
    amsgrad_rate_window,
    amsgrad_system,
    analyze,
    lyapunov_verdict,
    sgd_factor,
    sgd_rate_window,
    simulate_factors,
    simulate_system,
)


class TestSgdWindow:
    def test_substitution(self):
        assert sgd_rate_window(2.0, 0.5) == (0.25, 0.5)

    def test_widest_window_near_rate_one(self):
        lo, hi = sgd_rate_window(4.0, 1.0 - 1e-12)
        npt.assert_allclose(lo, 0.0, atol=1e-12)
        assert hi == 0.25

    def test_inside_window_contracts_at_rate(self):
        report = simulate_factors([sgd_factor(0.4, 2.0)] * 100, 1.0, 0.5)
        assert report.max_ratio <= 1.0 + 1e-12
        assert not report.overflowed

    def test_above_window_still_contracts_but_excluded(self):
        # step 0.6 with curvature 2: factor -0.2, outside the one-sided
        # window yet contracting with radius 0.2
        lo, hi = sgd_rate_window(2.0, 0.5)
        eta = 0.6
        assert not (lo <= eta <= hi)
        factor = sgd_factor(eta, 2.0)
        npt.assert_allclose(abs(factor), 0.2, rtol=1e-12)
        assert simulate_factors([factor] * 100, 1.0, 0.5).max_ratio <= 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sgd_rate_window(0.0, 0.5)
        with pytest.raises(ValueError):
            sgd_rate_window(1.0, 1.5)


class TestAmsgradSystem:
    def test_window_values(self):
        lo, hi = amsgrad_rate_window(0.9, 1.0, 1.0)
        npt.assert_allclose(lo, 0.026334, atol=1e-6)
        npt.assert_allclose(hi, 37.9737, atol=1e-4)

    def test_window_collapses_as_beta_vanishes(self):
        lo, hi = amsgrad_rate_window(1e-12, 2.0, 4.0)
        npt.assert_allclose(lo, 0.5, rtol=1e-5)
        npt.assert_allclose(hi, 0.5, rtol=1e-5)

    def test_two_window_forms_agree(self):
        rng = SeededRng(3)
        for _ in range(1000):
            beta = rng.uniform(0.01, 0.99)
            s = math.sqrt(beta)
            npt.assert_allclose((1 - s) / (1 + s), (1 - s) ** 2 / (1 - beta), rtol=1e-12)
            npt.assert_allclose((1 + s) / (1 - s), (1 + s) ** 2 / (1 - beta), rtol=1e-12)

    def test_radius_is_sqrt_beta_inside_window(self):
        rng = SeededRng(4)
        for _ in range(2000):
            beta = rng.uniform(0.01, 0.99)
            sqrt_vhat = rng.uniform(0.1, 10.0)
            L = rng.uniform(0.1, 10.0)
            lo, hi = amsgrad_rate_window(beta, sqrt_vhat, L)
            eta = lo + (hi - lo) * rng.uniform(0.05, 0.95)
            a = amsgrad_system(beta, eta, L, sqrt_vhat)
            assert abs(spectral_radius2(a) - math.sqrt(beta)) <= 1e-9

    def test_characteristic_polynomial_at_roots(self):
        rng = SeededRng(5)
        for _ in range(2000):
            beta = rng.uniform(0.01, 0.99)
            sqrt_vhat = rng.uniform(0.1, 10.0)
            L = rng.uniform(0.1, 10.0)
            eta = rng.uniform(0.0, 5.0)
            a = amsgrad_system(beta, eta, L, sqrt_vhat)
            s = 1.0 + beta - (1.0 - beta) * eta * L / sqrt_vhat
            for lam in eig2x2(a):
                assert abs(lam * lam - s * lam + beta) <= 1e-9

    def test_discriminant_vanishes_on_boundaries(self):
        rng = SeededRng(6)
        for _ in range(1000):
            beta = rng.uniform(0.01, 0.99)
            sqrt_vhat = rng.uniform(0.1, 10.0)
            L = rng.uniform(0.1, 10.0)
            lo, hi = amsgrad_rate_window(beta, sqrt_vhat, L)
            assert abs(amsgrad_discriminant(beta, lo, L, sqrt_vhat)) <= 1e-9
            assert abs(amsgrad_discriminant(beta, hi, L, sqrt_vhat)) <= 1e-9

    def test_degenerate_beta_rejected(self):
        with pytest.raises(ValueError):
            amsgrad_rate_window(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            amsgrad_rate_window(1.0, 1.0, 1.0)


class TestLyapunovVerdict:
    def test_stable_just_above_radius(self):
        beta = 0.9
        lo, hi = amsgrad_rate_window(beta, 1.0, 1.0)
        a = amsgrad_system(beta, (lo + hi) / 2.0, 1.0, 1.0)
        verdict = lyapunov_verdict(a, math.sqrt(beta) + 1e-6)
        assert verdict.stable
        assert verdict.lyapunov_p is not None
        assert verdict.cond_p >= 1.0

    def test_identity_unstable(self):
        verdict = lyapunov_verdict(Matrix2(1.0, 0.0, 0.0, 1.0), 0.99)
        assert not verdict.stable
        assert verdict.lyapunov_p is None
        assert verdict.cond_p is None

    def test_verdict_mirrors_spectral_radius(self):
        rng = SeededRng(7)
        for _ in range(2000):
            m = Matrix2(*rng.uniform_array(4, -1.0, 1.0))
            rho = rng.uniform(0.05, 1.3)
            if abs(spectral_radius2(m) - rho) <= 1e-9:
                continue
            verdict = lyapunov_verdict(m, rho)
            assert verdict.stable == (verdict.spectral_radius < rho)


class TestAccsgdSystem:
    def test_nominal_pair_values(self):
        lam = accsgd_nominal_eigenvalues(1000.0, 10.0, 0.5, 1.0)
        npt.assert_allclose(lam[0], 0.9951, rtol=1e-12)
        npt.assert_allclose(lam[1], 0.496524, atol=1e-6)

    def test_window_negative_lower_bound(self):
        lo, hi = accsgd_rate_window(1000.0, 10.0, 1.0, 0.996)
        npt.assert_allclose(lo, -0.002972, atol=1e-6)
        assert hi == 1.0

    def test_rate_below_alpha_never_stable(self):
        alpha = accsgd_nominal_eigenvalues(1000.0, 10.0, 0.5, 1.0)[0]
        verdict = accsgd_stability(1000.0, 10.0, 0.5, 1.0, rho=alpha - 1e-6)
        assert not verdict.alpha_ok
        assert not verdict.stable

    def test_verdict_equals_nominal_pair_in_rate_disk(self):
        rng = SeededRng(8)
        checked = 0
        while checked < 2000:
            kappa = rng.uniform(1.0, 2000.0)
            xi = rng.uniform(0.1, math.sqrt(kappa))
            L = rng.uniform(0.1, 10.0)
            eta = rng.uniform(-0.5, 1.5) / L
            rho = rng.uniform(0.05, 0.999)
            lam = accsgd_nominal_eigenvalues(kappa, xi, eta, L)
            margins = [abs(lam[0] - rho), abs(lam[1] - rho), abs(lam[1]), abs(lam[0])]
            if min(margins) <= 1e-9:
                continue
            verdict = accsgd_stability(kappa, xi, eta, L, rho)
            expected = (0.0 < lam[0] < rho) and (0.0 < lam[1] < rho)
            assert verdict.stable == expected
            checked += 1

    def test_nominal_pair_is_not_the_true_spectrum(self):
        # the nominal pair reproduces det exactly; the trace differs by
        # b*(1-alpha)*(1-a*eta*L), so the true eigenvalues are different
        kappa, xi, eta, L = 1000.0, 10.0, 0.5, 1.0
        b = accsgd_system(kappa, xi, eta, L)
        lam_nom = accsgd_nominal_eigenvalues(kappa, xi, eta, L)
        npt.assert_allclose(b.det(), lam_nom[0] * lam_nom[1], rtol=1e-12)
        assert abs(b.trace() - (lam_nom[0] + lam_nom[1])) > 1e-3
        true_radius = spectral_radius2(b)
        assert abs(true_radius - max(lam_nom)) > 1e-2
        npt.assert_allclose(true_radius, 0.9438357494355838, rtol=1e-9)

    def test_matrix_matches_update_dynamics(self):
        # iterating the state matrix reproduces the actual optimizer update
        # under a linearized gradient
        from pls_lab.optimizers import AccsgdState, accsgd_coefficients

        kappa, xi, eta, L, x_star = 3.0, 1.2, 0.3, 2.0, 0.7
        alpha, a, bb = accsgd_coefficients(kappa, xi)
        st = AccsgdState(np.array([1.3]), alpha, a, bb)
        x = np.array([1.9])
        z = np.array([st.m[0] - x_star, x[0] - x_star])
        m2 = accsgd_system(kappa, xi, eta, L).as_array()
        for _ in range(5):
            st.step(x, L * (x - x_star), eta)
            z = m2 @ z
            npt.assert_allclose(z, [st.m[0] - x_star, x[0] - x_star], rtol=1e-10)


class TestSimulation:
    def test_constant_half_rate_within_envelope(self):
        m = Matrix2(0.25, 0.0, 0.0, 0.25)
        report = simulate_system(m, 50, np.array([1.0, 1.0]), 0.5)
        assert report.max_ratio <= 1.0 + 1e-12
        assert not report.overflowed

    def test_zero_start_stays_zero(self):
        report = simulate_system(Matrix2(1.0, 0.0, 0.0, 1.0), 10, np.zeros(2), 0.9)
        assert report.max_ratio == 0.0
        assert simulate_factors([3.0] * 10, 0.0, 0.9) == DecayReport(0.0, None, None, False)

    def test_envelope_past_underflowing_rho_power(self):
        # rho^t reaches 0.0 near t = 65; the ratio must still be measured
        below = simulate_factors([0.9e-5] * 100, 1.0, 1e-5)
        assert below.max_ratio == 1.0 and not below.overflowed
        above = simulate_factors([0.2] * 100, 1.0, 1e-5)
        assert math.isinf(above.max_ratio) and not above.overflowed
        # 0.01^165 is 0.0 while 0.0125^165 is still a (subnormal) float
        late = simulate_factors([0.0125] * 165, 1.0, 0.01)
        npt.assert_allclose(late.max_ratio, 1.25**165, rtol=1e-6)
        m = Matrix2(0.9e-5, 0.0, 0.0, 0.9e-5)
        assert simulate_system(m, 100, np.array([1.0, 1.0]), 1e-5).max_ratio == 1.0

    def test_overflow_reported_unstable(self):
        report = simulate_factors([3.0] * 400, 1.0, 0.9)
        assert report.overflowed

    def test_certificate_bound_honored(self):
        m = Matrix2(0.4, 0.2, -0.1, 0.3)
        verdict = lyapunov_verdict(m, 0.8)
        report = simulate_system(m, 100, np.array([1.0, -1.0]), 0.8,
                                 verdict.lyapunov_p)
        assert report.bound == pytest.approx(math.sqrt(verdict.cond_p))
        assert report.within_bound


def _draw(system, rng):
    """Parameters of one seeded analysis, with eta on either side of contraction."""
    L = 10.0 ** rng.uniform(-1.0, 1.0)
    if system == "t1":
        return {"L": L, "rho": rng.uniform(0.05, 0.95), "eta": rng.uniform(-0.5, 2.5) / L}
    if system == "t2":
        beta1 = rng.uniform(0.5, 0.99)
        sqrtvhat = 10.0 ** rng.uniform(-2.0, 0.0)
        hi = amsgrad_rate_window(beta1, sqrtvhat, L)[1]
        return {"beta1": beta1, "sqrtvhat": sqrtvhat, "L": L, "eta": rng.uniform(0.0, 1.5) * hi,
                "rho": rng.uniform(0.7, 1.0)}
    kappa = 10.0 ** rng.uniform(1.0, 3.7)
    return {"kappa": kappa, "xi": rng.uniform(0.05, 1.0) * math.sqrt(kappa), "L": L,
            "eta": rng.uniform(-0.5, 1.5) / L, "rho": rng.uniform(0.5, 0.999)}


def _seeded_systems():
    rng = SeededRng(31)
    for _ in range(200):
        d = _draw("t2", rng)
        yield amsgrad_system(d["beta1"], d["eta"], d["L"], d["sqrtvhat"]), d["rho"]
        d = _draw("t3", rng)
        yield accsgd_system(d["kappa"], d["xi"], d["eta"], d["L"]), d["rho"]
    yield amsgrad_system(0.9, 1.0, 1.0, 1.0), 1e-5  # rho^t underflows, the ratio overflows
    yield Matrix2(2e-5, 0.0, 0.0, 1.5e-5), 1e-5  # the squared norm underflows
    yield amsgrad_system(0.9, 1e308, 1.0, 1.0), 0.9  # non-finite state at step 2
    yield Matrix2(40.0, 1.0, 0.0, 2.0), 0.9  # the norm passes 1e150


def _log_scaled_max_ratio(m, steps, rho):
    """max_t ||M^t z0|| / rho^t from z0 = (1, 1)/sqrt(2), with the state
    renormalised every step and its norm kept as a log."""
    a = m.as_array()
    z, log_norm, best = np.array([1.0, 1.0]) / math.sqrt(2.0), 0.0, 1.0
    for t in range(1, steps + 1):
        z = a @ z
        norm = math.hypot(*z)
        log_norm += math.log(norm)
        z /= norm
        best = max(best, math.exp(log_norm - t * math.log(rho)))
    return best


class TestStateBelowTheSquaredRange:
    """A state whose squared norm underflows is carried at unit norm."""

    @pytest.mark.parametrize("m, expected", [
        (Matrix2(2e-5, 0.0, 0.0, 1.5e-5), 8.96e29),
        (amsgrad_system(1e-9, 1.0, 1.0, 1.0), 7.07e53),
    ])
    def test_envelope_matches_a_log_scaled_simulation(self, m, expected):
        zeta0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        got = simulate_system(m, 100, zeta0, 1e-5).max_ratio
        npt.assert_allclose(got, _log_scaled_max_ratio(m, 100, 1e-5), rtol=1e-9)
        npt.assert_allclose(got, expected, rtol=1e-3)

    def test_tiny_start_has_its_norm(self):
        report = simulate_system(Matrix2(0.5, 0.0, 0.0, 0.5), 10, np.array([3e-170, 4e-170]),
                                 0.9)
        npt.assert_allclose(report.max_ratio, 1.0)


_STEP_COUNTS = (0, 1, 100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7)


def _factor_lists():
    rng = SeededRng(41)
    for steps in _STEP_COUNTS:
        rho = rng.uniform(0.05, 0.99)
        yield [rng.uniform(-1.2, 1.2)] * steps, rho
        for lo, hi in ((-1.0, 1.0), (0.5, 1.6)):  # the first passes 1e-300 near step 690
            yield rng.uniform_array(steps, lo, hi).tolist(), rho
    yield [2e-5] * 100, 1e-5  # the state passes 1e-300 at step 64; max ratio 1.27e30
    yield [0.0125] * 165, 0.01  # the state passes 1e-300 at step 158, before rho^t underflows
    yield [0.05] * 200, 0.01  # rho^t underflows at step 162, the state never passes 1e-300
    yield [3.0] * 400, 0.9  # overflow
    yield [0.5, math.nan, 0.5], 0.9
    yield [0.5, 0.0, 0.5], 0.9
    yield [0.5] * 100, math.nan  # every ratio is nan: the max stays 1


def _first_state_below_tiny(next_state, z, steps):
    for t in range(1, steps + 1):
        z = next_state(z)
        if math.hypot(*np.atleast_1d(z)) < 1e-300:
            return t
    return None


class TestSimulationMatchesPerStepLoop:
    zeta0 = np.array([1.0, 1.0]) / math.sqrt(2.0)

    def test_bit_for_bit(self):
        compared = certified = 0
        for k, (m, rho) in enumerate(_seeded_systems()):
            p = lyapunov_verdict(m, rho).lyapunov_p
            # every chunk boundary on one seeded system in eight and the last four
            for steps in _STEP_COUNTS if k % 8 == 0 or k >= 400 else _STEP_COUNTS[:3]:
                got = simulate_system(m, steps, self.zeta0, rho, p)
                assert repr(got) == repr(simulate_system_loop(m, steps, self.zeta0, rho, p))
                compared += 1
            certified += p is not None
        assert compared == 3 * 404 + 4 * 54 and 0 < certified < 404

    def test_factors_bit_for_bit(self):
        for z0 in (1.0, -3e-310, 7.5e200):
            for factors, rho in _factor_lists():
                want = repr(simulate_factors_loop(factors, z0, rho))
                assert repr(simulate_factors(factors, z0, rho)) == want
                assert repr(simulate_factors(iter(factors), z0, rho)) == want

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -0.5])
    @pytest.mark.parametrize("m", [Matrix2(0.5, 0.1, 0.0, 0.5), Matrix2(1e100, 0.0, 0.0, 1e100)])
    def test_rates_outside_the_unit_interval(self, m, rho):
        # nan ratios leave the max at 1, as observe skips them; rho <= 0 sends
        # the first ratio down _ratio's log path, which raises before an overflow
        for steps in (1, 100, _CHUNK + 1):
            try:
                want = repr(simulate_system_loop(m, steps, self.zeta0, rho))
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    simulate_system(m, steps, self.zeta0, rho)
            else:
                assert repr(simulate_system(m, steps, self.zeta0, rho)) == want
        nan_report = simulate_system(Matrix2(0.5, 0.1, 0.0, 0.5), 100, self.zeta0, math.nan)
        assert nan_report.max_ratio == 1.0

    @pytest.mark.parametrize("diagonal, rho", [(0.2, 0.1), (0.01, 0.5)])
    def test_rescale_from_mid_chunk(self, diagonal, rho):
        # 0.2^t passes 1e-300 at step 430, in the second chunk, and 0.1^t
        # underflows before it; 0.01^t passes it at step 151
        steps = 3 * _CHUNK + 7
        m = Matrix2(diagonal, 0.0, 0.0, diagonal)
        first = _first_state_below_tiny(m.as_array().dot, self.zeta0, steps)
        assert 0 < (first - 1) % _CHUNK < _CHUNK - 1
        assert repr(simulate_system(m, steps, self.zeta0, rho)) == repr(
            simulate_system_loop(m, steps, self.zeta0, rho))
        factors = [diagonal] * steps
        assert _first_state_below_tiny(lambda z: z * diagonal, 1.0, steps) == first
        assert repr(simulate_factors(factors, 1.0, rho)) == repr(
            simulate_factors_loop(factors, 1.0, rho))

    def test_ratio_past_underflowing_rho_power_before_rescaling(self):
        # rho^t underflows at step 162; the max ratio is 5^200, at the last step
        m = Matrix2(0.05, 0.0, 0.0, 0.05)
        got = simulate_system(m, 200, self.zeta0, 0.01)
        assert repr(got) == repr(simulate_system_loop(m, 200, self.zeta0, 0.01))
        npt.assert_allclose(got.max_ratio, 5.0**200, rtol=1e-9)
        npt.assert_allclose(simulate_factors([0.05] * 200, 1.0, 0.01).max_ratio, 5.0**200,
                            rtol=1e-9)

    def test_integer_rate(self):
        # rho^t is a float product, as in the per-step loop, not an integer one
        m = Matrix2(2.5, 0.0, 0.0, 2.5)
        got = simulate_system(m, 300, self.zeta0, 2)
        assert repr(got) == repr(simulate_system_loop(m, 300, self.zeta0, 2))
        assert repr(simulate_factors([2.5] * 300, 1.0, 2)) == repr(
            simulate_factors_loop([2.5] * 300, 1.0, 2))
        npt.assert_allclose(got.max_ratio, 1.25**300, rtol=1e-9)

    def test_negative_steps_simulate_nothing(self):
        m = amsgrad_system(0.9, 1.0, 1.0, 1.0)
        p = lyapunov_verdict(m, 0.99).lyapunov_p
        got = simulate_system(m, -3, self.zeta0, 0.99, p)
        assert repr(got) == repr(simulate_system_loop(m, -3, self.zeta0, 0.99, p))
        assert got.max_ratio == 1.0 and got.within_bound
        assert simulate_factors(repeat(0.5, -3), 1.0, 0.9) == DecayReport(1.0, None, None, False)


class TestAnalyze:
    @pytest.mark.parametrize("system, params", [
        ("t1", {"L": 2.0, "rho": 0.5, "eta": 0.6}),
        ("t2", {"beta1": 0.9, "sqrtvhat": 1.0, "L": 1.0, "eta": 1.0}),
        ("t3", {"kappa": 1000.0, "xi": 10.0, "L": 1.0, "eta": 0.5, "rho": 0.996}),
    ])
    def test_cli_prints_the_report(self, system, params, capsys):
        argv = ["stability", system] + [f"--{k}={v!r}" for k, v in params.items()]
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(analyze(system, **params), indent=2) + "\n"

    @pytest.mark.parametrize("system", ["t1", "t2", "t3"])
    def test_certificate_present_exactly_when_contracting(self, system):
        rng = SeededRng({"t1": 21, "t2": 22, "t3": 23}[system])
        contracting = 0
        for _ in range(500):
            report = analyze(system, **_draw(system, rng))
            radius, rho = report["spectral_radius"], report["rho"]
            if abs(radius - rho) <= AGREEMENT_TOL:
                continue
            certified = (report["lyapunov_p"] is not None if system == "t1"
                         else report["lmi_feasible"])
            assert certified == (radius < rho)
            if certified and system != "t1":
                assert report["envelope"]["within_bound"]
            contracting += certified
        assert 50 < contracting < 450  # both sides of contraction were drawn

    @pytest.mark.parametrize("system, params", [
        ("t1", {"L": 1.0, "rho": 0.5, "eta": 0.1}),
        ("t2", {"beta1": 0.9, "sqrtvhat": 0.1, "L": 1.0, "eta": 0.05}),
        ("t3", {"kappa": 1000.0, "xi": 10.0, "L": 1.0, "eta": 0.5, "rho": 0.9}),
    ])
    def test_negative_steps_rejected(self, system, params):
        with pytest.raises(ValueError, match="^steps must be non-negative$"):
            analyze(system, steps=-3, **params)
        assert analyze(system, steps=0, **params)["envelope"]["max_ratio"] == 1.0

    @pytest.mark.parametrize("system, params, message", [
        ("t1", {"L": -1.0, "rho": math.nan, "eta": 0.1}, "L must be positive"),
        ("t2", {"beta1": 1.5, "sqrtvhat": 0.1, "L": 1.0, "eta": 0.05, "rho": math.inf},
         "beta1 must lie strictly in (0, 1)"),
        ("t3", {"kappa": 1000.0, "xi": 10.0, "L": -1.0, "eta": 0.5, "rho": math.nan},
         "L must be positive"),
    ])
    def test_earlier_faults_keep_their_message(self, system, params, message):
        with pytest.raises(ValueError) as info:
            analyze(system, steps=-3, **params)
        assert str(info.value) == message

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            analyze("t4", L=1.0, eta=0.5, rho=0.9)

    @pytest.mark.parametrize("system, params", [
        ("t2", {"beta1": 0.9, "sqrtvhat": 0.1, "L": 1.0, "eta": 0.05}),
        ("t3", {"kappa": 100.0, "xi": 5.0, "L": 1.0, "eta": 0.5}),
    ])
    @pytest.mark.parametrize("rho", [1e3, 1e6, 1e77, 1e308])
    def test_large_rate_is_certified(self, system, params, rho, capsys):
        # the certificate is about 1/rho^2, far under the absolute margin,
        # and rho^2 overflows at 1e308
        report = analyze(system, rho=rho, **params)
        assert report["lmi_feasible"] and report["spectral_radius"] < 1.0
        assert 1.0 <= report["cond_p"] < 1.0 + 1e-5
        assert report["envelope"]["within_bound"]
        argv = ["stability", system] + [f"--{k}={v!r}" for k, v in dict(params, rho=rho).items()]
        assert main(argv) == 0
        assert '"lmi_feasible": true' in capsys.readouterr().out


# reports with a non-finite field, and that field's printed value
_NON_FINITE_REPORTS = [
    ("t3 --kappa=100 --xi=5 --L=1 --eta=0.5 --rho=1e308", {"window": [None, 1.0]}),
    ("t1 --L=1e-320 --rho=0.5 --eta=1.0", {"window": [None, None]}),
    ("t2 --beta1=0.9 --sqrtvhat=1e300 --L=1e-10 --eta=1.0", {"window": [None, None]}),
    ("t1 --L=10 --rho=0.5 --eta=1e308", {"factor": None, "spectral_radius": None}),
    ("t2 --beta1=0.9 --sqrtvhat=1.0 --L=1.0 --eta=1e308 --rho=0.9",
     {"spectral_radius": None, "discriminant": None}),
]


@pytest.mark.parametrize("args, fields", _NON_FINITE_REPORTS)
def test_non_finite_report_fields_print_as_null(args, fields, capsys):
    assert main(["stability", *args.split()]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = strict_json(captured.out)
    assert {name: report[name] for name in fields} == fields


def test_cli_prints_what_the_per_step_loops_print(monkeypatch, capsys):
    rng = SeededRng(51)
    argvs = [["stability", *args.split()] for args, _ in _NON_FINITE_REPORTS]
    for _ in range(100):
        for system in ("t1", "t2", "t3"):
            params = _draw(system, rng)
            argvs.append(["stability", system] + [f"--{k}={v!r}" for k, v in params.items()])

    def outputs():
        return [(main(argv), *capsys.readouterr()) for argv in argvs]

    chunked = outputs()
    monkeypatch.setattr(stability, "simulate_factors", simulate_factors_loop)
    monkeypatch.setattr(stability, "simulate_system", simulate_system_loop)
    assert outputs() == chunked


@pytest.mark.parametrize("system, params", [
    ("t1", {"L": 1.0, "rho": 0.999, "eta": 0.0}),  # factor 1: no rescaling, no overflow
    ("t2", {"beta1": 0.999, "sqrtvhat": 1.0, "L": 1.0, "eta": 1.0}),  # radius 0.9995
])
def test_analysis_memory_does_not_grow_with_steps(system, params):
    with traced() as mem:
        report = analyze(system, steps=200_000, **params)
    assert not report["envelope"]["overflowed"]
    assert mem.peak < 1_000_000
