import math

import numpy as np
import numpy.testing as npt
import pytest

from pls_lab.errors import DivergenceError, SingularSystemError
from pls_lab.linalg import (
    Matrix2,
    cond2,
    eig2x2,
    solve_discrete_lyapunov2,
    spectral_radius2,
)
from pls_lab.rng import SeededRng

from _oracles import l2_norm


class TestL2Norm:
    """The norm oracle of the estimator's bit-for-bit tests."""

    def test_pythagorean(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_zero_vector(self):
        assert l2_norm(np.zeros(3)) == 0.0

    def test_ones_hundred(self):
        assert l2_norm(np.ones(100)) == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            l2_norm(np.array([]))

    def test_non_finite_signals_divergence(self):
        with pytest.raises(DivergenceError):
            l2_norm(np.array([1.0, np.nan]))
        with pytest.raises(DivergenceError):
            l2_norm(np.array([1.0, np.inf]))


class TestEig2x2:
    def test_identity(self):
        l1, l2 = eig2x2(Matrix2(1.0, 0.0, 0.0, 1.0))
        assert l1 == 1.0 and l2 == 1.0

    def test_rotation_unit_conjugates(self):
        l1, l2 = eig2x2(Matrix2(0.0, 1.0, -1.0, 0.0))
        assert {l1, l2} == {1j, -1j}
        assert abs(l1) == 1.0 and abs(l2) == 1.0

    def test_conjugate_pair_magnitude_is_sqrt_det(self):
        # trace 1.8, det 0.9: roots of z^2 - 1.8 z + 0.9, a conjugate pair;
        # both magnitudes equal sqrt(det)
        m = Matrix2(0.9, 0.1, -0.9, 0.9)
        l1, l2 = eig2x2(m)
        for lam in (l1, l2):
            residual = lam * lam - 1.8 * lam + 0.9
            assert abs(residual) < 1e-12
        npt.assert_allclose(abs(l1), math.sqrt(0.9), atol=1e-14)
        npt.assert_allclose(abs(l2), math.sqrt(0.9), atol=1e-14)

    def test_trace_and_det_reproduced_on_random_matrices(self):
        rng = SeededRng(101)
        for _ in range(10_000):
            e = rng.uniform_array(4, -10.0, 10.0)
            m = Matrix2(*e)
            l1, l2 = eig2x2(m)
            tr, det = m.trace(), m.det()
            assert abs(l1 + l2 - tr) <= 1e-12 * max(1.0, abs(tr))
            assert abs(l1 * l2 - det) <= 1e-12 * max(1.0, abs(det))

    def test_ordering_by_magnitude(self):
        l1, l2 = eig2x2(Matrix2(0.2, 0.0, 0.0, -0.8))
        assert abs(l1) >= abs(l2)

    def test_non_finite_rejected(self):
        with pytest.raises(DivergenceError):
            eig2x2(Matrix2(np.nan, 0.0, 0.0, 1.0))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius2(Matrix2(1.0, 0.0, 0.0, 1.0)) == 1.0

    def test_diagonal_takes_largest_magnitude(self):
        npt.assert_allclose(spectral_radius2(Matrix2(0.5, 0.0, 0.0, -0.9)), 0.9, rtol=1e-14)


class TestDiscreteLyapunov:
    def test_diagonal_half_contraction(self):
        # M = diag(0.5, 0.5), rho = 0.9: p * 0.25 - 0.81 p = -1
        p = solve_discrete_lyapunov2(Matrix2(0.5, 0.0, 0.0, 0.5), 0.9)
        assert p is not None
        npt.assert_allclose(p.a11, 1.0 / 0.56, rtol=1e-12)
        npt.assert_allclose(p.a22, 1.0 / 0.56, rtol=1e-12)
        npt.assert_allclose(p.a12, 0.0, atol=1e-12)

    def test_identity_infeasible_below_its_radius(self):
        assert solve_discrete_lyapunov2(Matrix2(1.0, 0.0, 0.0, 1.0), 0.5) is None

    def test_solution_satisfies_equation(self):
        rng = SeededRng(77)
        checked = 0
        while checked < 200:
            m = Matrix2(*rng.uniform_array(4, -1.0, 1.0))
            rho = spectral_radius2(m) + rng.uniform(0.05, 1.0)
            p = solve_discrete_lyapunov2(m, rho)
            assert p is not None
            a, pa = m.as_array(), p.as_array()
            npt.assert_allclose(
                a.T @ pa @ a - rho * rho * pa, -np.eye(2), atol=1e-8
            )
            checked += 1

    def test_feasibility_iff_radius_below_rho(self):
        rng = SeededRng(202)
        for _ in range(10_000):
            m = Matrix2(*rng.uniform_array(4, -1.0, 1.0))
            rho = rng.uniform(0.05, 1.3)
            sr = spectral_radius2(m)
            if abs(sr - rho) <= 1e-9:
                continue
            try:
                p = solve_discrete_lyapunov2(m, rho)
            except SingularSystemError:
                # resonance only exists when not contracting
                assert sr > rho
                continue
            assert (p is not None) == (sr < rho), f"sr={sr} rho={rho}"

    def test_solution_at_rates_above_one_is_the_unscaled_solve(self):
        # solving at rho / 2**e with M / 2**e is exact: the same bits as the
        # direct solve wherever that solve is a certificate
        rng = SeededRng(78)
        for _ in range(2000):
            m = Matrix2(*rng.uniform_array(4, -3.0, 3.0))
            rho = spectral_radius2(m) + rng.uniform(0.05, 1.0) + 1.0
            r2 = rho * rho
            a = np.array([
                [m.a11 * m.a11 - r2, 2.0 * m.a11 * m.a21, m.a21 * m.a21],
                [m.a11 * m.a12, m.a11 * m.a22 + m.a12 * m.a21 - r2, m.a21 * m.a22],
                [m.a12 * m.a12, 2.0 * m.a12 * m.a22, m.a22 * m.a22 - r2],
            ])
            direct = [float(v) for v in np.linalg.solve(a, np.array([-1.0, 0.0, -1.0]))]
            p = solve_discrete_lyapunov2(m, rho)
            assert [p.a11, p.a12, p.a22] == direct
            assert p.a12 == p.a21

    @pytest.mark.parametrize("rho", [1e6, 1e75, 1e76, 1e154, 1e155, 1e308])
    def test_large_rates_are_certified(self, rho):
        m = Matrix2(0.9, 0.2, -0.1, 0.5)
        p = solve_discrete_lyapunov2(m, rho)
        assert p is not None
        e = math.frexp(rho)[1]
        # the equation holds scaled by 4**-e; beyond 2**250 P is returned
        # 4**(e - 250) larger, a certificate up to that positive factor
        q = p.as_array() * 4.0 ** min(e, 250)
        n, r = m.as_array() * math.ldexp(1.0, -e), math.ldexp(rho, -e)
        npt.assert_allclose(n.T @ q @ n - r * r * q, -np.eye(2), atol=1e-12)
        assert p.det() > 0.0 and 1.0 <= cond2(p) < 1.0 + 1e-12

    def test_large_rate_below_the_radius_is_infeasible(self):
        assert solve_discrete_lyapunov2(Matrix2(3e6, 0.0, 0.0, 1.0), 2e6) is None

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_discrete_lyapunov2(Matrix2(1.0, 0.0, 0.0, 1.0), 0.0)


class TestCond2:
    def test_identity(self):
        assert cond2(Matrix2(1.0, 0.0, 0.0, 1.0)) == 1.0

    def test_diagonal(self):
        assert cond2(Matrix2(4.0, 0.0, 0.0, 1.0)) == 4.0

    def test_matches_eigensolver_on_certificates(self):
        p = solve_discrete_lyapunov2(Matrix2(0.3, 0.2, -0.1, 0.4), 0.8)
        assert p is not None
        ev = np.linalg.eigvalsh(p.as_array())
        npt.assert_allclose(cond2(p), ev.max() / ev.min(), rtol=1e-10)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            cond2(Matrix2(1.0, 0.0, 0.0, -1.0))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cond2(Matrix2(1.0, 0.5, -0.5, 1.0))

    def test_cancelling_subtraction_takes_det_over_the_larger_eigenvalue(self):
        # the certificate of amsgrad_system(1e-155, 1e-170, 1e10, 1e100) at
        # rate 2: half_tr - gap cancels to 0 on a P whose det is 2.08e18
        p = solve_discrete_lyapunov2(Matrix2(1e-155, 1e10, -0.0, 1.0), 2.0)
        assert p is not None and p.det() > 2e18
        assert 0.5 * (p.a11 + p.a22) - math.sqrt(0.25 * (p.a11 - p.a22) ** 2 + p.a12 ** 2) == 0.0
        assert cond2(p) == 3.3333333333333336e19  # the exact ratio, rounded
        # det is one subnormal step, and det / lam_max underflows to 0: the
        # ratio, about 9 / 5e-324, overflows
        b = math.sqrt(5 * 5e-324)
        p = Matrix2(1e-323, b, b, 3.0)
        assert p.det() == 5e-324 and p.det() / 3.0 == 0.0
        assert cond2(p) == math.inf

    def test_overflowing_square_gives_inf(self):
        # the certificate of amsgrad_system(0.9, 0.1, 1.0, 1e200) at rate 1: the
        # square of its diagonal's difference overflows, and a float power raises
        p = solve_discrete_lyapunov2(Matrix2(0.9, 0.09999999999999998, -9e-202, 1.0), 1.0)
        assert p is not None and p.a22 > 1e201
        assert cond2(p) == math.inf

