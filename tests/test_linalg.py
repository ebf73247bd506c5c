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

