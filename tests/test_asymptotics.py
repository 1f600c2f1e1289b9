import numpy as np
import pytest
from references import quadrature_covariance, required_horizon

from lambda_saga import (
    CovarianceError,
    QuadraticProblem,
    gamma_matrix,
    random_quadratic,
    solve_lyapunov,
    solve_minimizer,
)


def random_admissible(rng, d=None):
    """Symmetric H with eigenvalues in (0.6, 3), PSD Gamma, lam in [0, 1]."""
    d = d or int(rng.integers(2, 11))
    evals = rng.uniform(0.6, 3.0, size=d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    h = (q * evals) @ q.T
    h = (h + h.T) / 2
    a = rng.standard_normal((d, d))
    gamma = a @ a.T / d
    lam = float(rng.uniform(0.0, 1.0))
    return h, gamma, lam


class TestGammaMatrix:
    def test_scalar_anchors(self):
        problem = QuadraticProblem(np.array([[1.0], [-1.0]]))
        gamma = gamma_matrix(problem, solve_minimizer(problem))
        assert gamma.shape == (1, 1)
        assert gamma[0, 0] == 1.0  # ((-1)^2 + 1^2) / 2

    def test_single_component_vanishes(self):
        problem = QuadraticProblem(np.array([[2.0, -3.0]]))
        gamma = gamma_matrix(problem, solve_minimizer(problem))
        assert np.array_equal(gamma, np.zeros((2, 2)))

    def test_symmetric_anchor_pair(self):
        problem = QuadraticProblem(np.array([[1.0, 1.0], [-1.0, -1.0]]))
        gamma = gamma_matrix(problem, solve_minimizer(problem))
        assert np.allclose(gamma, [[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_non_stationary_point(self):
        problem = random_quadratic(10, 3, seed=1)
        with pytest.raises(CovarianceError, match="not stationary"):
            gamma_matrix(problem, solve_minimizer(problem) + 1.0)


class TestSolveLyapunov:
    def test_identity_hessian_closed_form(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        gamma = a @ a.T
        for lam in (0.0, 0.3, 0.8):
            cov = solve_lyapunov(np.eye(3), gamma, lam)
            assert np.allclose(cov.sigma, (1 - lam) ** 2 * gamma, rtol=1e-12)

    def test_lambda_one_dirac_limit(self):
        rng = np.random.default_rng(3)
        h, gamma, _ = random_admissible(rng, d=4)
        cov = solve_lyapunov(h, gamma, 1.0)
        assert np.array_equal(cov.sigma, np.zeros((4, 4)))

    def test_rejects_rho_at_half(self):
        with pytest.raises(CovarianceError, match="exceed 1/2"):
            solve_lyapunov(np.diag([0.5, 2.0]), np.eye(2), 0.0)

    def test_rejects_asymmetric_h(self):
        h = np.array([[1.0, 1e-4], [0.0, 1.0]])
        with pytest.raises(CovarianceError, match="asymmetric"):
            solve_lyapunov(h, np.eye(2), 0.0)

    def test_residual_and_psd_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            h, gamma, lam = random_admissible(rng)
            cov = solve_lyapunov(h, gamma, lam)
            d = h.shape[0]
            b = h - 0.5 * np.eye(d)
            residual = b @ cov.sigma + cov.sigma @ b - (1 - lam) ** 2 * gamma
            assert np.linalg.norm(residual) <= 1e-10 * max(
                1.0, np.linalg.norm(gamma)
            )
            assert np.array_equal(cov.sigma, cov.sigma.T)
            assert np.linalg.eigvalsh(cov.sigma).min() >= -1e-12

    def test_scaling_law_elementwise_exact(self):
        rng = np.random.default_rng(5)
        h, gamma, _ = random_admissible(rng, d=5)
        base = solve_lyapunov(h, gamma, 0.0).sigma
        for lam in np.linspace(0.0, 1.0, 11):
            sigma = solve_lyapunov(h, gamma, float(lam)).sigma
            assert np.array_equal(sigma, (1 - lam) ** 2 * base)


class TestQuadratureCovariance:
    def test_identity_case(self):
        horizon = required_horizon(1.0) * 1.05
        total = quadrature_covariance(np.eye(2), np.eye(2), 0.0, horizon, 2000)
        assert np.allclose(total, np.eye(2), atol=1e-10)

    def test_lambda_one_exact_zero(self):
        total = quadrature_covariance(np.eye(2), np.eye(2), 1.0, 40.0, 100)
        assert np.array_equal(total, np.zeros((2, 2)))

    def test_diagonal_scalar_integrals(self):
        h = np.diag([1.0, 2.0])
        horizon = required_horizon(1.0) * 1.05
        total = quadrature_covariance(h, np.eye(2), 0.0, horizon, 4000)
        assert np.allclose(total, np.diag([1.0, 1.0 / 3.0]), atol=1e-9)

    def test_rejects_short_horizon(self):
        with pytest.raises(CovarianceError, match="horizon"):
            quadrature_covariance(np.eye(2), np.eye(2), 0.0, 5.0, 100)

    def test_rejects_odd_steps(self):
        with pytest.raises(CovarianceError, match="even"):
            quadrature_covariance(np.eye(2), np.eye(2), 0.0, 40.0, 101)

    def test_agreement_with_eigenbasis_solve(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h, gamma, lam = random_admissible(rng)
            direct = solve_lyapunov(h, gamma, lam)
            horizon = required_horizon(direct.rho) * 1.05
            quad = quadrature_covariance(h, gamma, lam, horizon, 6000)
            assert np.linalg.norm(direct.sigma - quad) <= 1e-6
