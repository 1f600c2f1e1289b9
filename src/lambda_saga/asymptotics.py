"""Asymptotic covariance of the scaled iterate error sqrt(n) (X_n - x*).

With step 1/n the scaled error is asymptotically Gaussian with covariance

    Sigma = (1 - lam)^2 * integral_0^inf exp(-(H - I/2) u)^T Gamma
                                         exp(-(H - I/2) u) du

where H is the objective Hessian at the minimizer (whose smallest eigenvalue
rho must exceed 1/2 for the integral to converge) and Gamma is the average
outer product of the component gradients at the minimizer.  Sigma is the
unique solution of the stationarity equation

    (H - I/2) Sigma + Sigma (H - I/2) = (1 - lam)^2 * Gamma.

Two independent routes compute it: :func:`solve_lyapunov` solves the
stationarity equation exactly in the eigenbasis of H (the primary path) and
:func:`quadrature_covariance` integrates the defining integral by composite
Simpson quadrature (the cross-checking oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .problems import FiniteSumProblem

_SYMMETRY_TOL = 1e-10


class CovarianceError(ValueError):
    pass


def _require_symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise CovarianceError(f"{name} must be a square matrix, got {mat.shape}")
    asym = float(np.abs(mat - mat.T).max())
    if asym > _SYMMETRY_TOL:
        raise CovarianceError(
            f"{name} is asymmetric beyond tolerance: max deviation {asym:.3e}"
        )
    return (mat + mat.T) / 2.0


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    h = _require_symmetric(h, "H")
    return float(np.linalg.eigvalsh(h).min())


def gamma_matrix(problem: FiniteSumProblem, x_star: np.ndarray) -> np.ndarray:
    """Average outer product of component gradients at the minimizer.

    ``x_star`` must actually be a stationary point: the full gradient norm
    there is checked against 1e-8.
    """
    x_star = np.asarray(x_star, dtype=float)
    grad_norm = float(np.linalg.norm(problem.full_gradient(x_star)))
    if grad_norm > 1e-8:
        raise CovarianceError(
            f"x_star is not stationary: ||grad f(x_star)|| = {grad_norm:.3e} > 1e-8"
        )
    table = problem.gradient_table(x_star)
    return np.einsum("ki,kj->ij", table, table) / problem.n_components


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Covariance bundle (H, Gamma, lam, Sigma, rho) with Sigma validated
    against the stationarity equation at construction."""

    h: np.ndarray
    gamma: np.ndarray
    lam: float
    sigma: np.ndarray
    rho: float


def solve_lyapunov(
    h: np.ndarray, gamma: np.ndarray, lam: float
) -> AsymptoticCovariance:
    """Solve (H - I/2) Sigma + Sigma (H - I/2) = (1 - lam)^2 Gamma exactly.

    With H = Q diag(e) Q^T and Gamma' = Q^T Gamma Q the solution is
    Sigma'_{ij} = (1 - lam)^2 Gamma'_{ij} / (e_i + e_j - 1) rotated back.
    The scale factor multiplies the lam = 0 solution, so Sigma(lam) equals
    (1 - lam)^2 * Sigma(0) elementwise exactly.
    """
    if not (0.0 <= lam <= 1.0):
        raise CovarianceError(f"lam must lie in [0, 1], got {lam}")
    h = _require_symmetric(h, "H")
    gamma = _require_symmetric(gamma, "Gamma")
    if gamma.shape != h.shape:
        raise CovarianceError(
            f"H and Gamma must have matching shapes, got {h.shape} and {gamma.shape}"
        )
    evals, q = np.linalg.eigh(h)
    rho = float(evals.min())
    if rho <= 0.5:
        raise CovarianceError(
            f"minimum Hessian eigenvalue must exceed 1/2, got rho = {rho:.6g}"
        )

    gamma_rot = q.T @ gamma @ q
    base_rot = gamma_rot / (evals[:, None] + evals[None, :] - 1.0)
    base = q @ base_rot @ q.T
    base = (base + base.T) / 2.0
    sigma = (1.0 - lam) ** 2 * base

    _validate_solution(h, gamma, lam, sigma)
    return AsymptoticCovariance(h=h, gamma=gamma, lam=lam, sigma=sigma, rho=rho)


def _validate_solution(h, gamma, lam, sigma):
    d = h.shape[0]
    b = h - 0.5 * np.eye(d)
    residual = b @ sigma + sigma @ b - (1.0 - lam) ** 2 * gamma
    limit = 1e-10 * max(1.0, float(np.linalg.norm(gamma)))
    resid_norm = float(np.linalg.norm(residual))
    if resid_norm > limit:
        raise CovarianceError(
            f"stationarity residual {resid_norm:.3e} exceeds {limit:.3e}"
        )
    min_eig = float(np.linalg.eigvalsh(sigma).min())
    if min_eig < -1e-12:
        raise CovarianceError(
            f"solution is not positive semidefinite: min eigenvalue {min_eig:.3e}"
        )


def required_horizon(rho: float, tail: float = 1e-12) -> float:
    """Integration horizon making the integrand tail at most ``tail``."""
    if rho <= 0.5:
        raise CovarianceError(f"rho must exceed 1/2, got {rho}")
    return -math.log(tail) / (2.0 * rho - 1.0)


def quadrature_covariance(
    h: np.ndarray,
    gamma: np.ndarray,
    lam: float,
    horizon: float,
    steps: int,
) -> np.ndarray:
    """Composite Simpson quadrature of the covariance integral.

    The node matrices exp(-(H - I/2) u_i) are built by repeated
    multiplication with the per-interval exponential, which is computed once
    by scipy's scaling-and-squaring ``expm``.  Pure function; independent of
    the eigenbasis solve except for the admissibility check on rho.
    """
    if not (0.0 <= lam <= 1.0):
        raise CovarianceError(f"lam must lie in [0, 1], got {lam}")
    h = _require_symmetric(h, "H")
    gamma = _require_symmetric(gamma, "Gamma")
    if steps < 2 or steps % 2 != 0:
        raise CovarianceError(f"steps must be an even integer >= 2, got {steps}")
    rho = float(np.linalg.eigvalsh(h).min())
    if rho <= 0.5:
        raise CovarianceError(
            f"minimum Hessian eigenvalue must exceed 1/2, got rho = {rho:.6g}"
        )
    needed = required_horizon(rho)
    if horizon < needed:
        raise CovarianceError(
            f"horizon {horizon:.3g} too small for the integrand tail; "
            f"need at least {needed:.3g}"
        )
    if lam == 1.0:
        return np.zeros_like(h)

    d = h.shape[0]
    step = horizon / steps
    interval_exp = expm(-(h - 0.5 * np.eye(d)) * step)
    nodes = np.empty((steps + 1, d, d))
    nodes[0] = np.eye(d)
    for i in range(steps):
        nodes[i + 1] = nodes[i] @ interval_exp

    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= step / 3.0

    integrand = np.matmul(nodes.transpose(0, 2, 1) @ gamma, nodes)
    total = np.tensordot(weights, integrand, axes=(0, 0))
    total = (total + total.T) / 2.0
    return (1.0 - lam) ** 2 * total
