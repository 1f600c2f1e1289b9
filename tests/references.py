"""Reference implementations the tests check the library against.

* The SGD and SAGA updates written step by step, independently of the
  engine, as the references of its bitwise reduction checks.  Each gradient
  comes from the scalar hook ``component_gradient``, not from the batched
  ``component_gradients`` the engine steps through.
* The bootstrap standard error drawn in one piece, the reference of the
  sliced one.
* ``component_value``, one component's objective in closed form, the
  reference of the vectorized ``value`` and of finite-difference gradients.
* ``conditional_step_expectation``, the one-step conditional expectations
  of the iteration by enumerating every draw.
* ``quadrature_covariance`` and ``required_horizon``, the covariance
  integral by composite Simpson quadrature, the independent route that
  ``solve_lyapunov`` is cross-checked against.
"""

import math

import numpy as np
from scipy.linalg import expm

from lambda_saga import QuadraticProblem
from lambda_saga.asymptotics import CovarianceError, _require_symmetric
from lambda_saga.engine import OptimizerState, _DenseTable, _steps


def sgd_reference(problem, schedule, n_iters, indices, x0):
    """Plain stochastic gradient descent."""
    x = x0.copy()
    for i in range(n_iters):
        x = x - schedule.gamma(i + 1) * problem.component_gradient(
            int(indices[i]), x
        )
    return x


def saga_reference(problem, schedule, n_iters, indices, x0):
    """The variance-reduced update with stored gradients, left to right:
    x - gamma * (grad - row + mean), the mean recomputed every N updates."""
    n = problem.n_components
    x = x0.copy()
    rows = problem.gradient_table(x0)
    mean = rows.mean(axis=0)
    updates = 0
    for i in range(n_iters):
        k = int(indices[i])
        grad = problem.component_gradient(k, x)
        x = x - schedule.gamma(i + 1) * ((grad - rows[k]) + mean)
        mean = mean + (grad - rows[k]) / n
        rows[k] = grad
        updates += 1
        if updates == n:
            mean = rows.mean(axis=0)
            updates = 0
    return x


def bootstrap_stderr_reference(h, rng, resamples=1000):
    """Standard error of the variance of ``h`` over ``resamples`` bootstrap
    resamples, all drawn from ``rng`` in one call."""
    m = len(h)
    return h[rng.integers(0, m, (resamples, m))].var(axis=1, ddof=1).std(ddof=1)


def component_value(problem, k, x):
    """f_k(x): ||x - a_k||^2 / 2 on a quadratic problem, and
    log(1 + exp(<w_k, x>)) - y_k <w_k, x> on a logistic one."""
    if isinstance(problem, QuadraticProblem):
        diff = x - problem.anchors[k]
        return 0.5 * float(diff @ diff)
    t = float(problem.features[k] @ x)
    return float(np.logaddexp(0.0, t) - problem.labels[k] * t)


def conditional_step_expectation(state, problem, lam, gamma, x_ref):
    """One-step conditional expectations of a scalar state by enumerating
    every possible draw.

    The N equally likely draws are taken as one kernel step over N copies of
    the state, copy k sampling component k.  Returns ``(expected_iterate,
    expected_a_next)``: the averages over the copies of X_{n+1} and of the
    table discrepancy a_{n+1} against ``problem.gradient_table(x_ref)``.
    Does not mutate the state.
    """
    table_ref = problem.gradient_table(x_ref)
    n_comp = problem.n_components
    copies = OptimizerState(_DenseTable(state.table.rows()[:, 0, :], n_comp),
                            state.mean, state.x[0])
    _steps(copies, problem, lam, (gamma,), np.arange(n_comp)[None, :])
    a_next = ((copies.table.rows() - table_ref[:, None, :]) ** 2).sum(axis=2)
    return copies.x.mean(axis=0), float(a_next.mean(axis=0).mean())


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
