"""Finite-sum objectives f(x) = (1/N) * sum_k f_k(x) with per-component gradients.

Two concrete problem families are provided:

* :class:`QuadraticProblem` -- f_k(x) = ||x - a_k||^2 / 2 for anchor points
  a_k.  Everything about it is closed form (identity Hessian, minimizer at
  the anchor mean, all growth constants equal to 1), which makes it the
  reference test bed.
* :class:`LogisticProblem` -- binary logistic regression on feature rows w_k
  with labels y_k in {0, 1}.  Gradients, Hessian, and the moment growth
  constants have stable closed forms.

The module also houses the reference-minimizer Newton solver and the
assumption checker that estimates the constants (L, L_p, rho, mu) a problem
satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


class ProblemError(RuntimeError):
    pass


class MinimizerError(ProblemError):
    """Raised when a reference minimizer cannot be produced."""


class FiniteSumProblem:
    """Base class for finite-sum objectives.

    Subclasses must set ``n_components`` (N) and ``dim`` (d) and implement
    ``component_value`` and ``component_gradient``.  The batched hooks have
    generic loop fallbacks; concrete problems override them with vectorized
    versions because the optimizer and the Monte-Carlo ensembles run through
    them in hot loops.

    Instances are immutable after construction and safe for concurrent reads.
    """

    n_components: int
    dim: int

    # -- scalar interface -------------------------------------------------

    def component_value(self, k: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def component_gradient(self, k: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, x: np.ndarray) -> float:
        return float(
            np.mean([self.component_value(k, x) for k in range(self.n_components)])
        )

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gradient_table(x).mean(axis=0)

    # -- batched interface -------------------------------------------------

    def gradient_table(self, x: np.ndarray) -> np.ndarray:
        """All component gradients at one point, shape (N, d)."""
        return np.stack(
            [self.component_gradient(k, x) for k in range(self.n_components)]
        )

    def component_gradients(self, ks: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Gradient of component ks[i] at row xs[i]; shapes (B,), (B, d) -> (B, d)."""
        return np.stack(
            [self.component_gradient(int(k), x) for k, x in zip(ks, xs)]
        )

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Objective value at each row of xs, shape (B, d) -> (B,)."""
        return np.array([self.value(x) for x in xs])

    # -- optional structure -------------------------------------------------

    def hessian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} exposes no Hessian")

    def reference_minimizer(self) -> np.ndarray:
        raise NotImplementedError(
            f"{type(self).__name__} exposes no reference minimizer"
        )

    def describe(self) -> dict:
        return {"type": type(self).__name__, "N": self.n_components, "d": self.dim}

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of dimension {self.dim}, got {x.shape}")
        return x


class QuadraticProblem(FiniteSumProblem):
    """f_k(x) = ||x - a_k||^2 / 2 with anchors a_k; minimizer is the anchor mean.

    ``full_gradient`` uses the closed form x - mean(anchors) so that the
    secant identity <x - x*, grad f(x)> == ||x - x*||^2 holds bitwise.
    """

    def __init__(self, anchors: np.ndarray, metadata: dict | None = None):
        anchors = np.asarray(anchors, dtype=float)
        if anchors.ndim != 2 or anchors.shape[0] < 1:
            raise ValueError("anchors must be a nonempty (N, d) array")
        self.anchors = anchors
        self.n_components, self.dim = anchors.shape
        self._anchor_mean = anchors.mean(axis=0)
        self.metadata = dict(metadata or {})

    def component_value(self, k, x):
        x = self._check_dim(x)
        diff = x - self.anchors[k]
        return 0.5 * float(diff @ diff)

    def component_gradient(self, k, x):
        x = self._check_dim(x)
        return x - self.anchors[k]

    def value(self, x):
        x = self._check_dim(x)
        return 0.5 * float(((x - self.anchors) ** 2).sum(axis=1).mean())

    def full_gradient(self, x):
        x = self._check_dim(x)
        return x - self._anchor_mean

    def gradient_table(self, x):
        x = self._check_dim(x)
        return x - self.anchors

    def component_gradients(self, ks, xs):
        return xs - np.take(self.anchors, ks, axis=0)

    def values(self, xs):
        diffs = xs[:, None, :] - self.anchors[None, :, :]
        return 0.5 * (diffs**2).sum(axis=2).mean(axis=1)

    def hessian(self, x):
        return np.eye(self.dim)

    def reference_minimizer(self):
        return self._anchor_mean.copy()

    def describe(self):
        return {
            "type": "quadratic",
            "N": self.n_components,
            "d": self.dim,
            **self.metadata,
        }


class LogisticProblem(FiniteSumProblem):
    """Binary logistic regression: f_k(x) = log(1 + exp(<x, w_k>)) - y_k <x, w_k>.

    The logistic probability p_k(x) = expit(<x, w_k>) is evaluated with the
    overflow-safe branch so large inner products never overflow exp.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        metadata: dict | None = None,
    ):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, d) array")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"labels must have shape ({features.shape[0]},), got {labels.shape}"
            )
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("labels must be binary (0 or 1)")
        self.features = features
        self.labels = labels
        self.n_components, self.dim = features.shape
        self.metadata = dict(metadata or {})
        self._minimizer_cache: np.ndarray | None = None

    def component_value(self, k, x):
        x = self._check_dim(x)
        t = float(self.features[k] @ x)
        return float(np.logaddexp(0.0, t) - self.labels[k] * t)

    def component_gradient(self, k, x):
        x = self._check_dim(x)
        t = float(self.features[k] @ x)
        return self.features[k] * (expit(t) - self.labels[k])

    def value(self, x):
        x = self._check_dim(x)
        t = self.features @ x
        return float(np.mean(np.logaddexp(0.0, t) - self.labels * t))

    def full_gradient(self, x):
        x = self._check_dim(x)
        t = self.features @ x
        return self.features.T @ (expit(t) - self.labels) / self.n_components

    def gradient_table(self, x):
        x = self._check_dim(x)
        t = self.features @ x
        return self.features * (expit(t) - self.labels)[:, None]

    def component_gradients(self, ks, xs):
        wk = np.take(self.features, ks, axis=0)
        t = np.einsum("bd,bd->b", wk, xs)
        return wk * (expit(t) - np.take(self.labels, ks))[:, None]

    def values(self, xs):
        t = xs @ self.features.T
        return np.mean(np.logaddexp(0.0, t) - self.labels[None, :] * t, axis=1)

    def hessian(self, x):
        return logistic_hessian(self, x)

    def reference_minimizer(self):
        # Lazy Newton solve; the cache is a pure function of the immutable data.
        if self._minimizer_cache is None:
            self._minimizer_cache = solve_minimizer(self)
        return self._minimizer_cache.copy()

    def describe(self):
        return {
            "type": "logistic",
            "N": self.n_components,
            "d": self.dim,
            **self.metadata,
        }


def logistic_hessian(problem: LogisticProblem, x: np.ndarray) -> np.ndarray:
    """Hessian (1/N) * sum_k p_k(x) (1 - p_k(x)) w_k w_k^T, symmetrized."""
    x = problem._check_dim(x)
    p = expit(problem.features @ x)
    weighted = problem.features * (p * (1.0 - p))[:, None]
    h = weighted.T @ problem.features / problem.n_components
    return (h + h.T) / 2.0


def lipschitz_constant_p(problem: FiniteSumProblem, p: int = 1) -> float:
    """Closed-form growth constant L_p for the order-2p gradient bound.

    For the logistic problem L_p = (1 / (4**p * N)) * sum_k ||w_k||^(4p);
    the quadratic problem has L_p = 1 for every p.
    """
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if isinstance(problem, QuadraticProblem):
        return 1.0
    if isinstance(problem, LogisticProblem):
        norms2 = (problem.features**2).sum(axis=1)
        return float(np.mean(norms2 ** (2 * p)) / 4**p)
    raise ProblemError(
        f"no closed form for L_p on {type(problem).__name__}"
    )


def solve_minimizer(
    problem: FiniteSumProblem,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Reference minimizer with gradient-norm stopping rule ||grad f|| <= tol.

    Quadratic problems are dispatched to their closed form.  Otherwise a
    damped Newton iteration is used: full Newton step, halved while the
    objective value increases.  Non-convergence within ``max_iter`` raises
    :class:`MinimizerError` carrying the last gradient norm; separable
    logistic data (minimizer at infinity) surfaces either that way or through
    the flat-ray check below.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(problem, QuadraticProblem):
        return problem.reference_minimizer()

    x = np.zeros(problem.dim)
    for _ in range(max_iter):
        grad = problem.full_gradient(x)
        grad_norm = float(np.linalg.norm(grad))
        hess = problem.hessian(x)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise MinimizerError(
                "singular Hessian during Newton iteration; "
                "consider adding a small ridge term to the data"
            ) from exc
        if grad_norm <= tol:
            # On separable data the loss plateaus along a ray: the gradient
            # decays below any tolerance while the quadratic model still
            # proposes a macroscopic move.  A genuine interior minimizer has
            # a Newton step that vanishes together with the gradient.
            if float(np.linalg.norm(step)) > np.sqrt(tol) * (
                1.0 + float(np.linalg.norm(x))
            ):
                raise MinimizerError(
                    f"gradient norm {grad_norm:.3e} reached tolerance on a "
                    "flat ray; the minimizer may lie at infinity "
                    "(separable data?)"
                )
            return x
        if not np.all(np.isfinite(step)):
            raise MinimizerError(
                "non-finite Newton step; consider adding a small ridge term"
            )
        # Step halving keeps the iteration monotone in the objective.
        v0 = problem.value(x)
        t = 1.0
        while t > 1e-14 and problem.value(x + t * step) > v0:
            t /= 2.0
        x = x + t * step
    grad_norm = float(np.linalg.norm(problem.full_gradient(x)))
    raise MinimizerError(
        f"Newton did not reach gradient norm {tol} in {max_iter} iterations "
        f"(last gradient norm {grad_norm:.3e}); the minimizer may lie at infinity"
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Estimated problem constants and per-assumption verdicts.

    ``mu_estimate`` is an empirical lower-bound probe (the minimum of the
    secant ratio over sampled points), never a certificate.  ``rho`` is the
    minimum Hessian eigenvalue at the reference minimizer, or None when the
    problem exposes no Hessian.
    """

    L: float
    L_p: dict[int, float]
    rho: float | None
    mu_estimate: float
    satisfied_flags: dict[str, bool]
    sample_count: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "L_p": {str(p): v for p, v in self.L_p.items()},
            "rho": self.rho,
            "mu_estimate": self.mu_estimate,
            "satisfied_flags": dict(self.satisfied_flags),
            "sample_count": self.sample_count,
            "seed": self.seed,
        }


def check_assumptions(
    problem: FiniteSumProblem,
    p_list: tuple[int, ...] = (1, 2),
    sample_count: int = 1000,
    seed: int = 0,
) -> AssumptionReport:
    """Probe the standing assumptions on ``problem`` at sampled points.

    Closed-form constants are used where available; the gradient-growth
    bounds are spot-checked at ``sample_count`` Gaussian points around the
    reference minimizer at several radii.  A missing reference minimizer is
    an error; a missing Hessian only blanks out ``rho``.
    """
    try:
        x_star = problem.reference_minimizer()
    except NotImplementedError as exc:
        raise MinimizerError(
            "assumption checks need a reference minimizer"
        ) from exc

    rng = np.random.default_rng(seed)
    d = problem.dim
    radii = np.repeat([0.1, 1.0, 10.0], max(1, sample_count // 3 + 1))[:sample_count]
    points = x_star[None, :] + radii[:, None] * rng.standard_normal((sample_count, d))

    L = lipschitz_constant_p(problem, 1)
    L_p = {p: lipschitz_constant_p(problem, p) for p in p_list}

    rho = None
    try:
        hess = problem.hessian(x_star)
        rho = float(np.linalg.eigvalsh((hess + hess.T) / 2.0).min())
    except NotImplementedError:
        pass

    table_star = problem.gradient_table(x_star)
    secant_positive = True
    growth_ok = {p: True for p in p_list}
    mu_min = np.inf
    for x in points:
        diff = x - x_star
        v = float(diff @ diff)
        if v == 0.0:
            continue
        secant = float(diff @ problem.full_gradient(x))
        if secant <= 0.0:
            secant_positive = False
        mu_min = min(mu_min, secant / v)
        disc2 = ((problem.gradient_table(x) - table_star) ** 2).sum(axis=1)
        for p in p_list:
            if np.mean(disc2**p) > L_p[p] * v**p * (1.0 + 1e-12):
                growth_ok[p] = False

    flags = {
        "secant_positive": secant_positive,
        "gradient_growth_bounded": growth_ok.get(1, True),
        "hessian_min_eig_above_half": (rho is not None and rho > 0.5),
        "restricted_secant_positive": mu_min > 0.0,
    }
    for p in p_list:
        flags[f"moment_growth_bounded_p{p}"] = growth_ok[p]

    return AssumptionReport(
        L=L,
        L_p=L_p,
        rho=rho,
        mu_estimate=float(mu_min),
        satisfied_flags=flags,
        sample_count=sample_count,
        seed=seed,
    )


def random_quadratic(
    n_components: int, dim: int, seed: int, scale: float = 1.0
) -> QuadraticProblem:
    """Quadratic problem with seeded Gaussian anchors."""
    rng = np.random.default_rng(seed)
    anchors = scale * rng.standard_normal((n_components, dim))
    return QuadraticProblem(
        anchors,
        metadata={"generator": "gaussian-anchors", "seed": seed, "scale": scale},
    )


def random_logistic(
    n_components: int,
    dim: int,
    seed: int,
    feature_scale: float = 3.0,
    parameter_scale: float = 0.3,
) -> LogisticProblem:
    """Synthetic logistic instance with labels drawn from the model itself.

    The default scales give a well-conditioned desk-scale instance (the
    Hessian minimum eigenvalue at the optimum comfortably exceeds 1/2 for
    N >> d) while keeping the classes overlapping, so the data stays
    non-separable and the Newton solve is well posed.
    """
    rng = np.random.default_rng(seed)
    features = feature_scale * rng.standard_normal((n_components, dim))
    x_true = parameter_scale * rng.standard_normal(dim)
    labels = (rng.random(n_components) < expit(features @ x_true)).astype(float)
    return LogisticProblem(
        features,
        labels,
        metadata={
            "generator": "gaussian-logistic",
            "seed": seed,
            "feature_scale": feature_scale,
            "parameter_scale": parameter_scale,
        },
    )
