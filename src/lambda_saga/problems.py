"""Finite-sum objectives f(x) = (1/N) * sum_k f_k(x) with per-component gradients.

A problem family is a subclass of :class:`FiniteSumProblem` that declares
its closed forms itself: its ``type_name``, its growth constants L_p
(``_growth_constant``, which ``growth_constant`` calls for p >= 1), its
restricted secant constant mu (``secant_constant``) and its minimizer
(``closed_form_minimizer``).  Two families are provided:

* :class:`QuadraticProblem` -- f_k(x) = ||x - a_k||^2 / 2 for anchor points
  a_k.  Everything about it is closed form (identity Hessian, minimizer at
  the anchor mean, mu and all growth constants equal to 1), which makes it
  the reference test bed.
* :class:`LogisticProblem` -- binary logistic regression on feature rows w_k
  with labels y_k in {0, 1}.  Gradients, Hessian, and the moment growth
  constants have closed forms; mu and the minimizer do not.  Gradients,
  Hessian and the generator's labels take the logistic link from one numpy
  helper, which caps its argument so that exp never overflows.  The gradient
  hooks return :class:`FactoredRows`, the rows w_k * s_k with both factors
  attached.

The module also houses the reference-minimizer Newton solver, the
assumption checker that estimates the constants (L, L_p, rho, mu) a problem
satisfies, and the seeded generators of both families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ProblemError(RuntimeError):
    pass


class MinimizerError(ProblemError):
    """Raised when a reference minimizer cannot be produced."""


class FiniteSumProblem:
    """Base class for finite-sum objectives.

    A family sets ``n_components`` (N) and ``dim`` (d) and implements the
    hooks, vectorized where batched because the optimizer and the
    Monte-Carlo ensembles run through them in hot loops:

    * ``component_gradient(k, x)``, one component at one point;
    * ``value(x)`` and ``full_gradient(x)``, the objective at one point;
    * ``gradient_table(x)``, all component gradients at one point, (N, d),
      as a new array, which callers may overwrite;
    * ``component_gradients(ks, xs)``, the gradient of component ks[i] at
      row xs[i], (B,) and (B, d) -> (B, d), with ``ks`` an intp array (the
      engine stores its sampled indices in a narrower type and widens them
      before a step);
    * ``values(xs)``, the objective at each row of xs, (B, d) -> (B,).

    Optional structure: ``hessian(x)``, for the Newton solve and the ``rho``
    of :func:`check_assumptions`; ``closed_form_minimizer()``, x* when it
    takes no solve; and ``_growth_constant(p)``.  x* itself comes from
    :func:`solve_minimizer` alone.

    Instances are immutable after construction and safe for concurrent reads.
    """

    n_components: int
    dim: int
    # A family's name in ``describe`` (else the class name), its restricted
    # secant constant mu when known, and the parameters ``describe`` reports.
    type_name: str | None = None
    secant_constant: float | None = None
    metadata: dict = {}

    def component_gradient(self, k: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- optional structure -------------------------------------------------

    def hessian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} exposes no Hessian")

    def closed_form_minimizer(self) -> np.ndarray | None:
        """The minimizer x*, or None when it takes a solve."""
        return None

    def growth_constant(self, p: int) -> float:
        """Closed-form L_p of the order-2p gradient growth bound
        mean_k ||grad f_k(x) - grad f_k(x*)||^(2p) <= L_p ||x - x*||^(2p)."""
        if p < 1:
            raise ValueError(f"p must be a positive integer, got {p}")
        return self._growth_constant(p)

    def _growth_constant(self, p: int) -> float:
        raise ProblemError(f"no closed form for L_p on {type(self).__name__}")

    def describe(self) -> dict:
        return {"type": self.type_name or type(self).__name__,
                "N": self.n_components, "d": self.dim, **self.metadata}

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

    type_name = "quadratic"
    secant_constant = 1.0

    def __init__(self, anchors: np.ndarray, metadata: dict | None = None):
        anchors = np.asarray(anchors, dtype=float)
        if anchors.ndim != 2 or 0 in anchors.shape:
            raise ValueError("anchors must be a nonempty (N, d) array")
        self.anchors = anchors
        self.n_components, self.dim = anchors.shape
        self._anchor_mean = anchors.mean(axis=0)
        self.metadata = dict(metadata or {})

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
        return xs - self.anchors.take(ks, axis=0)

    def values(self, xs):
        diffs = xs[:, None, :] - self.anchors[None, :, :]
        return 0.5 * (diffs**2).sum(axis=2).mean(axis=1)

    def hessian(self, x):
        return np.eye(self.dim)

    def closed_form_minimizer(self):
        return self._anchor_mean.copy()

    def _growth_constant(self, p):
        return 1.0


class FactoredRows(np.ndarray):
    """Gradient rows of a linear model together with their two factors.

    Row i is computed as ``features[i] * scalars[i]``: ``features`` is (B, d),
    the rows w_k of the components, and ``scalars`` is (B,), the scalar s_k
    of each component's gradient w_k * s_k(x).  The factors therefore
    determine the rows bit for bit, which lets the ensemble kernel store one
    scalar per component instead of a row (Defazio, Bach and Lacoste-Julien,
    "SAGA", NeurIPS 2014, on linear predictors).  Slices carry no factors,
    and arithmetic on the rows gives plain arrays.
    """

    features: np.ndarray | None = None
    scalars: np.ndarray | None = None

    def __array_wrap__(self, array, context=None, return_scalar=False):
        array = array.view(np.ndarray)
        return array[()] if return_scalar else array


def factored_rows(features: np.ndarray, scalars: np.ndarray) -> FactoredRows:
    """The rows ``features * scalars[:, None]``, carrying both factors."""
    rows = np.multiply(features, scalars[:, None]).view(FactoredRows)
    rows.features, rows.scalars = features, scalars
    return rows


def _logistic(t):
    """The logistic link 1 / (1 + exp(-t)) as e / (1 + e), e = exp(min(t, 709)).

    exp(709) and 1 + exp(709) are finite, so no t warns; the link is exactly 1
    from t = 709 up and exactly 0 where exp(t) underflows.  A float gives the
    bits of a one-element array, so the scalar and batched hooks agree bitwise.
    """
    e = np.exp(np.minimum(t, 709.0))
    return e / (1.0 + e)


class LogisticProblem(FiniteSumProblem):
    """Binary logistic regression: f_k(x) = log(1 + exp(<x, w_k>)) - y_k <x, w_k>.

    The logistic probability p_k(x) = 1 / (1 + exp(-<x, w_k>)) comes from
    :func:`_logistic`, which caps its argument at 709 so that exp never
    overflows; values go through ``logaddexp``, which never overflows either.
    """

    type_name = "logistic"

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        metadata: dict | None = None,
    ):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2 or 0 in features.shape:
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

    def component_gradient(self, k, x):
        # <w_k, x> reduced as in ``component_gradients``: both agree bitwise.
        x = self._check_dim(x)
        t = float(np.einsum("d,d->", self.features[k], x))
        return self.features[k] * (_logistic(t) - self.labels[k])

    def value(self, x):
        x = self._check_dim(x)
        t = self.features @ x
        return float(np.mean(np.logaddexp(0.0, t) - self.labels * t))

    def full_gradient(self, x):
        x = self._check_dim(x)
        t = self.features @ x
        return self.features.T @ (_logistic(t) - self.labels) / self.n_components

    def gradient_table(self, x):
        x = self._check_dim(x)
        t = self.features @ x
        return factored_rows(self.features, _logistic(t) - self.labels)

    def component_gradients(self, ks, xs):
        wk = self.features.take(ks, axis=0)
        t = np.einsum("bd,bd->b", wk, xs)
        return factored_rows(wk, _logistic(t) - self.labels.take(ks))

    def values(self, xs):
        """The objective at each row of xs, built in two (M, N) buffers: the
        margins t, then ``logaddexp(0, t)``, from which ``labels * t`` is
        subtracted in place."""
        t = xs @ self.features.T
        loss = np.logaddexp(0.0, t)
        t *= self.labels
        loss -= t
        return loss.mean(axis=1)

    def hessian(self, x):
        """Hessian (1/N) * sum_k p_k(x) (1 - p_k(x)) w_k w_k^T, symmetrized."""
        x = self._check_dim(x)
        p = _logistic(self.features @ x)
        weighted = self.features * (p * (1.0 - p))[:, None]
        h = weighted.T @ self.features / self.n_components
        return (h + h.T) / 2.0

    def _growth_constant(self, p):
        """L_p = (1 / (4**p * N)) * sum_k ||w_k||^(4p)."""
        norms2 = (self.features**2).sum(axis=1)
        return float(np.mean(norms2 ** (2 * p)) / 4**p)


# Newton's stopping rule ||grad f|| <= _NEWTON_TOL, and its iteration budget.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 200


def solve_minimizer(problem: FiniteSumProblem) -> np.ndarray:
    """Reference minimizer with stopping rule ||grad f|| <= ``_NEWTON_TOL``.

    A closed-form minimizer is returned as it is.  Otherwise a
    damped Newton iteration is used: full Newton step, halved while the
    objective value increases; a family without a Hessian raises its
    NotImplementedError.  Non-convergence within ``_NEWTON_MAX_ITER`` steps raises
    :class:`MinimizerError` carrying the last gradient norm; separable
    logistic data (minimizer at infinity) surfaces either that way or through
    the flat-ray check below.
    """
    x_star = problem.closed_form_minimizer()
    if x_star is not None:
        return x_star

    x = np.zeros(problem.dim)
    for _ in range(_NEWTON_MAX_ITER):
        hess = problem.hessian(x)
        grad = problem.full_gradient(x)
        grad_norm = float(np.linalg.norm(grad))
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise MinimizerError(
                "singular Hessian during Newton iteration; "
                "consider adding a small ridge term to the data"
            ) from exc
        if grad_norm <= _NEWTON_TOL:
            # On separable data the loss plateaus along a ray: the gradient
            # decays below any tolerance while the quadratic model still
            # proposes a macroscopic move.  A genuine interior minimizer has
            # a Newton step that vanishes together with the gradient.
            if float(np.linalg.norm(step)) > np.sqrt(_NEWTON_TOL) * (
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
        f"Newton did not reach gradient norm {_NEWTON_TOL} in {_NEWTON_MAX_ITER} "
        f"iterations (last gradient norm {grad_norm:.3e}); the minimizer may "
        "lie at infinity"
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
    minimizer from :func:`solve_minimizer` at several radii.  A family
    with neither a closed-form minimizer nor a Hessian has no minimizer,
    which is an error; otherwise a missing Hessian only blanks out ``rho``.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    try:
        x_star = solve_minimizer(problem)
    except NotImplementedError as exc:
        raise MinimizerError(
            "assumption checks need a reference minimizer"
        ) from exc

    rng = np.random.default_rng(seed)
    d = problem.dim
    radii = np.repeat([0.1, 1.0, 10.0], max(1, sample_count // 3 + 1))[:sample_count]
    points = x_star[None, :] + radii[:, None] * rng.standard_normal((sample_count, d))

    L = problem.growth_constant(1)
    L_p = {p: problem.growth_constant(p) for p in p_list}

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
    labels = (rng.random(n_components) < _logistic(features @ x_true)).astype(float)
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
