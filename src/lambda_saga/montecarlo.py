"""Monte-Carlo verification of the asymptotic distribution and moment rates.

:func:`clt_ensemble` estimates the covariance of sqrt(n) (X_n - x*) from M
independent replications run with step 1/n (the only schedule the normality
result covers, so it is hard-required here).  :func:`rate_estimate` estimates
the decay of E ||X_n - x*||^(2p) along the checkpoint grid of an ensemble
and fits a log-log slope, together with the matching value-gap moments;
:func:`rate_ensemble` runs the ensemble and estimates one order p.

Two constants fix what no caller varies: ``_BOOTSTRAP_RESAMPLES``, the
resamples behind a summary's ``stderr``, and ``_BURN_IN``, the least
checkpoint a slope fit uses, since the first steps, with gamma near c, are
far from the asymptotic rate.  ``_BOOTSTRAP_SLICE`` bounds the draws a
bootstrap holds at a time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .engine import EnsembleResult, _check_integer, run_ensemble
from .problems import FiniteSumProblem
from .schedule import StepSchedule, validate_rate_conditions

_CLT_SCHEDULE = StepSchedule(c=1.0, alpha=1.0)
_BOOTSTRAP_RESAMPLES = 1000
_BURN_IN = 100
# Most draws of the bootstrap held at once: whole resamples of M draws up to
# 2**16 values (512 KiB as int64), or one resample if M is larger.
_BOOTSTRAP_SLICE = 1 << 16


@dataclass(frozen=True)
class MonteCarloSummary:
    """Empirical distribution of the scaled final error across replications.

    ``sigma2_scalar`` is the variance of the coordinate sum of the scaled
    error, which equals ones @ sample_cov @ ones up to round-off; ``stderr``
    is its bootstrap standard error.
    """

    m_replications: int
    n_iters: int
    lam: float
    sample_cov: np.ndarray
    sigma2_scalar: float
    stderr: float
    base_seed: int

    def to_dict(self) -> dict:
        record = asdict(self)
        record.update({"M": record.pop("m_replications"), "n": record.pop("n_iters"),
                       "lambda": record.pop("lam"), "d": self.sample_cov.shape[0],
                       "sample_cov": self.sample_cov.tolist()})
        return record


def clt_ensemble(
    problem: FiniteSumProblem,
    lam: float,
    n_iters: int,
    m_replications: int,
    base_seed: int,
    x_ref: np.ndarray,
    workers: int = 1,
    scaled_errors_out: np.ndarray | None = None,
) -> MonteCarloSummary:
    """Sample covariance of sqrt(n) (X_n - x_ref) over M replications.

    Uses the fixed 1/n step.  Replication m runs with seed
    ``base_seed XOR m``; the summary depends only on the per-replication
    results indexed by m, never on execution order.
    """
    if m_replications < 2:
        raise ValueError("at least 2 replications are required")
    x_ref = np.asarray(x_ref, dtype=float)
    result = run_ensemble(
        problem, lam, _CLT_SCHEDULE, n_iters, m_replications, base_seed,
        x_ref=x_ref, workers=workers,
    )
    scaled = np.sqrt(n_iters) * (result.final_iterates - x_ref)
    if scaled_errors_out is not None:
        scaled_errors_out[:] = scaled
    return summarize_scaled_errors(scaled, lam, n_iters, base_seed)


def summarize_scaled_errors(
    scaled: np.ndarray,
    lam: float,
    n_iters: int,
    base_seed: int,
) -> MonteCarloSummary:
    """Build a MonteCarloSummary from an (M, d) array of scaled errors.

    The bootstrap draws its resamples a slice at a time.  The generator's
    stream does not depend on how its draws are split into calls (PCG64
    keeps the unused 32-bit half of an output for the next call), and each
    resample's variance is reduced over its own row, so ``stderr`` has the
    bits of drawing all resamples in one call.
    """
    m = scaled.shape[0]
    sample_cov = np.atleast_2d(np.cov(scaled.T, ddof=1))
    sample_cov = (sample_cov + sample_cov.T) / 2.0
    h_values = scaled.sum(axis=1)
    sigma2 = float(h_values.var(ddof=1))

    rng = np.random.default_rng(base_seed ^ 0x5EED_B007)
    boot = np.empty(_BOOTSTRAP_RESAMPLES)
    rows = max(1, _BOOTSTRAP_SLICE // m)
    for start in range(0, _BOOTSTRAP_RESAMPLES, rows):
        stop = min(start + rows, _BOOTSTRAP_RESAMPLES)
        resampled = rng.integers(0, m, size=(stop - start, m))
        boot[start:stop] = h_values[resampled].var(axis=1, ddof=1)
    return MonteCarloSummary(
        m_replications=m,
        n_iters=n_iters,
        lam=lam,
        sample_cov=sample_cov,
        sigma2_scalar=sigma2,
        stderr=float(boot.std(ddof=1)),
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class RateEstimate:
    """Moment decay estimates along a checkpoint grid.

    ``slope`` is the least-squares slope of log(moment) against log(n) over
    the checkpoints at or above ``_BURN_IN``; ``slope_ci`` its ~95% half
    width.  ``scaled_sup_ratio`` is max over checkpoints of
    moment * n^(p * alpha) normalized by its value at the first checkpoint, a
    proxy for the boundedness of the rate constant.  ``value_gap_*`` are the
    analogous quantities for E (f(X_n) - f(x*))^p.  ``predicted_slope`` and
    ``slope_minus_predicted`` are None for an estimate made without rho.
    """

    p: int
    alpha: float
    lam: float
    checkpoints: tuple[int, ...]
    moments: tuple[float, ...]
    slope: float | None
    slope_ci: float | None
    value_gap_moments: tuple[float, ...]
    value_gap_slope: float | None
    value_gap_slope_ci: float | None
    scaled_sup_ratio: float | None
    predicted_slope: float | None = None
    slope_minus_predicted: float | None = None
    condition_report: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    m_replications: int = 0
    base_seed: int = 0

    def to_dict(self) -> dict:
        record = asdict(self)
        record.update({"lambda": record.pop("lam"), "M": record.pop("m_replications")})
        return record


def fit_loglog_slope(ns, values) -> tuple[float, float]:
    """Least-squares slope of log(values) vs log(ns) with ~95% half-width."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    design = np.vstack([x, np.ones_like(x)]).T
    coef, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope = float(coef[0])
    dof = len(x) - 2
    if dof <= 0:
        return slope, float("inf")
    # Full rank (dof > 0, distinct checkpoints): lstsq returns the residual.
    ss_res = float(residual[0])
    sxx = float(((x - x.mean()) ** 2).sum())
    se = np.sqrt(ss_res / dof / sxx)
    return slope, float(1.96 * se)


def check_rate_inputs(checkpoints, orders, mu=None) -> tuple[int, ...]:
    """Validate a rate estimate's orders, ``mu`` and checkpoints; sort the latter."""
    for p in orders:
        if p < 1:
            raise ValueError(f"p must be a positive integer, got {p}")
    if mu is not None and not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    checkpoints = tuple(sorted({_check_integer(n, "checkpoint") for n in checkpoints}))
    if len(checkpoints) < 2:
        raise ValueError("at least 2 checkpoints are needed for a slope")
    if checkpoints[0] < 2:
        raise ValueError("checkpoints must be iteration counters >= 2")
    return checkpoints


def rate_ensemble(
    problem: FiniteSumProblem,
    lam: float,
    schedule: StepSchedule,
    p: int,
    checkpoints: tuple[int, ...],
    m_replications: int,
    base_seed: int,
    x_ref: np.ndarray,
    mu: float | None = None,
    workers: int = 1,
) -> RateEstimate:
    """:func:`rate_estimate` of M replications run to the last checkpoint."""
    checkpoints = check_rate_inputs(checkpoints, (p,), mu)
    result = run_ensemble(
        problem, lam, schedule, checkpoints[-1] - 1, m_replications, base_seed,
        x_ref=x_ref, checkpoints=checkpoints, workers=workers,
    )
    return rate_estimate(result, lam, schedule, p, mu)


def rate_estimate(
    result: EnsembleResult,
    lam: float,
    schedule: StepSchedule,
    p: int,
    mu: float | None = None,
    rho: float | None = None,
) -> RateEstimate:
    """Estimate E ||X_n - x*||^(2p) at each checkpoint of an ensemble run
    with ``x_ref``.

    When ``mu`` is given the rate-guarantee inequalities are checked;
    violations are recorded as warnings.  Checkpoints below ``_BURN_IN`` are
    kept in the moment table but excluded from the slope fit.  A nonpositive
    moment (exact convergence) leaves the slope undefined rather than
    failing.  One ensemble serves every moment order.

    Given ``rho``, the smallest eigenvalue of H(x*), the slope is set beside
    that of the linearised recursion e <- (1 - c rho / n^alpha) e + noise
    (Bach and Moulines, NeurIPS 2011; not a result of the paper): -p alpha
    for alpha < 1 and -p min(1, 2 c rho) for alpha = 1.  No restricted secant
    constant exceeds rho, so a larger ``mu`` is warned of, last.
    """
    if result.checkpoint_iterates and not result.checkpoint_sq_error:
        raise ValueError(
            "the ensemble recorded no squared errors at its checkpoints; "
            "run it with x_ref"
        )
    checkpoints = check_rate_inputs(result.checkpoint_sq_error, (p,), mu)
    warnings: list[str] = []
    condition_report: dict = {}
    if mu is not None:
        report = validate_rate_conditions(schedule, mu, p)
        condition_report = report.to_dict()
        if not (report.l2_rate_ok if p == 1 else report.l2p_rate_ok):
            warnings.extend(report.messages)

    moments = tuple(
        float(np.mean(result.checkpoint_sq_error[n] ** p)) for n in checkpoints
    )
    gap_moments = tuple(
        float(np.mean(result.checkpoint_value_gap[n] ** p)) for n in checkpoints
    )

    fit_ns = [n for n in checkpoints if n >= _BURN_IN]
    fit_moments = [m for n, m in zip(checkpoints, moments) if n >= _BURN_IN]
    fit_gaps = [g for n, g in zip(checkpoints, gap_moments) if n >= _BURN_IN]

    def safe_fit(ns, vals, label):
        if len(ns) < 2:
            warnings.append(f"{label}: fewer than 2 checkpoints after burn-in")
            return None, None
        if any(v <= 0.0 for v in vals):
            warnings.append(f"{label}: nonpositive moment, slope undefined")
            return None, None
        return fit_loglog_slope(ns, vals)

    slope, slope_ci = safe_fit(fit_ns, fit_moments, "moment")
    gap_slope, gap_ci = safe_fit(fit_ns, fit_gaps, "value-gap moment")

    predicted = slope_gap = None
    if rho is not None:
        rate = schedule.alpha if schedule.alpha < 1 else min(1.0, 2 * schedule.c * rho)
        predicted = -p * rate
        slope_gap = None if slope is None else slope - predicted
        if mu is not None and mu > rho:
            warnings.append(f"mu={mu:g} exceeds rho={rho:.6g}, the smallest Hessian "
                            "eigenvalue at x*, which bounds every secant constant")

    scaled_sup_ratio = None
    if all(m > 0.0 for m in moments):
        scaled = [
            m * float(n) ** (p * schedule.alpha)
            for n, m in zip(checkpoints, moments)
        ]
        scaled_sup_ratio = float(max(scaled) / scaled[0])

    return RateEstimate(
        p=p,
        alpha=schedule.alpha,
        lam=lam,
        checkpoints=checkpoints,
        moments=moments,
        slope=slope,
        slope_ci=slope_ci,
        value_gap_moments=gap_moments,
        value_gap_slope=gap_slope,
        value_gap_slope_ci=gap_ci,
        scaled_sup_ratio=scaled_sup_ratio,
        predicted_slope=predicted,
        slope_minus_predicted=slope_gap,
        condition_report=condition_report,
        warnings=tuple(warnings),
        m_replications=len(result.seeds),
        base_seed=result.seeds[0],  # replication 0's seed is base_seed XOR 0
    )
