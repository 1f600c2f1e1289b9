"""Interpolated SGD/SAGA optimization with decreasing steps.

The optimizer keeps a table of stored component gradients and corrects each
sampled gradient by a lam-scaled control variate built from that table:
lam = 0 is plain stochastic gradient descent, lam = 1 is the full
variance-reduced update.  Alongside the iteration the package ships the
convergence diagnostics, the asymptotic-covariance solver, Monte-Carlo rate
estimators, and inequality oracles used to verify its behavior, plus a CLI
that drives desk-scale experiments.
"""

from .asymptotics import (
    AsymptoticCovariance,
    CovarianceError,
    gamma_matrix,
    solve_lyapunov,
)
from .datasets import DIGIT_SPLIT, DatasetError, LabelRule, load_dataset
from .engine import (
    DiagnosticsSnapshot,
    EnsembleResult,
    IndexSampler,
    OptimizerState,
    RunError,
    RunTrace,
    derive_seeds,
    diagnostics,
    gaussian_initial_point,
    init_state,
    lambda_saga_step,
    run,
    run_ensemble,
    write_trace_csv,
    write_trace_metadata,
)
from .inequalities import (
    NormPowerConstants,
    RecursionTrace,
    check_norm_power_inequality,
    cp_dp,
    recursion_bound_trace,
)
from .montecarlo import (
    MonteCarloSummary,
    RateEstimate,
    clt_ensemble,
    fit_loglog_slope,
    rate_ensemble,
    summarize_scaled_errors,
)
from .problems import (
    AssumptionReport,
    FactoredRows,
    FiniteSumProblem,
    LogisticProblem,
    MinimizerError,
    ProblemError,
    QuadraticProblem,
    check_assumptions,
    random_logistic,
    random_quadratic,
    solve_minimizer,
)
from .schedule import (
    RateConditionReport,
    StepSchedule,
    validate_rate_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCovariance",
    "AssumptionReport",
    "CovarianceError",
    "DIGIT_SPLIT",
    "DatasetError",
    "DiagnosticsSnapshot",
    "EnsembleResult",
    "FactoredRows",
    "FiniteSumProblem",
    "IndexSampler",
    "LabelRule",
    "LogisticProblem",
    "MinimizerError",
    "MonteCarloSummary",
    "NormPowerConstants",
    "OptimizerState",
    "ProblemError",
    "QuadraticProblem",
    "RateConditionReport",
    "RateEstimate",
    "RecursionTrace",
    "RunError",
    "RunTrace",
    "StepSchedule",
    "check_assumptions",
    "check_norm_power_inequality",
    "clt_ensemble",
    "cp_dp",
    "derive_seeds",
    "diagnostics",
    "fit_loglog_slope",
    "gamma_matrix",
    "gaussian_initial_point",
    "init_state",
    "lambda_saga_step",
    "load_dataset",
    "random_logistic",
    "random_quadratic",
    "rate_ensemble",
    "recursion_bound_trace",
    "run",
    "run_ensemble",
    "solve_lyapunov",
    "solve_minimizer",
    "summarize_scaled_errors",
    "validate_rate_conditions",
    "write_trace_csv",
    "write_trace_metadata",
]
