"""Interpolated SGD/SAGA optimization with decreasing steps.

The optimizer keeps a table of stored component gradients and corrects each
sampled gradient by a lam-scaled control variate built from that table:
lam = 0 is plain stochastic gradient descent, lam = 1 is the full
variance-reduced update.  Alongside the iteration the package ships the
convergence diagnostics, asymptotic-covariance solvers, Monte-Carlo rate
estimators, and inequality oracles used to verify its behavior, plus a CLI
that drives desk-scale experiments.
"""

from .asymptotics import (
    AsymptoticCovariance,
    CovarianceError,
    gamma_matrix,
    min_eigenvalue,
    quadrature_covariance,
    required_horizon,
    solve_lyapunov,
)
from .datasets import DIGIT_SPLIT, DatasetError, LabelRule, load_dataset
from .engine import (
    DiagnosticsSnapshot,
    IndexSampler,
    OptimizerState,
    RunError,
    RunTrace,
    conditional_step_expectation,
    diagnostics,
    gaussian_initial_point,
    init_state,
    lambda_saga_step,
    run,
    write_trace_csv,
    write_trace_metadata,
)
from .ensembles import EnsembleResult, derive_seeds, run_ensemble
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
    "conditional_step_expectation",
    "cp_dp",
    "derive_seeds",
    "diagnostics",
    "fit_loglog_slope",
    "gamma_matrix",
    "gaussian_initial_point",
    "init_state",
    "lambda_saga_step",
    "load_dataset",
    "min_eigenvalue",
    "quadrature_covariance",
    "random_logistic",
    "random_quadratic",
    "rate_ensemble",
    "recursion_bound_trace",
    "required_horizon",
    "run",
    "run_ensemble",
    "solve_lyapunov",
    "solve_minimizer",
    "summarize_scaled_errors",
    "validate_rate_conditions",
    "write_trace_csv",
    "write_trace_metadata",
]
