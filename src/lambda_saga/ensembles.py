"""Vectorized batches of independent optimizer runs.

Monte-Carlo verification needs hundreds to thousands of independent
replications of the same configuration.  This module runs them as one
:class:`~lambda_saga.engine.OptimizerState` with M replications, advanced by
the engine's step kernel: iterates are an (M, d) array and each step applies
the one update rule elementwise across replications.  A scalar ``run`` is
the same kernel with M = 1, so every replication is bitwise equal to the
scalar run with its seed; the tests check it.  The engine's docstring
describes the kernel and its two table forms.

Each replication m consumes the sampling stream of ``IndexSampler(seed_m)``
exactly as a scalar run with that seed would, so replications stay
independent, reproducible, and order-insensitive: results are aggregated by
replication index, never by completion order.  Replication seeds are derived
as ``base_seed XOR replication_index``.

``workers`` > 1 distributes replication chunks over processes; the chunks
are reassembled by index so the result is identical to a single-process run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .engine import IndexSampler, OptimizerState, _advance
from .problems import FiniteSumProblem
from .schedule import StepSchedule


@dataclass
class EnsembleResult:
    """Per-replication outputs of a batched run.

    ``checkpoint_*`` dictionaries map an iteration index n (state counter,
    so n = n_iters + 1 is the final state) to an array over replications:
    the (M, d) iterates at every checkpoint and, for a run with ``x_ref``,
    the squared errors and value gaps.
    """

    seeds: list[int]
    final_iterates: np.ndarray
    final_grad_eval_norm: np.ndarray
    checkpoint_iterates: dict[int, np.ndarray] = field(default_factory=dict)
    checkpoint_sq_error: dict[int, np.ndarray] = field(default_factory=dict)
    checkpoint_value_gap: dict[int, np.ndarray] = field(default_factory=dict)


def derive_seeds(base_seed: int, m_replications: int) -> list[int]:
    return [int(base_seed) ^ m for m in range(m_replications)]


def run_ensemble(
    problem: FiniteSumProblem,
    lam: float,
    schedule: StepSchedule,
    n_iters: int,
    m_replications: int,
    base_seed: int,
    x_ref: np.ndarray | None = None,
    checkpoints: tuple[int, ...] = (),
    x0: np.ndarray | None = None,
    workers: int = 1,
) -> EnsembleResult:
    """Run ``m_replications`` independent optimizer runs of ``n_iters`` steps.

    ``checkpoints`` are state counters n at which the iterates and, with
    ``x_ref``, the squared errors and value gaps of every replication are
    recorded; n ranges over 2..n_iters + 1 for a run of n_iters steps.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if m_replications < 1:
        raise ValueError("m_replications must be positive")
    if n_iters < 1:
        raise ValueError("n_iters must be positive")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    bad = [n for n in checkpoints if not (2 <= n <= n_iters + 1)]
    if bad:
        raise ValueError(
            f"checkpoints {bad} outside the reachable range [2, {n_iters + 1}]"
        )

    seeds = derive_seeds(base_seed, m_replications)
    if workers == 1 or m_replications < 2 * workers:
        return _run_chunk(problem, lam, schedule, n_iters, seeds, 0, x_ref,
                          tuple(checkpoints), x0)

    chunks = np.array_split(np.arange(m_replications), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _run_chunk,
                problem, lam, schedule, n_iters,
                [seeds[i] for i in chunk], int(chunk[0]), x_ref,
                tuple(checkpoints), x0,
            )
            for chunk in chunks
            if len(chunk)
        ]
        parts = [f.result() for f in futures]
    return _concat_results(parts)


def _concat_results(parts: list[EnsembleResult]) -> EnsembleResult:
    def cat(getter):
        return {
            n: np.concatenate([getter(p)[n] for p in parts])
            for n in getter(parts[0])
        }

    return EnsembleResult(
        seeds=[s for p in parts for s in p.seeds],
        final_iterates=np.concatenate([p.final_iterates for p in parts]),
        final_grad_eval_norm=np.concatenate(
            [p.final_grad_eval_norm for p in parts]
        ),
        checkpoint_iterates=cat(lambda p: p.checkpoint_iterates),
        checkpoint_sq_error=cat(lambda p: p.checkpoint_sq_error),
        checkpoint_value_gap=cat(lambda p: p.checkpoint_value_gap),
    )


def _run_chunk(
    problem,
    lam,
    schedule,
    n_iters,
    seeds,
    first_index,
    x_ref,
    checkpoints,
    x0,
) -> EnsembleResult:
    if x0 is None:
        x0 = np.zeros(problem.dim)
    x0 = np.asarray(x0, dtype=float)
    samplers = [IndexSampler(s, problem.n_components) for s in seeds]
    state = OptimizerState(problem.gradient_table(x0), x0, len(seeds), samplers)
    result = EnsembleResult(
        seeds=list(seeds),
        final_iterates=np.empty((len(seeds), problem.dim)),
        final_grad_eval_norm=np.empty(len(seeds)),
    )

    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float)
        f_ref = float(problem.value(x_ref))

    def record(state):
        x, n_state = state.x, state.n
        result.checkpoint_iterates[n_state] = x.copy()
        if x_ref is not None:
            result.checkpoint_sq_error[n_state] = ((x - x_ref) ** 2).sum(axis=1)
            result.checkpoint_value_gap[n_state] = problem.values(x) - f_ref

    _advance(
        state, problem, lam, schedule, n_iters, set(checkpoints), record,
        lambda r: f"replication {first_index + r} (seed {seeds[r]})",
    )
    result.final_iterates = state.x
    result.final_grad_eval_norm = np.linalg.norm(state.mean, axis=1)
    return result
