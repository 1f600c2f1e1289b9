"""Vectorized batches of independent optimizer runs.

Monte-Carlo verification needs hundreds to thousands of independent
replications of the same configuration.  Running them one by one through the
scalar engine would dominate every experiment, so this module advances all
replications simultaneously: iterates are an (M, d) array and each step
applies the identical update rule elementwise across replications.

The gradient tables of all replications form one component-major (N, M, d)
array.  Viewed as a flat array of N*M rows of d floats, row k*M + m is
replication m's stored gradient of component k, so each step gathers the M
sampled rows with one ``np.take`` and scatters the new ones with one indexed
assignment; the periodic resync is a reduction over the leading axis.  The
update is computed in place into preallocated (M, d) buffers, with every
operation in the order of the scalar engine's
``x - gamma * ((g - lam * row) + lam * mean)`` followed by
``mean += (g - row) / N``.  That fixed order is what keeps every replication
bitwise equal to a scalar ``run`` with its seed; the tests check it.

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

from .engine import _SAMPLER_BLOCK, IndexSampler, RunError
from .problems import FiniteSumProblem
from .schedule import StepSchedule


@dataclass
class EnsembleResult:
    """Per-replication outputs of a batched run.

    ``checkpoint_*`` dictionaries map an iteration index n (state counter,
    so n = n_iters + 1 is the final state) to an array over replications.
    """

    seeds: list[int]
    final_iterates: np.ndarray
    final_grad_eval_norm: np.ndarray
    checkpoint_iterates: dict[int, np.ndarray] = field(default_factory=dict)
    checkpoint_sq_error: dict[int, np.ndarray] = field(default_factory=dict)
    checkpoint_value_gap: dict[int, np.ndarray] = field(default_factory=dict)
    checkpoint_grad_eval_norm: dict[int, np.ndarray] = field(default_factory=dict)


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
    keep_checkpoint_iterates: bool = False,
    workers: int = 1,
) -> EnsembleResult:
    """Run ``m_replications`` independent optimizer runs of ``n_iters`` steps.

    ``checkpoints`` are state counters n at which per-replication squared
    errors (needs ``x_ref``), value gaps, and table-mean norms are recorded;
    n ranges over 2..n_iters + 1 for a run of n_iters steps.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if m_replications < 1:
        raise ValueError("m_replications must be positive")
    if n_iters < 1:
        raise ValueError("n_iters must be positive")
    bad = [n for n in checkpoints if not (2 <= n <= n_iters + 1)]
    if bad:
        raise ValueError(
            f"checkpoints {bad} outside the reachable range [2, {n_iters + 1}]"
        )

    seeds = derive_seeds(base_seed, m_replications)
    if workers <= 1 or m_replications < 2 * workers:
        return _run_chunk(
            problem, lam, schedule, n_iters, seeds, 0, x_ref,
            tuple(checkpoints), x0, keep_checkpoint_iterates,
        )

    chunks = np.array_split(np.arange(m_replications), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _run_chunk,
                problem, lam, schedule, n_iters,
                [seeds[i] for i in chunk], int(chunk[0]), x_ref,
                tuple(checkpoints), x0, keep_checkpoint_iterates,
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
        checkpoint_grad_eval_norm=cat(lambda p: p.checkpoint_grad_eval_norm),
    )


def _table_mean(table: np.ndarray) -> np.ndarray:
    """Per-replication mean of an (N, M, d) table, shape (M, d).

    Each replication's mean is summed exactly as the scalar engine sums its
    (N, d) table.  numpy reduces an outer axis one slab at a time, so for
    d > 1 both add the N components in sequence.  With d == 1 the scalar
    table is one contiguous column, which numpy sums pairwise; a contiguous
    (M, N) copy gives every replication that same pairwise sum.
    """
    if table.shape[2] == 1:
        return np.ascontiguousarray(table[:, :, 0].T).mean(axis=1)[:, None]
    return table.mean(axis=0)


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
    keep_checkpoint_iterates,
) -> EnsembleResult:
    n_comp, dim = problem.n_components, problem.dim
    m = len(seeds)
    if x0 is None:
        x0 = np.zeros(dim)
    x0 = np.asarray(x0, dtype=float)

    x = np.broadcast_to(x0, (m, dim)).copy()
    table = np.empty((n_comp, m, dim))
    table[...] = problem.gradient_table(x0)[:, None, :]
    mean = _table_mean(table)
    # Row k*M + r of the flat view is table[k, r]: one gather and one
    # scatter move a whole d-vector per replication.
    row_dtype = np.dtype((np.void, 8 * dim))
    rows = table.reshape(-1).view(row_dtype)
    rep_offset = np.arange(m)

    # Per-step buffers, reused across the whole run.
    flat = np.empty(m, dtype=np.int64)
    row = np.empty((m, dim))
    row_view = row.view(row_dtype).reshape(m)
    direction = np.empty((m, dim))
    scratch = np.empty((m, dim))

    samplers = [IndexSampler(s, n_comp) for s in seeds]
    ks = np.empty((min(_SAMPLER_BLOCK, n_iters), m), dtype=np.int64)
    checkpoint_set = set(checkpoints)
    result = EnsembleResult(
        seeds=list(seeds),
        final_iterates=np.empty((m, dim)),
        final_grad_eval_norm=np.empty(m),
    )

    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float)
        f_ref = float(problem.value(x_ref))

    def record(n_state):
        if x_ref is not None:
            result.checkpoint_sq_error[n_state] = (
                ((x - x_ref) ** 2).sum(axis=1)
            )
            result.checkpoint_value_gap[n_state] = problem.values(x) - f_ref
        result.checkpoint_grad_eval_norm[n_state] = np.linalg.norm(mean, axis=1)
        if keep_checkpoint_iterates:
            result.checkpoint_iterates[n_state] = x.copy()

    pos = 0
    since_resync = 0
    while pos < n_iters:
        block = min(_SAMPLER_BLOCK, n_iters - pos)
        for i, sampler in enumerate(samplers):
            ks[:block, i] = sampler.take(block)
        gammas = schedule.gammas(pos + 1, pos + block).tolist()
        for j in range(block):
            k = ks[j]
            np.multiply(k, m, out=flat)
            np.add(flat, rep_offset, out=flat)
            # The sampler's indices are in range, so "clip" never changes
            # one; unlike the default "raise" it writes into row_view
            # without an intermediate buffer.
            np.take(rows, flat, out=row_view, mode="clip")
            g_new = np.ascontiguousarray(
                problem.component_gradients(k, x), dtype=float
            )
            # x -= gamma * ((g_new - lam * row) + lam * mean), evaluated in
            # the scalar engine's order so every replication stays bitwise
            # equal to its scalar run.
            np.multiply(row, lam, out=direction)
            np.subtract(g_new, direction, out=direction)
            np.multiply(mean, lam, out=scratch)
            np.add(direction, scratch, out=direction)
            np.multiply(direction, gammas[j], out=direction)
            np.subtract(x, direction, out=x)
            # mean += (g_new - row) / N
            np.subtract(g_new, row, out=scratch)
            np.divide(scratch, n_comp, out=scratch)
            np.add(mean, scratch, out=mean)
            rows[flat] = g_new.view(row_dtype).reshape(m)
            since_resync += 1
            if since_resync >= n_comp:
                mean = _table_mean(table)
                since_resync = 0
            n_state = pos + j + 2
            if n_state in checkpoint_set:
                record(n_state)
        _check_finite(x, seeds, first_index, pos + 2, pos + block + 1)
        pos += block

    result.final_iterates = x
    result.final_grad_eval_norm = np.linalg.norm(mean, axis=1)
    return result


def _check_finite(x, seeds, first_index, n_from, n_to) -> None:
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        r = int(np.flatnonzero(~finite)[0])
        raise RunError(
            f"replication {first_index + r} (seed {seeds[r]}) has a non-finite "
            f"iterate at a state counter in n={n_from}..{n_to}"
        )
