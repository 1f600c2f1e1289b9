"""Vectorized batches of independent optimizer runs.

Monte-Carlo verification needs hundreds to thousands of independent
replications of the same configuration.  Running them one by one through the
scalar engine would dominate every experiment, so this module advances all
replications simultaneously: iterates are an (M, d) array and each step
applies the identical update rule elementwise across replications.

The gradient tables of all replications form one component-major table,
in one of two forms chosen from what the problem's ``gradient_table``
returns:

* Dense rows, for any problem: an (N, M, d) array.  Viewed as a flat array
  of N*M rows of d floats, row k*M + m is replication m's stored gradient of
  component k, so each step gathers the M sampled rows with one ``np.take``
  and scatters the new ones with one indexed assignment.
* Scalars, when the rows come as :class:`~lambda_saga.problems.FactoredRows`
  (logistic regression, whose component gradients are w_k * s_k(x)): an
  (N, M) array of the s_k, N*M*8 bytes instead of N*M*d*8.  Each step's
  ``component_gradients`` brings its feature rows w_k and scalars s_new; the
  step gathers the M old scalars, rebuilds the stored rows as
  ``w_k * s_old`` and scatters the M new scalars.  Every stored row was
  formed by the problem as exactly that product of the same two factors, so
  the rebuilt row is bit for bit the row the dense table would hold.

Both forms run through one loop, which calls ``gradient_table`` once and
``component_gradients`` once per step.  The initial table mean is the mean
of the ``gradient_table`` rows, summed as the scalar engine sums them.  The
update is computed in place into preallocated (M, d) buffers, with every
operation in the order of the scalar engine's
``x - gamma * ((g - lam * row) + lam * mean)`` followed by
``mean += (g - row) / N``.  That fixed order is what keeps every replication
bitwise equal to a scalar ``run`` with its seed; the tests check it.

Every N steps the table mean is recomputed from the table (resync).  Dense
rows are reduced over the leading axis, which numpy does one component at a
time; the scalar form builds the rows of a bounded chunk of components at a
time and continues the same sequential sum across chunks, so both give the
same bits.  With d = 1 both sum each replication's N values pairwise, as
numpy sums the scalar engine's single contiguous column.

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


# Elements of the (rows, M, d) slab of products a scalar-table resync forms
# at a time: 512 KiB, or one component's M*d products if that is more.
_RESYNC_SLAB = 1 << 16


def _scalar_table_mean(features, s, chunk_rows=None) -> np.ndarray:
    """``_table_mean`` of the table with rows ``features[k] * s[k, m]``,
    without forming it.

    For d > 1 the rows are formed ``chunk_rows`` components at a time and
    added in sequence: the running sum enters each chunk as an addend of its
    first row, and numpy's reduction over the chunk's outer axis continues it,
    so the additions happen in the order of the whole table's reduction.
    For d == 1 the whole (N, M, 1) table is only N*M floats, as large as
    ``s``, and goes to ``_table_mean``.
    """
    n_comp, m = s.shape
    dim = features.shape[1]
    if dim == 1:
        return _table_mean((features * s)[:, :, None])
    if chunk_rows is None:
        chunk_rows = max(1, _RESYNC_SLAB // (m * dim))
    total = np.empty((m, dim))
    for start in range(0, n_comp, chunk_rows):
        stop = min(start + chunk_rows, n_comp)
        products = features[start:stop, None, :] * s[start:stop, :, None]
        if start:
            np.add(products[0], total, out=products[0])
        np.add.reduce(products, axis=0, out=total)
    return np.divide(total, n_comp, out=total)


class _DenseTable:
    """Stored gradients as (N, M, d) rows, for problems of any kind.

    Row k*M + m of the flat view is replication m's row of component k, so
    one gather and one scatter move a whole d-vector per replication.
    """

    def __init__(self, rows0, m):
        n_comp, dim = rows0.shape
        self.table = np.empty((n_comp, m, dim))
        self.table[...] = rows0[:, None, :]
        self._row_dtype = np.dtype((np.void, 8 * dim))
        self._rows = self.table.reshape(-1).view(self._row_dtype)
        self.row = np.empty((m, dim))
        self._row_view = self.row.view(self._row_dtype).reshape(m)
        self._fresh = None

    def load(self, flat, fresh):
        """Gather the stored rows at ``flat`` into ``row``; return the fresh
        gradient rows as a contiguous float array."""
        # The indices are in range, so "clip" never changes one; unlike the
        # default "raise" it writes into the output without a buffer.
        np.take(self._rows, flat, out=self._row_view, mode="clip")
        self._fresh = np.ascontiguousarray(fresh, dtype=float)
        return self._fresh

    def store(self, flat):
        """Scatter the fresh rows of the last ``load`` to ``flat``."""
        self._rows[flat] = self._fresh.view(self._row_dtype).reshape(-1)

    def mean(self):
        return _table_mean(self.table)


class _ScalarTable:
    """Stored scalars s as (N, M), for gradients given as FactoredRows.

    Replication m's row of component k is ``w_k * s[k, m]``, rebuilt on
    each gather from the feature rows the fresh gradients bring.
    """

    def __init__(self, rows0, m):
        self.features = rows0.features
        self.s = np.empty((len(rows0), m))
        self.s[...] = rows0.scalars[:, None]
        self._flat = self.s.reshape(-1)
        self._s_old = np.empty(m)
        self.row = np.empty((m, rows0.shape[1]))
        self._s_new = None

    def load(self, flat, fresh):
        np.take(self._flat, flat, out=self._s_old, mode="clip")
        np.multiply(fresh.features, self._s_old[:, None], out=self.row)
        self._s_new = fresh.scalars
        return np.asarray(fresh)

    def store(self, flat):
        self._flat[flat] = self._s_new

    def mean(self):
        return _scalar_table_mean(self.features, self.s)


# Samplers filled into one tile before its transpose is copied into the
# (block, M) index array; a column per sampler would be a strided write.
_SAMPLER_TILE = 64


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
    rows0 = problem.gradient_table(x0)
    factored = getattr(rows0, "scalars", None) is not None
    table = (_ScalarTable if factored else _DenseTable)(rows0, m)
    # Every replication starts from the same rows, so one replication's
    # mean, repeated, is the whole table's.
    rows0 = np.asarray(rows0, dtype=float)
    mean = np.repeat(_table_mean(rows0[:, None, :]), m, axis=0)
    del rows0  # the (N, d) rows are not needed past the start
    rep_offset = np.arange(m)

    # Per-step buffers, reused across the whole run.
    flat = np.empty(m, dtype=np.int64)
    row = table.row
    direction = np.empty((m, dim))
    scratch = np.empty((m, dim))

    samplers = [IndexSampler(s, n_comp) for s in seeds]
    ks = np.empty((min(_SAMPLER_BLOCK, n_iters), m), dtype=np.int64)
    tile = np.empty((min(_SAMPLER_TILE, m), ks.shape[0]), dtype=np.int64)
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
        for first in range(0, m, _SAMPLER_TILE):
            group = samplers[first:first + _SAMPLER_TILE]
            for i, sampler in enumerate(group):
                tile[i, :block] = sampler.take(block)
            ks[:block, first:first + len(group)] = tile[:len(group), :block].T
        gammas = schedule.gammas(pos + 1, pos + block).tolist()
        for j in range(block):
            k = ks[j]
            np.multiply(k, m, out=flat)
            np.add(flat, rep_offset, out=flat)
            g_new = table.load(flat, problem.component_gradients(k, x))
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
            table.store(flat)
            since_resync += 1
            if since_resync >= n_comp:
                mean = table.mean()
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
