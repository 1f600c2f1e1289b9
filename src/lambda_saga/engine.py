"""The interpolated SGD/SAGA iteration with decreasing steps.

One optimizer step at iterate X_n with sampled index k and step gamma_n is

    X_{n+1} = X_n - gamma_n * (grad_k(X_n) - lam * (g_k - mean(g)))

where g is a table of N stored component gradients (row k holds the gradient
of component k at the last iterate where k was sampled) and mean(g) is the
table average.  After the iterate update, row k is overwritten with
grad_k(X_n) evaluated at the old iterate.  ``lam`` in [0, 1] interpolates
between plain SGD (lam = 0, the table terms cancel) and SAGA (lam = 1).

The update direction is evaluated as ``(grad - lam * row) + lam * mean``,
which is the same expression with lam distributed; this parenthesization
makes the lam = 0 path bitwise identical to SGD and the lam = 1 path bitwise
identical to the SAGA update written left to right.  The table mean is kept
incrementally, ``mean += (grad - row) / N``, and recomputed from the table
every N steps (resync) to keep floating-point drift bounded.

The step is written once, in ``_steps``, for M replications at a time: an
:class:`OptimizerState` holds (M, d) iterates and table means and the
gradient tables of all M replications.  ``_drive`` runs the steps in blocks
of 4,096, each sampler drawing a block's indices in one call, and records
snapshots and checkpoints between kernel calls, so ``_steps`` knows nothing
of them.  A scalar :func:`run` is the case M = 1 and :func:`run_ensemble`
runs M, both started by ``_start`` and driven by ``_drive``, so a
replication of an ensemble is bit for bit the scalar run with its seed.
Both reduce V_n (``_sq_errors``) and the table-mean norm over rows of
replications, so a scalar run's V_n and grad_eval_norm are bit for bit its
replication's squared error and final table-mean norm too.

A block's (4096, M) indices are held in the narrowest unsigned type that
holds N - 1 (``np.min_scalar_type``: uint8 up to N = 256, uint16 up to
65,536), an eighth of int64's bytes for small N.  The samplers still draw
int64 from their unchanged streams and every index is below N, so storing
it narrows no value.  The steps run on intp indices: the block is widened
one kernel call, at most 64 steps, at a time, so the flat table row k*M + m
cannot wrap in a narrow type and neither ``take`` nor the row arithmetic
casts on every step.

The gradient tables of all replications form one component-major table, in
one of two forms chosen from what the problem's ``gradient_table`` returns:

* Dense rows, for any problem: an (N, M, d) array.  Viewed as a flat array
  of N*M rows of d floats, row k*M + m is replication m's stored gradient of
  component k, so each step gathers the M sampled rows with one ``take`` and
  scatters the new ones with one indexed assignment.
* Scalars, when the rows come as :class:`~lambda_saga.problems.FactoredRows`
  (logistic regression, whose component gradients are w_k * s_k(x)): an
  (N, M) array of the s_k, N*M*8 bytes instead of N*M*d*8.  Each step's
  ``component_gradients`` brings its feature rows w_k and scalars s_new; the
  step gathers the M old scalars, rebuilds the stored rows as
  ``w_k * s_old`` and scatters the M new scalars.  Every stored row was
  formed by the problem as exactly that product of the same two factors, so
  the rebuilt row is bit for bit the row the dense table would hold.

Both forms call ``gradient_table`` once and ``component_gradients`` once per
step.  Dense rows are resynced by a reduction over the leading axis, which
numpy does one component at a time; the scalar form builds the rows of a
bounded chunk of components at a time and continues the same sequential sum
across chunks, so both give the same bits.  With d = 1 both sum each
replication's N values pairwise, as numpy sums a single contiguous column.

Beyond the iteration itself the module exposes the convergence diagnostics
tracked in traces:

* ``v_n``            squared distance of the iterate from the minimizer
* ``a_n``            mean squared discrepancy of table rows from the
                     component gradients at the minimizer
* ``tau2``           mean squared discrepancy of fresh component gradients at
                     the current iterate from those at the minimizer
* ``t_n``            the compound quantity v_n + 3 N gamma_{n-1}^2 a_n
* ``grad_eval_norm`` norm of the table mean, a gradient-free convergence
                     proxy available without a reference minimizer
* ``value_gap``      f(X_n) - f(x*)
"""

from __future__ import annotations

import bisect
import csv
import json
import operator
import time
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from .problems import FiniteSumProblem
from .schedule import StepSchedule


class RunError(RuntimeError):
    pass


# Steps per block of ``_drive``, which draws the indices, makes the step
# sizes and checks the iterates for finiteness once per block, and records
# between its kernel calls, never inside one.
_STEP_BLOCK = 4096


def _check_integer(value, name) -> int:
    """``value``, an integer of any kind, as an int, or a ValueError naming
    it as ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} must be an integer") from None


def _check_seed(seed) -> int:
    """``seed``, an integer of any kind, as a Philox key, or a ValueError
    naming it."""
    key = _check_integer(seed, "seed")
    if not 0 <= key < 2**128:
        raise ValueError(f"seed {seed} must lie in [0, 2**128)")
    return key


def _check_lam(lam) -> None:
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")


class IndexSampler:
    """Uniform i.i.d. component indices from a counter-based generator.

    For a fixed (seed, n_components) the emitted sequence is a deterministic
    function of position only: it does not depend on how the draws are
    partitioned into ``take`` calls, so independent consumers (the engine,
    ensemble workers, reference implementations in tests) can replay the
    exact same sampling stream.  That is numpy's doing, not a buffer here:
    ``Generator.integers`` draws an index below 2**32 from a 32-bit half of
    a 64-bit Philox output and Philox keeps the unused half for its next
    call, while larger indices take whole outputs.
    """

    def __init__(self, seed: int, n_components: int):
        if n_components < 1:
            raise ValueError("n_components must be positive")
        self.seed = _check_seed(seed)
        self.n_components = int(n_components)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` indices in [0, n_components)."""
        return self._gen.integers(0, self.n_components, size=count)


# Distinct Philox key stream for initial points so initialization never
# perturbs the index sampling sequence of the same seed.
_INIT_STREAM_SALT = 0x9E3779B97F4A7C15


def gaussian_initial_point(dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Seeded Gaussian initial point, decoupled from the sampling stream."""
    gen = np.random.Generator(np.random.Philox(key=_check_seed(seed) ^ _INIT_STREAM_SALT))
    return scale * gen.standard_normal(dim)


# -- gradient tables ----------------------------------------------------------


def _table_mean(table: np.ndarray) -> np.ndarray:
    """Per-replication mean of an (N, M, d) table, shape (M, d).

    numpy reduces an outer axis one slab at a time, so for d > 1 every
    replication adds its N components in sequence, as it would alone.  With
    d == 1 a lone replication's table is one contiguous column, which numpy
    sums pairwise; a contiguous (M, N) copy gives every replication that same
    pairwise sum.
    """
    if table.shape[2] == 1:
        return np.ascontiguousarray(table[:, :, 0].T).mean(axis=1)[:, None]
    return table.mean(axis=0)


# Elements of the (rows, M, d) slab of products a scalar-table resync forms
# at a time: 512 KiB, or one component's M*d products if that is more.
_RESYNC_SLAB = 1 << 16


def _scalar_table_mean(features, s) -> np.ndarray:
    """``_table_mean`` of the table with rows ``features[k] * s[k, m]``,
    without forming it.

    For d > 1 the rows are formed ``_RESYNC_SLAB // (M * d)`` components,
    at least one, at a time and added in sequence: the running sum enters
    each chunk as an addend of its first row, and numpy's reduction over the
    chunk's outer axis continues it, so the additions happen in the order of
    the whole table's reduction.
    For d == 1 the whole (N, M, 1) table is only N*M floats, as large as
    ``s``, and goes to ``_table_mean``.
    """
    n_comp, m = s.shape
    dim = features.shape[1]
    if dim == 1:
        return _table_mean((features * s)[:, :, None])
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
        self.n_components = n_comp
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
        self._rows.take(flat, out=self._row_view, mode="clip")
        self._fresh = np.ascontiguousarray(fresh, dtype=float)
        return self._fresh

    def store(self, flat):
        """Scatter the fresh rows of the last ``load`` to ``flat``."""
        self._rows[flat] = self._fresh.view(self._row_dtype).reshape(-1)

    def rows(self):
        """All stored rows, (N, M, d), as a new array."""
        return self.table.copy()

    def mean(self):
        return _table_mean(self.table)


class _ScalarTable:
    """Stored scalars s as (N, M), for gradients given as FactoredRows.

    Replication m's row of component k is ``w_k * s[k, m]``, rebuilt on
    each gather from the feature rows the fresh gradients bring.  The table
    starts from the two factors of the start rows, every replication with
    the scalars ``scalars0``.
    """

    def __init__(self, features, scalars0, m):
        self.n_components = len(scalars0)
        self.features = features
        self.s = np.empty((len(scalars0), m))
        self.s[...] = scalars0[:, None]
        self._flat = self.s.reshape(-1)
        self._s_old = np.empty(m)
        self._s_old_column = self._s_old[:, None]
        self.row = np.empty((m, features.shape[1]))
        self._s_new = None

    def load(self, flat, fresh):
        self._flat.take(flat, out=self._s_old, mode="clip")
        np.multiply(fresh.features, self._s_old_column, out=self.row)
        self._s_new = fresh.scalars
        return np.asarray(fresh)

    def store(self, flat):
        self._flat[flat] = self._s_new

    def rows(self):
        """All stored rows, (N, M, d), formed from the two factors."""
        return self.features[:, None, :] * self.s[:, :, None]

    def mean(self):
        return _scalar_table_mean(self.features, self.s)


# -- the step kernel ------------------------------------------------------------


class OptimizerState:
    """M replications of the optimizer, advanced in lockstep.

    ``x`` and ``mean`` are (M, d): each replication's iterate and the
    incrementally kept mean of its stored gradients.  ``table``, a
    ``_DenseTable`` or ``_ScalarTable`` of M replications, holds the stored
    gradients of all of them.  Every replication starts at ``x1`` with the
    same table rows, so ``mean0``, the (1, d) mean of one replication's rows,
    repeated, is the whole table's.  ``n`` is the iteration counter, shared
    by all replications and starting at 1, and ``samplers`` holds each
    replication's IndexSampler (none when the caller supplies the indices).
    A scalar run is the state with M = 1, whose iterate is ``x[0]``.
    """

    def __init__(self, table, mean0, x1, samplers=()):
        m, dim = table.row.shape
        self.table = table
        self.mean = np.repeat(mean0, m, axis=0)
        self.x = np.broadcast_to(np.asarray(x1, dtype=float), (m, dim)).copy()
        self.n_components = table.n_components
        self.n = 1
        self.samplers = list(samplers)
        self.since_resync = 0
        # Per-step buffers, reused across the whole run.
        self.flat = np.empty(m, dtype=np.int64)
        self.rep_offset = np.arange(m)
        self.direction = np.empty((m, dim))
        self.scratch = np.empty((m, dim))

    @property
    def sampler(self) -> IndexSampler | None:
        """The sampler of replication 0, or None."""
        return self.samplers[0] if self.samplers else None


def _initial_point(problem, x0) -> np.ndarray:
    """``x0`` as a float vector, the zero vector when None, or a ValueError
    naming its dimension."""
    x0 = np.zeros(problem.dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 must have dimension {problem.dim}, got {x0.shape}")
    return x0


def _start(problem, x0, seeds) -> OptimizerState:
    """Fresh state of one replication per seed, replication m drawing from
    ``IndexSampler(seeds[m])``; with no seeds, one replication without a
    sampler.  Every replication starts at ``x0``, an ``_initial_point``.

    The table and its mean come from one ``gradient_table(x0)`` call.  Rows
    given as FactoredRows are released once their mean is taken, before the
    (N, M) scalars are allocated, so the start never holds the (N, d) rows
    and the table at once.
    """
    m = max(len(seeds), 1)
    rows0 = problem.gradient_table(x0)
    mean0 = _table_mean(np.asarray(rows0, dtype=float)[:, None, :])
    if getattr(rows0, "scalars", None) is None:
        table = _DenseTable(rows0, m)
    else:
        features, scalars0 = rows0.features, rows0.scalars
        del rows0
        table = _ScalarTable(features, scalars0, m)
    samplers = [IndexSampler(seed, problem.n_components) for seed in seeds]
    return OptimizerState(table, mean0, x0, samplers)


def init_state(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    seed: int | None = None,
) -> OptimizerState:
    """Fresh scalar (M = 1) state: table rows are the component gradients at
    x0, the iterate starts at x0, and the counter starts at 1."""
    return _start(problem, _initial_point(problem, x0),
                  () if seed is None else (seed,))


def _steps(state: OptimizerState, problem, lam, gammas, ks) -> None:
    """Take one step of every replication per entry of ``gammas``: step j
    has step size gammas[j], and replication m samples component ks[j, m],
    an intp array.

    The iterate update uses the pre-update row and mean; afterwards the row
    is overwritten with the component gradient at the old iterate.  Every
    operation runs in place, in the order the module docstring gives.  A
    raising gradient hook becomes a RunError naming the state counter of
    its step.
    """
    x, mean, table = state.x, state.mean, state.table
    row, direction, scratch = table.row, state.direction, state.scratch
    m, n_comp = len(x), state.n_components
    flat = state.flat
    for gamma, k in zip(gammas, ks):
        try:
            fresh = problem.component_gradients(k, x)
        except Exception as exc:
            raise RunError(f"step failed at iteration n={state.n}: {exc}") from exc
        # Replication m's row of component k is row k*M + m of the table;
        # with one replication that is k itself.
        if m == 1:
            flat = k
        else:
            np.multiply(k, m, out=flat)
            np.add(flat, state.rep_offset, out=flat)
        g_new = table.load(flat, fresh)
        # x -= gamma * ((g_new - lam * row) + lam * mean)
        np.multiply(row, lam, out=direction)
        np.subtract(g_new, direction, out=direction)
        np.multiply(mean, lam, out=scratch)
        np.add(direction, scratch, out=direction)
        np.multiply(direction, gamma, out=direction)
        np.subtract(x, direction, out=x)
        # mean += (g_new - row) / N
        np.subtract(g_new, row, out=scratch)
        np.divide(scratch, n_comp, out=scratch)
        np.add(mean, scratch, out=mean)
        table.store(flat)
        state.since_resync += 1
        if state.since_resync == n_comp:
            mean = state.mean = table.mean()
            state.since_resync = 0
        state.n += 1


def lambda_saga_step(
    state: OptimizerState,
    problem: FiniteSumProblem,
    lam: float,
    gamma: float,
    k: int,
) -> OptimizerState:
    """Advance a state one step with sampled index k (every replication
    samples k); mutates and returns ``state``."""
    _check_lam(lam)
    if not (0 <= k < problem.n_components):
        raise IndexError(f"component index {k} out of range")
    _steps(state, problem, lam, (gamma,), np.array([[k]], dtype=np.int64))
    return state


# Samplers filled into one tile before its transpose is copied into the
# (block, M) index array; a column per sampler would be a strided write.
_SAMPLER_TILE = 64
# Most steps of a block widened to intp at a time: 1 MB at M = 2000.
_WIDE_STEPS = 64


def _drive(state, problem, lam, schedule, n_iters, record_at, record, name):
    """Run ``n_iters`` steps, replication m drawing from ``state.samplers[m]``,
    with step size gamma(n) at state counter n, and call ``record(state)``
    at each state counter in ``record_at``, a sorted sequence of distinct
    counters, that the state holds, the initial one included.  Each block
    of ``_STEP_BLOCK`` steps ends with a finiteness check, which names the
    first replication r with a non-finite iterate as ``name(r)``.

    A block's ``_steps`` calls end at each ``_WIDE_STEPS`` boundary and at
    each counter of ``record_at`` inside the block, found by bisection, and
    the records run between those calls.  The block's indices and the
    sampler tile are of the narrowest unsigned type holding N - 1: the tile
    assignment narrows each int64 draw, which lies in [0, N), without
    changing it.  Each call takes its steps' indices widened to intp.
    """
    m = len(state.x)
    samplers = state.samplers
    narrow = np.min_scalar_type(state.n_components - 1)
    ks = np.empty((min(_STEP_BLOCK, n_iters), m), dtype=narrow)
    tile = np.empty((min(_SAMPLER_TILE, m), ks.shape[0]), dtype=narrow)
    due = bisect.bisect_left(record_at, state.n)
    if due < len(record_at) and record_at[due] == state.n:
        record(state)
        due += 1
    end = state.n + n_iters
    for n_first in range(state.n, end, _STEP_BLOCK):
        block = min(_STEP_BLOCK, end - n_first)
        for first in range(0, m, _SAMPLER_TILE):
            group = samplers[first:first + _SAMPLER_TILE]
            for i, sampler in enumerate(group):
                tile[i, :block] = sampler.take(block)
            ks[:block, first:first + len(group)] = tile[:len(group), :block].T
        gammas = schedule.gammas(n_first, n_first + block - 1).tolist()
        # Counter n is reached after the block's first n - n_first steps.
        inside = record_at[due:bisect.bisect_right(record_at, n_first + block, due)]
        cuts = sorted({*range(_WIDE_STEPS, block, _WIDE_STEPS), block,
                       *(n - n_first for n in inside)})
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            start = 0
            for stop in cuts:
                _steps(state, problem, lam, gammas[start:stop],
                       ks[start:stop].astype(np.intp))
                start = stop
                if due < len(record_at) and record_at[due] == state.n:
                    record(state)
                    due += 1
        finite = np.isfinite(state.x).all(axis=1)
        if not finite.all():
            r = int(np.flatnonzero(~finite)[0])
            raise RunError(
                f"{name(r)} has a non-finite iterate at a state counter in "
                f"n={n_first + 1}..{state.n}"
            )


# -- diagnostics ------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsSnapshot:
    """Diagnostics at iteration n; reference-dependent fields are None when
    no minimizer was supplied."""

    n: int
    v_n: float | None
    a_n: float | None
    tau2: float | None
    t_n: float | None
    grad_eval_norm: float
    value_gap: float | None


@dataclass
class RunTrace:
    """Snapshot series plus everything needed to reproduce the run."""

    schedule: StepSchedule
    lam: float
    seed: int
    snapshots: list[DiagnosticsSnapshot] = field(default_factory=list)
    final_iterate: np.ndarray | None = None
    problem_descriptor: dict = field(default_factory=dict)
    x0: np.ndarray | None = None
    wall_time_s: float | None = None


# Cache of (gradient table at x_ref, f(x_ref)) per live problem instance;
# problems are immutable so the cached values never go stale.
_REF_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _ref_quantities(problem, x_ref):
    x_ref = np.asarray(x_ref, dtype=float)
    per_problem = _REF_CACHE.setdefault(problem, {})
    key = x_ref.tobytes()
    hit = per_problem.get(key)
    if hit is None:
        hit = (problem.gradient_table(x_ref), float(problem.value(x_ref)))
        if len(per_problem) > 8:
            per_problem.clear()
        per_problem[key] = hit
    return hit


def _sq_errors(x, x_ref) -> np.ndarray:
    """V_n of every replication: the row sums of ``(x - x_ref) ** 2``."""
    return ((x - x_ref) ** 2).sum(axis=1)


def _mean_sq_distance(rows, rows_ref) -> float:
    """Mean over components of ||rows[k] - rows_ref[k]||^2, overwriting
    ``rows``, a new (N, d) array, with the squared differences."""
    np.subtract(rows, rows_ref, out=rows)
    np.square(rows, out=rows)
    return float(rows.sum(axis=1).mean())


def diagnostics(
    state: OptimizerState,
    problem: FiniteSumProblem,
    x_ref: np.ndarray | None,
    schedule: StepSchedule | None = None,
) -> DiagnosticsSnapshot:
    """Diagnostics snapshot of a scalar ``state`` (replication 0) relative
    to reference point x_ref.

    ``tau2`` is recomputed by a fresh pass over all components at the current
    iterate; ``a_n`` needs only the stored table rows.  Each is reduced from
    one (N, d) array, the stored rows and then the fresh table, made into
    squared differences in place; the first is dropped before the second is
    made.  ``t_n`` uses the step gamma(n - 1) and needs a schedule; at the
    initial state n = 1, where no previous step exists, gamma(1) stands in.
    Without ``x_ref`` only ``n`` and ``grad_eval_norm`` are recorded and the
    other fields are None.
    """
    grad_eval_norm = float(np.linalg.norm(state.mean, axis=1)[0])
    if x_ref is None:
        return DiagnosticsSnapshot(state.n, None, None, None, None,
                                   grad_eval_norm, None)
    table_ref, f_ref = _ref_quantities(problem, x_ref)
    x = state.x[0]
    v_n = float(_sq_errors(state.x[:1], np.asarray(x_ref, dtype=float))[0])
    a_n = _mean_sq_distance(state.table.rows()[:, 0, :], table_ref)
    tau2 = _mean_sq_distance(np.asarray(problem.gradient_table(x)), table_ref)
    t_n = None
    if schedule is not None:
        gam = schedule.gamma(max(state.n - 1, 1))
        t_n = v_n + 3.0 * problem.n_components * gam * gam * a_n
    return DiagnosticsSnapshot(
        n=state.n,
        v_n=v_n,
        a_n=a_n,
        tau2=tau2,
        t_n=t_n,
        grad_eval_norm=grad_eval_norm,
        value_gap=float(problem.value(x)) - f_ref,
    )


def run(
    problem: FiniteSumProblem,
    lam: float,
    schedule: StepSchedule,
    n_iters: int,
    seed: int,
    diag_every: int = 1000,
    x_ref: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> RunTrace:
    """Run ``n_iters`` optimizer steps with i.i.d. uniform sampling.

    Snapshots are recorded at iteration 1, every ``diag_every`` steps, and at
    the final iterate.  Reference-dependent diagnostics need ``x_ref``; the
    gradient-evaluation norm is recorded regardless.  The table and the
    iterate both start at ``x0``, the zero vector by default.
    """
    _check_lam(lam)
    seed = _check_seed(seed)
    if n_iters < 0:
        raise ValueError("n_iters must be nonnegative")
    if diag_every <= 0:
        raise ValueError(f"diag_every must be positive, got {diag_every}")

    state = _start(problem, _initial_point(problem, x0), (seed,))
    start = time.perf_counter()
    trace = RunTrace(
        schedule=schedule,
        lam=lam,
        seed=seed,
        problem_descriptor=problem.describe(),
        x0=state.x[0].copy(),
    )

    def record(state):
        trace.snapshots.append(diagnostics(state, problem, x_ref, schedule))

    counters = sorted({1, *range(diag_every, n_iters + 1, diag_every), n_iters + 1})
    _drive(state, problem, lam, schedule, n_iters, counters, record,
           lambda r: f"run with seed {seed}")
    trace.final_iterate = state.x[0].copy()
    trace.wall_time_s = time.perf_counter() - start
    return trace


# -- ensembles ----------------------------------------------------------------


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
    base_seed = _check_seed(base_seed)
    return [base_seed ^ m for m in range(m_replications)]


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

    Replication m has the seed ``base_seed XOR m`` (:func:`derive_seeds`)
    and is bit for bit the scalar :func:`run` with that seed.  Results are
    aggregated by replication index, never by completion order, so
    ``workers`` > 1, which spreads chunks of replications over processes,
    changes none of them.
    """
    _check_lam(lam)
    if m_replications < 1:
        raise ValueError("m_replications must be positive")
    if n_iters < 1:
        raise ValueError("n_iters must be positive")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    checkpoints = tuple(_check_integer(n, "checkpoint") for n in checkpoints)
    bad = [n for n in checkpoints if not (2 <= n <= n_iters + 1)]
    if bad:
        raise ValueError(
            f"checkpoints {bad} outside the reachable range [2, {n_iters + 1}]"
        )

    # Checked here, not in each worker, so that a bad input starts no pool.
    x0 = _initial_point(problem, x0)
    seeds = derive_seeds(base_seed, m_replications)
    if m_replications < 2 * workers:
        workers = 1
    chunks = [
        (problem, lam, schedule, n_iters, [seeds[i] for i in chunk],
         int(chunk[0]), x_ref, checkpoints, x0)
        for chunk in np.array_split(np.arange(m_replications), workers)
    ]
    if workers == 1:
        return _run_chunk(*chunks[0])
    # Imported here: multiprocessing costs every process that never starts a
    # pool about 1.5 MiB.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _concat_results(list(pool.map(_run_chunk, *zip(*chunks))))


def _concat_results(parts: list[EnsembleResult]) -> EnsembleResult:
    """One result of the parts' replications, in the parts' order."""
    def cat(values):
        if isinstance(values[0], dict):
            return {n: np.concatenate([v[n] for v in values]) for n in values[0]}
        return np.concatenate(values)

    return EnsembleResult([s for p in parts for s in p.seeds], *(
        cat([getattr(p, f.name) for p in parts]) for f in fields(EnsembleResult)[1:]))


def _run_chunk(problem, lam, schedule, n_iters, seeds, first_index, x_ref,
               checkpoints, x0) -> EnsembleResult:
    """The replications with ``seeds``, the first of them replication
    ``first_index`` of the ensemble."""
    state = _start(problem, x0, seeds)
    iterates, sq_error, value_gap = {}, {}, {}
    if x_ref is not None:
        x_ref = np.asarray(x_ref, dtype=float)
        f_ref = float(problem.value(x_ref))

    def record(state):
        x, n_state = state.x, state.n
        iterates[n_state] = x.copy()
        if x_ref is not None:
            sq_error[n_state] = _sq_errors(x, x_ref)
            value_gap[n_state] = problem.values(x) - f_ref

    _drive(state, problem, lam, schedule, n_iters, sorted(set(checkpoints)), record,
           lambda r: f"replication {first_index + r} (seed {seeds[r]})")
    return EnsembleResult(list(seeds), state.x, np.linalg.norm(state.mean, axis=1),
                          iterates, sq_error, value_gap)


# -- trace serialization ----------------------------------------------------

_TRACE_COLUMNS = ("n", "V_n", "A_n", "tau2", "T_n", "grad_eval_norm", "value_gap")


def write_trace_csv(trace: RunTrace, path) -> None:
    """One snapshot per row; floats at full round-trip precision."""

    def fmt(x):
        return "" if x is None else repr(float(x))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_TRACE_COLUMNS)
        for s in trace.snapshots:
            writer.writerow(
                [s.n, fmt(s.v_n), fmt(s.a_n), fmt(s.tau2), fmt(s.t_n),
                 fmt(s.grad_eval_norm), fmt(s.value_gap)]
            )


def write_trace_metadata(trace: RunTrace, path) -> None:
    """What reproduces the run, as sorted JSON.  The wall time is left out,
    so that the file is byte-reproducible.  ``"x1"``, the first iterate,
    is ``x0``: the iteration starts there."""
    x0 = None if trace.x0 is None else trace.x0.tolist()
    meta = {
        "schedule": {"c": trace.schedule.c, "alpha": trace.schedule.alpha},
        "lambda": trace.lam,
        "seed": trace.seed,
        "problem": trace.problem_descriptor,
        "x0": x0,
        "x1": x0,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
