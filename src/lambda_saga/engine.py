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
identical to the SAGA update written left to right.

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

import csv
import json
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .problems import FiniteSumProblem
from .schedule import StepSchedule


class RunError(RuntimeError):
    pass


_SAMPLER_BLOCK = 4096


class IndexSampler:
    """Uniform i.i.d. component indices from a counter-based generator.

    For a fixed (seed, n_components) the emitted sequence is a deterministic
    function of position only: it does not depend on how the draws are
    partitioned into ``take`` calls, so independent consumers (the engine,
    ensemble workers, reference implementations in tests) can replay the
    exact same sampling stream.
    """

    def __init__(self, seed: int, n_components: int):
        if n_components < 1:
            raise ValueError("n_components must be positive")
        self.seed = int(seed)
        self.n_components = int(n_components)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` indices in [0, n_components)."""
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._pos == len(self._buf):
                self._buf = self._gen.integers(
                    0, self.n_components, size=_SAMPLER_BLOCK
                )
                self._pos = 0
            chunk = min(count - filled, len(self._buf) - self._pos)
            out[filled : filled + chunk] = self._buf[self._pos : self._pos + chunk]
            self._pos += chunk
            filled += chunk
        return out


# Distinct Philox key stream for initial points so initialization never
# perturbs the index sampling sequence of the same seed.
_INIT_STREAM_SALT = 0x9E3779B97F4A7C15


def gaussian_initial_point(dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Seeded Gaussian initial point, decoupled from the sampling stream."""
    gen = np.random.Generator(np.random.Philox(key=int(seed) ^ _INIT_STREAM_SALT))
    return scale * gen.standard_normal(dim)


class GradientTable:
    """The N stored component gradients and their incrementally tracked mean.

    The mean is updated in O(d) per row replacement and recomputed from
    scratch every ``resync_every`` updates to keep floating-point drift
    bounded (pass 0 to disable resyncing).
    """

    def __init__(self, rows: np.ndarray, resync_every: int | None = None):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must be an (N, d) array")
        self.rows = rows
        self.mean = rows.mean(axis=0)
        self.resync_every = rows.shape[0] if resync_every is None else resync_every
        self._updates_since_sync = 0

    @property
    def n_components(self) -> int:
        return self.rows.shape[0]

    def update(self, k: int, new_row: np.ndarray) -> None:
        """Replace row k, maintaining the mean incrementally."""
        if not (0 <= k < self.n_components):
            raise IndexError(f"component index {k} out of range")
        self.mean += (new_row - self.rows[k]) / self.n_components
        self.rows[k] = new_row
        self._updates_since_sync += 1
        if self.resync_every and self._updates_since_sync >= self.resync_every:
            self.resync()

    def resync(self) -> None:
        self.mean = self.rows.mean(axis=0)
        self._updates_since_sync = 0


@dataclass
class OptimizerState:
    """Iterate, gradient table, and iteration counter of one running optimizer."""

    iterate: np.ndarray
    table: GradientTable
    n: int
    sampler: IndexSampler | None = None


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
    x1: np.ndarray | None = None
    wall_time_s: float | None = None


def init_state(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    x1: np.ndarray | None = None,
    seed: int | None = None,
) -> OptimizerState:
    """Fresh optimizer state: table rows are the component gradients at x0,
    the iterate starts at x1 (default x0), and the counter starts at 1."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 must have dimension {problem.dim}, got {x0.shape}")
    if x1 is None:
        x1 = x0
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (problem.dim,):
        raise ValueError(f"x1 must have dimension {problem.dim}, got {x1.shape}")
    table = GradientTable(problem.gradient_table(x0))
    sampler = None if seed is None else IndexSampler(seed, problem.n_components)
    return OptimizerState(iterate=x1.copy(), table=table, n=1, sampler=sampler)


def lambda_saga_step(
    state: OptimizerState,
    problem: FiniteSumProblem,
    lam: float,
    gamma: float,
    k: int,
) -> OptimizerState:
    """Advance one step with sampled index k; mutates and returns ``state``.

    The iterate update uses the pre-update table row and mean; afterwards row
    k is overwritten with the component gradient at the old iterate.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if not (0 <= k < problem.n_components):
        raise IndexError(f"component index {k} out of range")
    x = state.iterate
    g_new = problem.component_gradient(k, x)
    direction = (g_new - lam * state.table.rows[k]) + lam * state.table.mean
    state.iterate = x - gamma * direction
    state.table.update(k, g_new)
    state.n += 1
    return state


def theta_star(problem: FiniteSumProblem, x_ref: np.ndarray) -> float:
    """Average squared component-gradient norm at the reference point."""
    return _ref_quantities(problem, x_ref)[1]


# Cache of (gradient table at x_ref, theta*, f(x_ref)) per live problem
# instance; problems are immutable so the cached values never go stale.
_REF_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _ref_quantities(problem, x_ref):
    x_ref = np.asarray(x_ref, dtype=float)
    per_problem = _REF_CACHE.setdefault(problem, {})
    key = x_ref.tobytes()
    hit = per_problem.get(key)
    if hit is None:
        table_ref = problem.gradient_table(x_ref)
        theta = float((table_ref**2).sum(axis=1).mean())
        f_ref = float(problem.value(x_ref))
        hit = (table_ref, theta, f_ref)
        if len(per_problem) > 8:
            per_problem.clear()
        per_problem[key] = hit
    return hit


def diagnostics(
    state: OptimizerState,
    problem: FiniteSumProblem,
    x_ref: np.ndarray,
    schedule: StepSchedule | None = None,
) -> DiagnosticsSnapshot:
    """Full diagnostics snapshot of ``state`` relative to reference point x_ref.

    ``tau2`` is recomputed by a fresh pass over all components at the current
    iterate; ``a_n`` needs only the stored table rows.  ``t_n`` uses the step
    gamma(n - 1) and needs a schedule; at the initial state n = 1, where no
    previous step exists, gamma(1) stands in.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    table_ref, _, f_ref = _ref_quantities(problem, x_ref)
    x = state.iterate
    diff = x - x_ref
    v_n = float(diff @ diff)
    a_n = float(((state.table.rows - table_ref) ** 2).sum(axis=1).mean())
    tau2 = float(((problem.gradient_table(x) - table_ref) ** 2).sum(axis=1).mean())
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
        grad_eval_norm=float(np.linalg.norm(state.table.mean)),
        value_gap=float(problem.value(x)) - f_ref,
    )


def _partial_snapshot(state) -> DiagnosticsSnapshot:
    return DiagnosticsSnapshot(
        n=state.n,
        v_n=None,
        a_n=None,
        tau2=None,
        t_n=None,
        grad_eval_norm=float(np.linalg.norm(state.table.mean)),
        value_gap=None,
    )


def conditional_step_expectation(
    state: OptimizerState,
    problem: FiniteSumProblem,
    x_ref: np.ndarray,
) -> tuple[float, np.ndarray]:
    """One-step conditional expectations by enumerating every possible draw.

    Returns ``(expected_a_next, martingale_mean)`` where ``expected_a_next``
    averages, over the N equally likely draws, the table discrepancy a_{n+1}
    that each draw would produce, and ``martingale_mean`` is the average of
    the table-centering martingale increments.  Does not mutate the state.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    table_ref, _, _ = _ref_quantities(problem, x_ref)
    rows = state.table.rows
    n_comp = problem.n_components

    stored_disc = ((rows - table_ref) ** 2).sum(axis=1)
    fresh_disc = (
        (problem.gradient_table(state.iterate) - table_ref) ** 2
    ).sum(axis=1)
    a_n = float(stored_disc.mean())
    # Draw k replaces row k: a_{n+1} = a_n + (fresh_k - stored_k) / N.
    a_next_per_draw = a_n + (fresh_disc - stored_disc) / n_comp
    expected_a_next = float(a_next_per_draw.mean())

    # The increment for draw k is rows[k] - mean(rows); averaging over k
    # telescopes to mean(rows) - mean(rows).  Evaluating both terms with the
    # identical reduction makes the centering identity exact in floating
    # point, not just up to round-off.
    mean_of_rows = rows.mean(axis=0)
    martingale_mean = rows.mean(axis=0) - mean_of_rows
    return expected_a_next, martingale_mean


def run(
    problem: FiniteSumProblem,
    lam: float,
    schedule: StepSchedule,
    n_iters: int,
    seed: int,
    diag_every: int = 1000,
    x_ref: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    x1: np.ndarray | None = None,
) -> RunTrace:
    """Run ``n_iters`` optimizer steps with i.i.d. uniform sampling.

    Snapshots are recorded at iteration 1, every ``diag_every`` steps, and at
    the final iterate.  Reference-dependent diagnostics need ``x_ref``; the
    gradient-evaluation norm is recorded regardless.  Initial points default
    to the zero vector with x1 = x0.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if n_iters < 0:
        raise ValueError("n_iters must be nonnegative")
    if diag_every <= 0:
        raise ValueError("cadence must be positive")

    if x0 is None:
        x0 = np.zeros(problem.dim)
    state = init_state(problem, x0, x1, seed=seed)
    sampler = state.sampler
    start = time.perf_counter()

    def snap():
        if x_ref is not None:
            return diagnostics(state, problem, x_ref, schedule)
        return _partial_snapshot(state)

    trace = RunTrace(
        schedule=schedule,
        lam=lam,
        seed=seed,
        problem_descriptor=problem.describe(),
        x0=np.asarray(x0, dtype=float).copy(),
        x1=state.iterate.copy(),
    )
    trace.snapshots.append(snap())

    gammas = schedule.gammas(1, n_iters) if n_iters else np.empty(0)
    pos = 0
    while pos < n_iters:
        block = min(_SAMPLER_BLOCK, n_iters - pos)
        ks = sampler.take(block)
        for j in range(block):
            try:
                lambda_saga_step(state, problem, lam, gammas[pos + j], int(ks[j]))
            except Exception as exc:
                raise RunError(f"step failed at iteration n={state.n}: {exc}") from exc
            if state.n % diag_every == 0:
                trace.snapshots.append(snap())
        if not np.all(np.isfinite(state.iterate)):
            raise RunError(
                f"run with seed {seed} has a non-finite iterate at a state "
                f"counter in n={pos + 2}..{pos + block + 1}"
            )
        pos += block

    if not trace.snapshots or trace.snapshots[-1].n != state.n:
        trace.snapshots.append(snap())
    trace.final_iterate = state.iterate.copy()
    trace.wall_time_s = time.perf_counter() - start
    return trace


# -- trace serialization ----------------------------------------------------

_TRACE_COLUMNS = ("n", "V_n", "A_n", "tau2", "T_n", "grad_eval_norm", "value_gap")


def write_trace_csv(trace: RunTrace, path) -> None:
    """One snapshot per row; floats at full round-trip precision."""

    def fmt(x):
        return "" if x is None else repr(float(x))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for s in trace.snapshots:
            writer.writerow(
                [s.n, fmt(s.v_n), fmt(s.a_n), fmt(s.tau2), fmt(s.t_n),
                 fmt(s.grad_eval_norm), fmt(s.value_gap)]
            )


def trace_metadata(trace: RunTrace) -> dict:
    return {
        "schedule": {"c": trace.schedule.c, "alpha": trace.schedule.alpha},
        "lambda": trace.lam,
        "seed": trace.seed,
        "problem": trace.problem_descriptor,
        "x0": None if trace.x0 is None else trace.x0.tolist(),
        "x1": None if trace.x1 is None else trace.x1.tolist(),
        "wall_time_s": trace.wall_time_s,
    }


def write_trace_metadata(trace: RunTrace, path) -> None:
    with open(path, "w") as fh:
        json.dump(trace_metadata(trace), fh, indent=2)
        fh.write("\n")
