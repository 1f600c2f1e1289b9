import concurrent.futures
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lambda_saga import (
    FiniteSumProblem,
    QuadraticProblem,
    RunError,
    StepSchedule,
    check_assumptions,
    derive_seeds,
    random_logistic,
    random_quadratic,
    run,
    run_ensemble,
    solve_minimizer,
)
from lambda_saga import engine
from lambda_saga.engine import _scalar_table_mean, _table_mean


class BrokenAfter(QuadraticProblem):
    """A quadratic whose batched gradient hook raises from its call number
    ``calls + 1`` on, that is at the state counter n = calls + 1."""

    def __init__(self, calls):
        super().__init__(np.random.default_rng(0).standard_normal((5, 2)))
        self.calls = calls

    def component_gradients(self, ks, xs):
        if self.calls == 0:
            raise FloatingPointError("boom")
        self.calls -= 1
        return super().component_gradients(ks, xs)


class TestReplicationSemantics:
    def test_replications_match_scalar_runs_bitwise_on_quadratic(self):
        problem = random_quadratic(20, 3, seed=1)
        schedule = StepSchedule(1.0, 0.8)
        result = run_ensemble(problem, 0.7, schedule, 800, 4, base_seed=55,
                              x_ref=solve_minimizer(problem))
        for m, seed in enumerate(derive_seeds(55, 4)):
            trace = run(problem, 0.7, schedule, 800, seed=seed, diag_every=10**9)
            assert np.array_equal(result.final_iterates[m], trace.final_iterate)

    def test_replications_match_scalar_runs_on_logistic(self):
        problem = random_logistic(25, 3, seed=2)
        schedule = StepSchedule(1.0, 1.0)
        result = run_ensemble(problem, 0.5, schedule, 500, 3, base_seed=7)
        for m, seed in enumerate(derive_seeds(7, 3)):
            trace = run(problem, 0.5, schedule, 500, seed=seed, diag_every=10**9)
            assert_same_bits(result.final_iterates[m], trace.final_iterate)

    def test_same_base_seed_reproduces(self):
        problem = random_quadratic(10, 2, seed=3)
        schedule = StepSchedule(1.0, 1.0)
        a = run_ensemble(problem, 0.9, schedule, 300, 5, base_seed=9)
        b = run_ensemble(problem, 0.9, schedule, 300, 5, base_seed=9)
        assert np.array_equal(a.final_iterates, b.final_iterates)

    def test_distinct_replications_distinct_iterates(self):
        problem = random_quadratic(10, 2, seed=3)
        result = run_ensemble(problem, 0.5, StepSchedule(1.0, 1.0), 300, 6,
                              base_seed=1)
        finals = result.final_iterates
        for i in range(6):
            for j in range(i + 1, 6):
                assert not np.array_equal(finals[i], finals[j])

    def test_checkpoint_bookkeeping(self):
        problem = random_quadratic(10, 2, seed=4)
        x_ref = solve_minimizer(problem)
        result = run_ensemble(problem, 1.0, StepSchedule(1.0, 1.0), 100, 3,
                              base_seed=0, x_ref=x_ref, checkpoints=(11, 51, 101))
        assert set(result.checkpoint_sq_error) == {11, 51, 101}
        for n, iterates in result.checkpoint_iterates.items():
            sq = ((iterates - x_ref) ** 2).sum(axis=1)
            assert np.allclose(sq, result.checkpoint_sq_error[n])
        # final checkpoint coincides with the final state
        assert np.array_equal(result.checkpoint_iterates[101],
                              result.final_iterates)

    def test_checkpoint_out_of_range(self):
        problem = random_quadratic(10, 2, seed=4)
        with pytest.raises(ValueError, match="checkpoints"):
            run_ensemble(problem, 1.0, StepSchedule(1.0, 1.0), 100, 2,
                         base_seed=0, checkpoints=(102,))

    def test_non_integral_checkpoint_named(self):
        problem = random_quadratic(10, 2, seed=4)
        schedule = StepSchedule(1.0, 1.0)
        with pytest.raises(ValueError, match=r"^checkpoint 2\.5 must be an integer$"):
            run_ensemble(problem, 1.0, schedule, 100, 2, 0, checkpoints=(2.5, 50))
        # Integers of any kind pass, numpy's included.
        result = run_ensemble(problem, 1.0, schedule, 100, 2, 0,
                              checkpoints=(np.int64(2), np.uint8(50)))
        assert set(result.checkpoint_iterates) == {2, 50}

    def test_worker_split_is_transparent(self):
        problem = random_quadratic(12, 3, seed=6)
        schedule = StepSchedule(1.0, 0.9)
        serial = run_ensemble(problem, 0.8, schedule, 400, 6, base_seed=21,
                              x_ref=solve_minimizer(problem),
                              checkpoints=(201, 401))
        parallel = run_ensemble(problem, 0.8, schedule, 400, 6, base_seed=21,
                                x_ref=solve_minimizer(problem),
                                checkpoints=(201, 401), workers=3)
        assert np.array_equal(serial.final_iterates, parallel.final_iterates)
        for n in (201, 401):
            assert np.array_equal(serial.checkpoint_sq_error[n],
                                  parallel.checkpoint_sq_error[n])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_raises_naming_replication(self, workers):
        # Steps near 1e6 overflow every replication's iterate to inf and nan.
        with pytest.raises(
            RunError,
            match=r"replication 0 \(seed 3\) .*non-finite.*n=2\.\.201",
        ):
            run_ensemble(random_quadratic(10, 2, 1), 0.5,
                         StepSchedule(1e6, 0.51), 200, 4, base_seed=3,
                         workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_step_error_wrapped_with_iteration(self, workers):
        with pytest.raises(RunError, match=r"step failed at iteration n=56: boom"):
            run_ensemble(BrokenAfter(55), 0.0, StepSchedule(1.0, 1.0), 100, 4,
                         base_seed=0, workers=workers)


@pytest.mark.parametrize("argument, value", [
    ("workers", 0), ("workers", -5), ("sample_count", 0), ("sample_count", -3),
])
def test_library_counts_below_one_named(argument, value):
    problem = random_quadratic(5, 2, 1)
    calls = {
        "workers": lambda: run_ensemble(problem, 0.5, StepSchedule(1.0, 1.0),
                                        10, 4, 0, workers=value),
        "sample_count": lambda: check_assumptions(problem, sample_count=value),
    }
    with pytest.raises(ValueError,
                       match=f"{argument} must be at least 1, got {value}"):
        calls[argument]()


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


@pytest.mark.parametrize("entry", ["run", "run_ensemble-1", "run_ensemble-2"])
def test_x0_of_wrong_dimension_named(entry, monkeypatch):
    # A bad x0 is found before any worker process starts.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    problem = random_quadratic(5, 2, 1)
    schedule = StepSchedule(1.0, 1.0)
    calls = {
        "run": lambda: run(problem, 0.5, schedule, 10, 0, x0=np.zeros(3)),
        "run_ensemble-1": lambda: run_ensemble(problem, 0.5, schedule, 10, 4, 0,
                                               x0=np.zeros(3), workers=1),
        "run_ensemble-2": lambda: run_ensemble(problem, 0.5, schedule, 10, 4, 0,
                                               x0=np.zeros(3), workers=2),
    }
    with pytest.raises(ValueError, match=r"^x0 must have dimension 2, got \(3,\)$"):
        calls[entry]()


def test_bad_seed_named_before_pool_starts(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match=r"^seed -1 must lie in \[0, 2\*\*128\)$"):
        run_ensemble(random_quadratic(5, 2, 1), 0.5, StepSchedule(1.0, 1.0), 10,
                     4, -1, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_non_integral_base_seed_named_before_pool_starts(monkeypatch, workers):
    # Truncated, base seed 2.7 would run the seeds [2, 3, 0].
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match=r"^seed 2\.7 must be an integer$"):
        run_ensemble(random_quadratic(5, 2, 1), 0.5, StepSchedule(1.0, 1.0), 10,
                     4, 2.7, workers=workers)
    with pytest.raises(ValueError, match=r"^seed 2\.7 must be an integer$"):
        derive_seeds(2.7, 3)


@pytest.mark.parametrize("n_comp, m", [(200, 7), (300, 300)])
def test_narrow_indices_match_scalar_runs_bitwise(n_comp, m):
    # Indices are uint8 at N = 200 and uint16 at N = 300, and k*M exceeds
    # either type, so a flat row formed in the indices' type would wrap.
    problem = random_quadratic(n_comp, 2, 3)
    schedule = StepSchedule(1.0, 0.75)
    result = run_ensemble(problem, 0.5, schedule, 300, m, base_seed=11)
    for r, seed in enumerate(derive_seeds(11, m)):
        trace = run(problem, 0.5, schedule, 300, seed, diag_every=10**9)
        assert_same_bits(result.final_iterates[r], trace.final_iterate)


@settings(deadline=None, max_examples=20)
@given(
    n_comp=st.integers(1, 30),
    dim=st.integers(1, 4),
    m=st.integers(1, 6),
    lam=st.floats(0.0, 1.0),
    c=st.floats(0.1, 1.0),
    alpha=st.floats(0.5, 1.0, exclude_min=True),
    # Across the 4096-step kernel block, so that runs reach a second and
    # partial block, and mostly off multiples of N.
    n_iters=st.integers(3900, 4400),
    checkpoint_at=st.floats(0.0, 1.0),
    problem_seed=st.integers(0, 2**16),
    base_seed=st.integers(0, 2**31),
)
# numpy sums a single contiguous column pairwise, so d = 1 with N >= 8 needs
# its own resync summation order.
@example(n_comp=20, dim=1, m=5, lam=0.5, c=1.0, alpha=1.0, n_iters=4099,
         checkpoint_at=0.5, problem_seed=0, base_seed=1)
def test_ensemble_matches_scalar_runs_and_workers_bitwise(
    n_comp, dim, m, lam, c, alpha, n_iters, checkpoint_at, problem_seed,
    base_seed,
):
    problem = random_quadratic(n_comp, dim, problem_seed)
    schedule = StepSchedule(c, alpha)
    checkpoint = 2 + int(checkpoint_at * (n_iters - 1))
    checkpoints = tuple(sorted({checkpoint, n_iters + 1}))
    serial = run_ensemble(problem, lam, schedule, n_iters, m, base_seed,
                          checkpoints=checkpoints)
    parallel = run_ensemble(problem, lam, schedule, n_iters, m, base_seed,
                            checkpoints=checkpoints, workers=2)
    assert np.array_equal(serial.final_iterates, parallel.final_iterates)
    for n in checkpoints:
        assert np.array_equal(serial.checkpoint_iterates[n],
                              parallel.checkpoint_iterates[n])
    for r, seed in enumerate(derive_seeds(base_seed, m)):
        final = run(problem, lam, schedule, n_iters, seed, diag_every=10**9)
        assert np.array_equal(serial.final_iterates[r], final.final_iterate)
        # The state counter n is reached after n - 1 steps.
        early = run(problem, lam, schedule, checkpoint - 1, seed,
                    diag_every=10**9)
        assert np.array_equal(serial.checkpoint_iterates[checkpoint][r],
                              early.final_iterate)


@pytest.mark.parametrize("make, shape", [
    (random_quadratic, (50, 5, 31)), (random_logistic, (100, 5, 2024)),
])
def test_scalar_run_diagnostics_match_its_replication_bitwise(make, shape):
    problem = make(*shape)
    x_ref = solve_minimizer(problem)
    schedule = StepSchedule(1.0, 1.0)
    n_iters, m, base = 3000, 8, 17
    # Ensemble checkpoints every 125 steps; run snapshots every 250 steps.
    result = run_ensemble(problem, 0.5, schedule, n_iters, m, base, x_ref=x_ref,
                          checkpoints=tuple(range(125, n_iters + 2, 125)) + (n_iters + 1,))
    compared = 0
    for r in range(m):
        trace = run(problem, 0.5, schedule, n_iters, base ^ r, diag_every=250,
                    x_ref=x_ref)
        for snap in trace.snapshots:
            if snap.n not in result.checkpoint_sq_error:
                continue
            compared += 1
            assert snap.v_n == result.checkpoint_sq_error[snap.n][r], (r, snap.n)
            # A one-row logistic ``values`` goes through a matrix-vector
            # product and a batch through a matrix product, whose sums may
            # differ in the last bit, so only quadratic value gaps are equal.
            if make is random_quadratic:
                assert snap.value_gap == result.checkpoint_value_gap[snap.n][r]
        assert trace.snapshots[-1].grad_eval_norm == result.final_grad_eval_norm[r]
    assert compared == m * (n_iters // 250 + 1)  # every snapshot past n = 1


def assert_same_bits(a, b):
    """Equal arrays down to the sign of zero, which ``array_equal`` ignores."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class DenseRows(FiniteSumProblem):
    """A problem's gradients as plain arrays, without their factors, so
    that an ensemble stores them as dense (N, M, d) rows."""

    def __init__(self, problem):
        self.problem = problem
        self.n_components, self.dim = problem.n_components, problem.dim

    def component_gradients(self, ks, xs):
        return np.asarray(self.problem.component_gradients(ks, xs))

    def gradient_table(self, x):
        return np.asarray(self.problem.gradient_table(x))

    def value(self, x):
        return self.problem.value(x)

    def values(self, xs):
        return self.problem.values(xs)


@settings(deadline=None, max_examples=20)
@given(
    n_comp=st.integers(1, 30),
    dim=st.integers(1, 4),
    m=st.integers(1, 6),
    lam=st.floats(0.0, 1.0),
    alpha=st.floats(0.5, 1.0, exclude_min=True),
    # Across the 4096-step kernel block and past many resyncs.
    n_iters=st.integers(3900, 4400),
    checkpoint_at=st.floats(0.0, 1.0),
    x0_scale=st.floats(0.0, 1.0),
    problem_seed=st.integers(0, 2**16),
    base_seed=st.integers(0, 2**31),
)
# d = 1 resyncs sum each replication's table pairwise.
@example(n_comp=20, dim=1, m=5, lam=0.5, alpha=0.75, n_iters=4099,
         checkpoint_at=0.5, x0_scale=0.5, problem_seed=0, base_seed=1)
def test_scalar_table_matches_dense_table_bitwise(
    n_comp, dim, m, lam, alpha, n_iters, checkpoint_at, x0_scale,
    problem_seed, base_seed,
):
    problem = random_logistic(n_comp, dim, problem_seed)
    x0 = x0_scale * np.random.default_rng(problem_seed).standard_normal(dim)
    checkpoint = 2 + int(checkpoint_at * (n_iters - 1))
    checkpoints = tuple(sorted({checkpoint, n_iters + 1}))
    kwargs = dict(x_ref=np.zeros(dim), checkpoints=checkpoints, x0=x0)
    schedule = StepSchedule(1.0, alpha)
    scalar = run_ensemble(problem, lam, schedule, n_iters, m, base_seed,
                          **kwargs)
    dense = run_ensemble(DenseRows(problem), lam, schedule, n_iters, m,
                         base_seed, **kwargs)
    parallel = run_ensemble(problem, lam, schedule, n_iters, m, base_seed,
                            workers=2, **kwargs)
    for other in (dense, parallel):
        assert_same_bits(scalar.final_iterates, other.final_iterates)
        assert_same_bits(scalar.final_grad_eval_norm,
                         other.final_grad_eval_norm)
        for n in checkpoints:
            for field in ("checkpoint_iterates", "checkpoint_sq_error"):
                assert_same_bits(getattr(scalar, field)[n],
                                 getattr(other, field)[n])


@settings(deadline=None, max_examples=50)
@given(
    n_comp=st.integers(1, 40),
    dim=st.integers(1, 5),
    m=st.integers(1, 6),
    chunk_rows=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_scalar_table_mean_sums_in_the_dense_order(n_comp, dim, m, chunk_rows,
                                                   seed):
    rng = np.random.default_rng(seed)
    # Zero features and zero scalars of either sign make signed-zero rows.
    features = rng.standard_normal((n_comp, dim)) * rng.integers(0, 2, (n_comp, dim))
    s = rng.standard_normal((n_comp, m)) * rng.choice([-1.0, 0.0, 1.0], (n_comp, m))
    dense = features[:, None, :] * s[:, :, None]
    # A slab of chunk_rows components at a time.
    with mock.patch.object(engine, "_RESYNC_SLAB", chunk_rows * m * dim):
        assert_same_bits(_scalar_table_mean(features, s), _table_mean(dense))


def peak_bytes(call):
    """Peak bytes traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_logistic_ensemble_stores_no_dense_table():
    problem = random_logistic(4000, 50, seed=5)
    m = 8
    dense_table_bytes = problem.n_components * m * problem.dim * 8
    peak = peak_bytes(lambda: run_ensemble(problem, 0.5, StepSchedule(1.0, 0.75),
                                           9000, m, base_seed=1))
    assert peak < dense_table_bytes / 4


def test_samplers_hold_no_draws():
    # The kernel's (n, M) uint8 index block is the largest array of a run
    # this short.  The bound fails an int64 block, eight times as large, and
    # samplers that kept a block of int64 draws each.
    problem = random_quadratic(20, 2, 1)
    m, n = 500, 4096
    index_block_bytes = n * m
    peak = peak_bytes(lambda: run_ensemble(problem, 0.5, StepSchedule(1.0, 1.0),
                                           n, m, base_seed=0))
    assert peak < 2 * index_block_bytes


@pytest.mark.parametrize("m", [16, 64])
def test_start_holds_rows_or_scalar_table_not_both(m):
    # The start's (N, d) rows are released before the (N, M) scalars are
    # allocated; holding both exceeds the bound at either M.
    problem = random_logistic(4000, 50, seed=5)
    rows = problem.n_components * problem.dim * 8
    table = problem.n_components * m * 8
    x0, seeds = np.zeros(problem.dim), derive_seeds(0, m)
    peak = peak_bytes(lambda: engine._start(problem, x0, seeds))
    assert peak < max(rows, table) + min(rows, table) / 2


def test_logistic_values_hold_two_margin_arrays():
    problem = random_logistic(4000, 50, seed=5)
    xs = np.random.default_rng(0).standard_normal((16, problem.dim))
    peak = peak_bytes(lambda: problem.values(xs))
    assert peak < 2.5 * len(xs) * problem.n_components * 8


@pytest.mark.parametrize("make", [random_quadratic, random_logistic])
def test_diagnostics_hold_one_table_at_a_time(make):
    # Once the reference table is cached, a snapshot forms one (N, d) array
    # at a time: the stored rows, then the fresh table.
    problem = make(4000, 50, 5)
    x_ref = solve_minimizer(problem)
    state = engine.init_state(problem, np.ones(problem.dim), seed=0)
    engine.diagnostics(state, problem, x_ref)
    peak = peak_bytes(lambda: engine.diagnostics(state, problem, x_ref))
    assert peak < 1.5 * problem.n_components * problem.dim * 8


class TestConvergenceProxy:
    def test_iterate_error_eventually_small_for_every_seed(self):
        # 20 replications, 1e5 steps, quadratic with step 1/n
        problem = random_quadratic(50, 5, seed=7)
        result = run_ensemble(problem, 0.5, StepSchedule(1.0, 1.0), 100_000, 20,
                              base_seed=3, x_ref=solve_minimizer(problem),
                              checkpoints=(100_001,))
        final_sq_error = result.checkpoint_sq_error[100_001]
        assert final_sq_error.max() < 1e-2
