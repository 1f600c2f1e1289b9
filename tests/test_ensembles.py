import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lambda_saga import (
    RunError,
    StepSchedule,
    derive_seeds,
    random_logistic,
    random_quadratic,
    run,
    run_ensemble,
)


class TestReplicationSemantics:
    def test_replications_match_scalar_runs_bitwise_on_quadratic(self):
        problem = random_quadratic(20, 3, seed=1)
        schedule = StepSchedule(1.0, 0.8)
        result = run_ensemble(problem, 0.7, schedule, 800, 4, base_seed=55,
                              x_ref=problem.reference_minimizer())
        for m, seed in enumerate(derive_seeds(55, 4)):
            trace = run(problem, 0.7, schedule, 800, seed=seed, diag_every=10**9)
            assert np.array_equal(result.final_iterates[m], trace.final_iterate)

    def test_replications_match_scalar_runs_on_logistic(self):
        problem = random_logistic(25, 3, seed=2)
        schedule = StepSchedule(1.0, 1.0)
        result = run_ensemble(problem, 0.5, schedule, 500, 3, base_seed=7)
        for m, seed in enumerate(derive_seeds(7, 3)):
            trace = run(problem, 0.5, schedule, 500, seed=seed, diag_every=10**9)
            assert np.allclose(result.final_iterates[m], trace.final_iterate,
                               rtol=1e-12, atol=1e-14)

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
        x_ref = problem.reference_minimizer()
        result = run_ensemble(problem, 1.0, StepSchedule(1.0, 1.0), 100, 3,
                              base_seed=0, x_ref=x_ref, checkpoints=(11, 51, 101),
                              keep_checkpoint_iterates=True)
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

    def test_worker_split_is_transparent(self):
        problem = random_quadratic(12, 3, seed=6)
        schedule = StepSchedule(1.0, 0.9)
        serial = run_ensemble(problem, 0.8, schedule, 400, 6, base_seed=21,
                              x_ref=problem.reference_minimizer(),
                              checkpoints=(201, 401))
        parallel = run_ensemble(problem, 0.8, schedule, 400, 6, base_seed=21,
                                x_ref=problem.reference_minimizer(),
                                checkpoints=(201, 401), workers=3)
        assert np.array_equal(serial.final_iterates, parallel.final_iterates)
        for n in (201, 401):
            assert np.array_equal(serial.checkpoint_sq_error[n],
                                  parallel.checkpoint_sq_error[n])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


@settings(deadline=None, max_examples=20)
@given(
    n_comp=st.integers(1, 30),
    dim=st.integers(1, 4),
    m=st.integers(1, 6),
    lam=st.floats(0.0, 1.0),
    c=st.floats(0.1, 1.0),
    alpha=st.floats(0.5, 1.0, exclude_min=True),
    # Across the 4096-draw sampler block, so that runs reach a second and
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
    kwargs = dict(checkpoints=checkpoints, keep_checkpoint_iterates=True)
    serial = run_ensemble(problem, lam, schedule, n_iters, m, base_seed,
                          **kwargs)
    parallel = run_ensemble(problem, lam, schedule, n_iters, m, base_seed,
                            workers=2, **kwargs)
    assert np.array_equal(serial.final_iterates, parallel.final_iterates)
    for n in checkpoints:
        assert np.array_equal(serial.checkpoint_iterates[n],
                              parallel.checkpoint_iterates[n])
        assert np.array_equal(serial.checkpoint_grad_eval_norm[n],
                              parallel.checkpoint_grad_eval_norm[n])
    for r, seed in enumerate(derive_seeds(base_seed, m)):
        final = run(problem, lam, schedule, n_iters, seed, diag_every=10**9)
        assert np.array_equal(serial.final_iterates[r], final.final_iterate)
        # The state counter n is reached after n - 1 steps.
        early = run(problem, lam, schedule, checkpoint - 1, seed,
                    diag_every=10**9)
        assert np.array_equal(serial.checkpoint_iterates[checkpoint][r],
                              early.final_iterate)


class TestConvergenceProxy:
    def test_iterate_error_eventually_small_for_every_seed(self):
        # 20 replications, 1e5 steps, quadratic with step 1/n
        problem = random_quadratic(50, 5, seed=7)
        result = run_ensemble(problem, 0.5, StepSchedule(1.0, 1.0), 100_000, 20,
                              base_seed=3, x_ref=problem.reference_minimizer(),
                              checkpoints=(100_001,))
        final_sq_error = result.checkpoint_sq_error[100_001]
        assert final_sq_error.max() < 1e-2
