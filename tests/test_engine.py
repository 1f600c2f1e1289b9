import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from references import conditional_step_expectation, saga_reference, sgd_reference

from lambda_saga import (
    IndexSampler,
    QuadraticProblem,
    RunError,
    StepSchedule,
    diagnostics,
    gaussian_initial_point,
    init_state,
    lambda_saga_step,
    random_logistic,
    random_quadratic,
    run,
    solve_minimizer,
    write_trace_csv,
    write_trace_metadata,
)
from lambda_saga.engine import _drive, _start


@pytest.fixture
def tiny_quadratic():
    # scalar problem with anchors 1 and -1: minimizer 0, table at x0=2 is (1, 3)
    return QuadraticProblem(np.array([[1.0], [-1.0]]))


class TestIndexSampler:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**128 - 1),
        n_components=st.one_of(st.integers(1, 40), st.integers(1, 2**34)),
        counts=st.lists(st.integers(0, 5000), max_size=6),
    )
    @example(seed=99, n_components=17, counts=[1, 4095, 5904])
    @example(seed=99, n_components=17, counts=[1] * 4100)
    @example(seed=3, n_components=2**31 + 11, counts=[1, 4096, 3])
    @example(seed=3, n_components=2**33, counts=[4095, 2, 4096])
    def test_stream_independent_of_take_pattern(self, seed, n_components, counts):
        # Below 2**32 each draw takes half of a 64-bit Philox output, so odd
        # counts leave a half that the next call must use; above, whole ones.
        split = IndexSampler(seed, n_components)
        parts = [split.take(count) for count in counts] + [split.take(7)]
        whole = IndexSampler(seed, n_components).take(sum(counts) + 7)
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("seed, n_components, head, tail", [
        (0, 20, [0, 0, 12, 4], [12, 11, 10, 0, 11]),
        (2024, 17, [4, 12, 3, 11], [13, 0, 10, 16, 11]),
        (99, 2**31 + 11, [437077140, 812743845, 1650280098, 1696203176],
         [973205112, 1277154017, 2005076839, 838599972, 1941736302]),
        (5, 2**33, [6302829764, 5072533712, 1785065207, 3808459962],
         [5837974613, 6567082867, 5352226578, 5551393317, 1288115347]),
        (2**128 - 1, 1000, [445, 426, 248, 571], [888, 868, 172, 513, 543]),
    ])
    def test_stream_pinned(self, seed, n_components, head, tail):
        # Draws 0-3 and 4094-4098, across the 4096-draw boundary at which a
        # sampler that buffered its draws refilled; the values were recorded
        # from that sampler, so replay of earlier runs rests on them.
        sampler = IndexSampler(seed, n_components)
        assert sampler.take(4).tolist() == head
        sampler.take(4090)
        assert sampler.take(5).tolist() == tail
        assert np.array_equal(IndexSampler(seed, n_components).take(4099)[4094:],
                              tail)

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**130 + 5])
    def test_rejects_seed_outside_philox_keys(self, seed):
        with pytest.raises(ValueError, match=rf"seed {seed} must lie in \[0, 2\*\*128\)"):
            IndexSampler(seed, 5)
        with pytest.raises(ValueError, match=rf"seed {seed} "):
            gaussian_initial_point(3, seed)

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "4"])
    def test_rejects_non_integral_seed_by_name(self, seed):
        # int(1.5) would run the stream of seed 1 under the name 1.5.
        named = rf"^seed {re.escape(repr(seed))} must be an integer$"
        problem = random_quadratic(5, 2, seed=9)
        for call in (lambda: IndexSampler(seed, 5),
                     lambda: gaussian_initial_point(3, seed),
                     lambda: run(problem, 0.5, StepSchedule(1.0, 1.0), 10, seed)):
            with pytest.raises(ValueError, match=named):
                call()

    def test_numpy_integer_seeds_pass(self):
        assert np.array_equal(IndexSampler(np.uint64(7), 50).take(100),
                              IndexSampler(7, 50).take(100))
        trace = run(random_quadratic(5, 2, seed=9), 0.5, StepSchedule(1.0, 1.0), 10,
                    np.int32(7))
        assert type(trace.seed) is int and trace.seed == 7

    def test_distinct_seeds_distinct_streams(self):
        a = IndexSampler(1, 50).take(1000)
        b = IndexSampler(2, 50).take(1000)
        assert not np.array_equal(a, b)

    def test_range(self):
        draws = IndexSampler(0, 7).take(10_000)
        assert draws.min() >= 0 and draws.max() <= 6


class TestGaussianInit:
    def test_pinned(self):
        assert gaussian_initial_point(3, 0).tolist() == [
            0.543106831052322, 0.3834126961374962, 0.4872590955315451]
        assert gaussian_initial_point(2, 2**100).tolist() == [
            -0.4755188341553762, -1.1845868963414377]

    def test_deterministic_and_decoupled_from_sampling(self):
        a = gaussian_initial_point(4, seed=10, scale=2.0)
        b = gaussian_initial_point(4, seed=10, scale=2.0)
        assert np.array_equal(a, b)
        # the index stream for the same seed is unaffected by drawing x0
        before = IndexSampler(10, 9).take(100)
        gaussian_initial_point(4, seed=10)
        after = IndexSampler(10, 9).take(100)
        assert np.array_equal(before, after)
        assert np.array_equal(
            gaussian_initial_point(4, seed=10, scale=2.0),
            2.0 * gaussian_initial_point(4, seed=10, scale=1.0),
        )

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match=rf"^scale must be finite, got {scale}$"):
            gaussian_initial_point(4, seed=10, scale=scale)


def scrambled_state(problem, rng, steps):
    """A scalar state whose table rows were stored at ``steps`` random
    iterates with random steps, and whose iterate is random."""
    state = init_state(problem, rng.standard_normal(problem.dim))
    for _ in range(steps):
        state.x[0] = rng.standard_normal(problem.dim)
        lambda_saga_step(state, problem, rng.random(), rng.random(),
                         int(rng.integers(problem.n_components)))
    state.x[0] = rng.standard_normal(problem.dim)
    return state


class TestGradientTable:
    """The kernel state's stored gradients and their incrementally kept mean."""

    def test_incremental_mean_tracks_rows(self):
        problem = random_quadratic(30, 3, seed=0)
        # 217 steps end 7 updates after the last resync.
        state = scrambled_state(problem, np.random.default_rng(0), 217)
        assert (state.n - 1) % problem.n_components == 7
        assert np.allclose(state.mean[0], state.table.rows()[:, 0, :].mean(axis=0),
                           atol=1e-12)

    @pytest.mark.parametrize("make", [random_quadratic, random_logistic])
    @settings(max_examples=25, deadline=None)
    @given(n_comp=st.integers(2, 200), dim=st.integers(1, 4),
           problem_seed=st.integers(0, 2**32 - 1), sampler_seed=st.integers(0, 2**32),
           m=st.integers(1, 8), lam=st.floats(0.0, 1.0), c=st.floats(0.1, 2.0),
           alpha=st.floats(0.51, 1.0),
           x0=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
    @example(n_comp=1000, dim=3, problem_seed=1, sampler_seed=0, m=64, lam=0.5,
             c=1.0, alpha=0.75, x0=[1.0] * 4)
    def test_drift_bounded_before_resync(self, make, n_comp, dim, problem_seed,
                                         sampler_seed, m, lam, c, alpha, x0):
        # At state counters n = N, 2N, ... each replication's mean has taken
        # N - 1 incremental updates since the last resync, the most it ever
        # takes; compare it there with the exact mean of its table.
        problem = make(n_comp, dim, problem_seed)
        x0 = np.array(x0[:dim])
        state = _start(problem, x0, [sampler_seed + i for i in range(m)])
        drifts = []

        def record(state):
            assert (state.n - 1) % n_comp == n_comp - 1
            drifts.append(np.abs(state.mean - state.table.mean()).max())

        _drive(state, problem, lam, StepSchedule(c, alpha), 3 * n_comp,
               range(n_comp, 3 * n_comp + 1, n_comp), record, str)
        assert len(drifts) == 3
        assert max(drifts) <= 1e-8

    def test_index_out_of_range(self, tiny_quadratic):
        state = init_state(tiny_quadratic, np.zeros(1))
        for k in (-1, 2):
            with pytest.raises(IndexError):
                lambda_saga_step(state, tiny_quadratic, 0.5, 1.0, k)
        assert state.n == 1


class TestInitState:
    def test_table_rows_and_mean(self, tiny_quadratic):
        state = init_state(tiny_quadratic, np.array([2.0]))
        assert np.array_equal(state.table.rows().ravel(), [1.0, 3.0])
        assert np.array_equal(state.mean, [[2.0]])
        assert state.n == 1

    def test_start_at_equilibrium(self, tiny_quadratic):
        x_star = solve_minimizer(tiny_quadratic)
        state = init_state(tiny_quadratic, x_star)
        assert np.array_equal(state.table.rows().ravel(), [-1.0, 1.0])
        assert np.array_equal(state.mean, [[0.0]])

    def test_dimension_mismatch(self, tiny_quadratic):
        with pytest.raises(ValueError):
            init_state(tiny_quadratic, np.zeros(2))


class TestStep:
    @pytest.mark.parametrize("lam,expected", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])
    def test_hand_evaluated_updates(self, tiny_quadratic, lam, expected):
        state = init_state(tiny_quadratic, np.array([2.0]))
        lambda_saga_step(state, tiny_quadratic, lam, gamma=1.0, k=0)
        assert state.x[0, 0] == expected
        assert state.n == 2

    def test_row_updated_with_old_iterate_gradient(self, tiny_quadratic):
        state = init_state(tiny_quadratic, np.array([2.0]))
        lambda_saga_step(state, tiny_quadratic, 1.0, gamma=1.0, k=0)
        # row 0 now holds grad_0 at the pre-step iterate 2, row 1 untouched
        assert np.array_equal(state.table.rows().ravel(), [1.0, 3.0])
        # iterate moved to 0; sampling k=1 stores grad_1(0) = 0 - (-1) = 1
        lambda_saga_step(state, tiny_quadratic, 1.0, gamma=0.5, k=1)
        assert state.table.rows()[1, 0, 0] == 1.0

    def test_rejects_bad_lambda_and_index(self, tiny_quadratic):
        state = init_state(tiny_quadratic, np.array([2.0]))
        with pytest.raises(ValueError):
            lambda_saga_step(state, tiny_quadratic, 1.5, 1.0, 0)
        with pytest.raises(IndexError):
            lambda_saga_step(state, tiny_quadratic, 0.5, 1.0, 2)


class TestDiagnostics:
    def test_without_reference(self, tiny_quadratic):
        state = init_state(tiny_quadratic, np.array([2.0]))
        snap = diagnostics(state, tiny_quadratic, None, StepSchedule(1.0, 1.0))
        assert (snap.n, snap.grad_eval_norm) == (1, 2.0)
        assert {snap.v_n, snap.a_n, snap.tau2, snap.t_n, snap.value_gap} == {None}

    def test_hand_evaluated_snapshot(self, tiny_quadratic):
        state = init_state(tiny_quadratic, np.array([2.0]))
        x_star = solve_minimizer(tiny_quadratic)
        snap = diagnostics(state, tiny_quadratic, x_star, StepSchedule(1.0, 1.0))
        assert snap.v_n == 4.0
        assert snap.a_n == 4.0
        assert snap.tau2 == 4.0
        assert snap.t_n == 4.0 + 3 * 2 * 1.0 * 4.0  # 28
        assert snap.grad_eval_norm == 2.0
        assert snap.value_gap == pytest.approx(2.0)  # f(2) - f(0) = 5/2 - 1/2

    def test_t_n_takes_the_previous_step(self):
        # At n > 1 the compound quantity weighs A_n with gamma(n - 1), the
        # step that made X_n, not gamma(n).
        problem = random_quadratic(20, 3, seed=2)
        schedule = StepSchedule(1.0, 1.0)
        trace = run(problem, 0.5, schedule, 10, seed=0, diag_every=5,
                    x_ref=solve_minimizer(problem))
        snap = trace.snapshots[1]
        assert snap.n == 5 and snap.a_n > 0.0
        g = schedule.gamma(snap.n - 1)
        assert snap.t_n == snap.v_n + 3.0 * problem.n_components * g * g * snap.a_n

    def test_equilibrium_fixed_point(self, tiny_quadratic):
        x_star = solve_minimizer(tiny_quadratic)
        state = init_state(tiny_quadratic, x_star)
        snap = diagnostics(state, tiny_quadratic, x_star)
        assert snap.v_n == 0.0
        assert snap.a_n == 0.0
        assert snap.tau2 == 0.0
        assert snap.grad_eval_norm == 0.0

    def test_t_dominates_v(self):
        problem = random_quadratic(20, 3, seed=2)
        x_star = solve_minimizer(problem)
        state = init_state(problem, np.ones(3), seed=0)
        sched = StepSchedule(0.5, 0.8)
        for i in range(50):
            lambda_saga_step(state, problem, 0.7, sched.gamma(i + 1),
                             int(state.sampler.take(1)[0]))
        snap = diagnostics(state, problem, x_star, sched)
        assert snap.t_n >= snap.v_n >= 0.0
        assert snap.a_n >= 0.0 and snap.tau2 >= 0.0


class TestConditionalStepExpectation:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_expected_step_is_the_gradient_step(self, lam):
        problem = random_quadratic(30, 4, seed=3)
        x_star = solve_minimizer(problem)
        rng = np.random.default_rng(4)
        for _ in range(100):
            state = scrambled_state(problem, rng, 17)
            gamma = rng.random()
            x = state.x[0].copy()
            expected_x, _ = conditional_step_expectation(
                state, problem, lam, gamma, x_star
            )
            # The table terms average out: E[X_{n+1}] = X_n - gamma grad f(X_n).
            target = x - gamma * problem.full_gradient(x)
            assert np.abs(expected_x - target).max() <= 1e-12
            assert np.array_equal(state.x[0], x) and state.n == 18

    def test_a_recursion_matches_closed_form(self):
        problem = random_quadratic(25, 3, seed=5)
        x_star = solve_minimizer(problem)
        rng = np.random.default_rng(6)
        n = problem.n_components
        for _ in range(100):
            state = scrambled_state(problem, rng, 11)
            snap = diagnostics(state, problem, x_star)
            _, expected_a = conditional_step_expectation(
                state, problem, rng.random(), rng.random(), x_star
            )
            closed = snap.tau2 / n + (1 - 1 / n) * snap.a_n
            assert abs(expected_a - closed) <= 1e-12

    def test_table_at_reference_gradients(self):
        problem = random_quadratic(10, 2, seed=7)
        x_star = solve_minimizer(problem)
        state = init_state(problem, x_star)
        state.x[0] = np.array([3.0, -1.0])
        snap = diagnostics(state, problem, x_star)
        _, expected_a = conditional_step_expectation(state, problem, 0.5, 0.1,
                                                     x_star)
        assert snap.a_n == 0.0
        assert expected_a == pytest.approx(snap.tau2 / problem.n_components)


# Random problems of either family, and the fixed quadratic case.
reduction_cases = given(
    make=st.sampled_from([random_quadratic, random_logistic]),
    n_comp=st.integers(1, 12), dim=st.integers(1, 5),
    problem_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**64 - 1),
    n_iters=st.integers(1, 300), c=st.floats(0.1, 2.0), alpha=st.floats(0.51, 1.0),
    x0=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
fixed_reduction_case = example(
    make=random_quadratic, n_comp=50, dim=5, problem_seed=31, seed=1234,
    n_iters=2000, c=1.0, alpha=1.0, x0=[0.0] * 5)


def check_reduction(lam, reference, make, n_comp, dim, problem_seed, seed, n_iters,
                    c, alpha, x0):
    problem = make(n_comp, dim, problem_seed)
    schedule = StepSchedule(c, alpha)
    x0 = np.array(x0[:dim])
    indices = IndexSampler(seed, n_comp).take(n_iters)
    trace = run(problem, lam, schedule, n_iters, seed, diag_every=10**9, x0=x0)
    assert np.array_equal(trace.final_iterate,
                          reference(problem, schedule, n_iters, indices, x0))


class TestReductionIdentities:
    @settings(max_examples=30, deadline=None)
    @reduction_cases
    @fixed_reduction_case
    def test_lambda_zero_matches_sgd_bitwise(self, **case):
        check_reduction(0.0, sgd_reference, **case)

    @settings(max_examples=30, deadline=None)
    @reduction_cases
    @fixed_reduction_case
    def test_lambda_one_matches_saga_bitwise(self, **case):
        check_reduction(1.0, saga_reference, **case)


class TestRun:
    def test_snapshots_strictly_increasing(self):
        problem = random_quadratic(20, 3, seed=8)
        trace = run(problem, 0.5, StepSchedule(1.0, 1.0), 2500, seed=0,
                    diag_every=500, x_ref=solve_minimizer(problem))
        ns = [s.n for s in trace.snapshots]
        assert ns == sorted(set(ns))
        assert ns[0] == 1 and ns[-1] == 2501

    @pytest.mark.parametrize("n_iters, diag_every, expected", [
        (0, 5, [1]),
        (0, 1, [1]),
        (4, 1, [1, 2, 3, 4, 5]),
        (5, 3, [1, 3, 6]),
        (3, 10, [1, 4]),
    ], ids=["no-steps", "no-steps-every-step", "every-step",
            "cadence-divides-end", "cadence-beyond-end"])
    def test_snapshot_counters(self, n_iters, diag_every, expected):
        trace = run(random_quadratic(5, 2, seed=9), 0.5, StepSchedule(1.0, 1.0),
                    n_iters, seed=0, diag_every=diag_every)
        assert [s.n for s in trace.snapshots] == expected

    def test_cadence_must_be_positive(self):
        problem = random_quadratic(5, 2, seed=9)
        with pytest.raises(ValueError, match="diag_every must be positive, got 0"):
            run(problem, 0.5, StepSchedule(1.0, 1.0), 10, seed=0, diag_every=0)

    def test_deterministic_given_seed(self):
        problem = random_quadratic(15, 3, seed=10)
        a = run(problem, 0.9, StepSchedule(1.0, 0.8), 1500, seed=42, diag_every=300)
        b = run(problem, 0.9, StepSchedule(1.0, 0.8), 1500, seed=42, diag_every=300)
        assert np.array_equal(a.final_iterate, b.final_iterate)
        assert [s.grad_eval_norm for s in a.snapshots] == [
            s.grad_eval_norm for s in b.snapshots
        ]

    def test_grad_eval_norm_without_reference(self):
        problem = random_quadratic(15, 3, seed=10)
        trace = run(problem, 1.0, StepSchedule(1.0, 1.0), 200, seed=1, diag_every=50)
        assert all(s.v_n is None for s in trace.snapshots)
        assert all(np.isfinite(s.grad_eval_norm) for s in trace.snapshots)

    def test_saga_converges_on_quadratic(self):
        problem = random_quadratic(50, 5, seed=7)
        trace = run(problem, 1.0, StepSchedule(1.0, 1.0), 100_000, seed=0,
                    diag_every=20_000, x_ref=solve_minimizer(problem))
        assert trace.snapshots[-1].v_n < 1e-2

    def test_error_wrapped_with_iteration(self):
        class Broken(QuadraticProblem):
            def component_gradients(self, ks, xs):
                if getattr(self, "_calls", 0) >= 55:
                    raise FloatingPointError("boom")
                self._calls = getattr(self, "_calls", 0) + 1
                return super().component_gradients(ks, xs)

        problem = Broken(np.random.default_rng(0).standard_normal((5, 2)))
        with pytest.raises(RunError, match="iteration n=56: boom"):
            run(problem, 0.0, StepSchedule(1.0, 1.0), 100, seed=0, diag_every=10)

    def test_snapshot_counters_made_as_reached(self):
        # A run that fails at its first step has made the counters of one
        # block at most; a list of all 10**6 counters would take 70 MiB.
        class FailsAtOnce(QuadraticProblem):
            def component_gradients(self, ks, xs):
                raise FloatingPointError("boom")

        problem = FailsAtOnce(np.random.default_rng(0).standard_normal((5, 2)))
        tracemalloc.start()
        try:
            with pytest.raises(RunError, match="iteration n=1: boom"):
                run(problem, 0.0, StepSchedule(1.0, 1.0), 10**6, seed=0, diag_every=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_naming_seed_and_block(self):
        # Steps near 1e6 overflow the iterate to inf and then nan.
        with pytest.raises(RunError, match=r"seed 3 .*non-finite.*n=2\.\.201"):
            run(random_quadratic(10, 2, 1), 0.5, StepSchedule(1e6, 0.51), 200, 3)


def driven(problem, m, seed, lam, schedule, n_iters, counters=()):
    """A fresh M-replication state driven ``n_iters`` steps with
    ``counters`` recorded; returns it, the (counter, iterates) records and
    each sampler's ``take`` counts."""
    state = _start(problem, np.linspace(-1.0, 1.0, problem.dim),
                   [seed + i for i in range(m)])
    takes = [[] for _ in state.samplers]
    for sampler, counts in zip(state.samplers, takes):
        def take(count, draw=sampler.take, counts=counts):
            counts.append(count)
            return draw(count)
        sampler.take = take
    records = []
    _drive(state, problem, lam, schedule, n_iters, counters,
           lambda state: records.append((state.n, state.x.copy())), str)
    return state, records, takes


class TestDrive:
    @pytest.mark.parametrize("make", [random_quadratic, random_logistic])
    @settings(max_examples=5, deadline=None)
    @given(m=st.sampled_from([1, 3]), n_comp=st.integers(2, 30),
           dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           lam=st.floats(0.0, 1.0), n_iters=st.integers(4160, 4400),
           inside=st.integers(2, 4095), extra=st.lists(st.integers(2, 4401),
                                                      max_size=3))
    def test_records_each_counter_once_between_kernel_calls(
            self, make, m, n_comp, dim, seed, lam, n_iters, inside, extra):
        problem = make(n_comp, dim, seed % 1000)
        schedule = StepSchedule(0.5, 0.75)
        last = n_iters + 1
        counters = sorted({1, inside, 4096, 4097, 4160, last,
                           *(n for n in extra if n <= last)})
        state, records, takes = driven(problem, m, seed, lam, schedule,
                                       n_iters, counters)
        assert [n for n, _ in records] == counters
        for n, x in records:
            stopped, _, _ = driven(problem, m, seed, lam, schedule, n - 1)
            assert x.tobytes() == stopped.x.tobytes()
        plain, none, _ = driven(problem, m, seed, lam, schedule, n_iters)
        assert none == [] and state.n == plain.n == last
        assert state.x.tobytes() == plain.x.tobytes()
        assert state.mean.tobytes() == plain.mean.tobytes()
        assert state.table.rows().tobytes() == plain.table.rows().tobytes()
        assert takes == [[4096, n_iters - 4096]] * m


class TestTraceSerialization:
    def test_csv_round_trip_precision(self, tmp_path):
        problem = random_quadratic(10, 2, seed=11)
        trace = run(problem, 0.5, StepSchedule(1.0, 1.0), 300, seed=5,
                    diag_every=100, x_ref=solve_minimizer(problem))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["n", "V_n", "A_n", "tau2", "T_n", "grad_eval_norm",
                          "value_gap"]
        row = lines[-1].split(",")
        assert int(row[0]) == trace.snapshots[-1].n
        assert float(row[1]) == trace.snapshots[-1].v_n  # exact round trip

    def test_csv_lines_end_with_newline(self, tmp_path):
        problem = random_quadratic(10, 2, seed=11)
        trace = run(problem, 0.5, StepSchedule(1.0, 1.0), 300, seed=5,
                    diag_every=100, x_ref=solve_minimizer(problem))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        text = path.read_bytes()
        assert b"\r" not in text and text.count(b"\n") == 1 + len(trace.snapshots)

    def test_metadata_fields(self, tmp_path):
        import json

        problem = random_quadratic(10, 2, seed=11)
        trace = run(problem, 0.25, StepSchedule(0.5, 0.75), 50, seed=6,
                    diag_every=25)
        path = tmp_path / "meta.json"
        write_trace_metadata(trace, path)
        meta = json.loads(path.read_text())
        assert meta["schedule"] == {"c": 0.5, "alpha": 0.75}
        assert meta["lambda"] == 0.25
        assert meta["seed"] == 6
        assert meta["problem"]["type"] == "quadratic"
        assert meta["x0"] == meta["x1"] == [0.0, 0.0]  # the first iterate is x0
        # Sorted keys and no wall time: the file is byte-reproducible.
        assert list(meta) == sorted(meta) and "wall_time_s" not in meta
