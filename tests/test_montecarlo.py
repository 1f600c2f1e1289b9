import tracemalloc

import numpy as np
import pytest
from references import bootstrap_stderr_reference

from lambda_saga import (
    QuadraticProblem,
    StepSchedule,
    clt_ensemble,
    derive_seeds,
    fit_loglog_slope,
    random_quadratic,
    rate_ensemble,
    run_ensemble,
    solve_minimizer,
)
from lambda_saga import montecarlo
from lambda_saga.engine import EnsembleResult
from lambda_saga.montecarlo import rate_estimate, summarize_scaled_errors


@pytest.fixture(scope="module")
def quad():
    return random_quadratic(20, 2, seed=42)


class TestDerivedSeeds:
    def test_xor_derivation(self):
        assert derive_seeds(12, 4) == [12, 13, 14, 15]
        assert len(set(derive_seeds(999, 64))) == 64


class TestCltEnsemble:
    def test_requires_two_replications(self, quad):
        with pytest.raises(ValueError, match="at least 2 replications"):
            clt_ensemble(quad, 0.5, 100, 1, 0, solve_minimizer(quad))

    def test_deterministic_summary(self, quad):
        x_star = solve_minimizer(quad)
        a = clt_ensemble(quad, 0.5, 500, 16, 7, x_star)
        b = clt_ensemble(quad, 0.5, 500, 16, 7, x_star)
        assert np.array_equal(a.sample_cov, b.sample_cov)
        assert a.sigma2_scalar == b.sigma2_scalar
        assert a.stderr == b.stderr

    def test_scalar_variance_consistent_with_covariance(self, quad):
        x_star = solve_minimizer(quad)
        summary = clt_ensemble(quad, 0.0, 400, 32, 3, x_star)
        ones = np.ones(quad.dim)
        assert summary.sigma2_scalar == pytest.approx(
            float(ones @ summary.sample_cov @ ones), rel=1e-12
        )
        assert summary.stderr > 0.0

    def test_sample_cov_positive_semidefinite(self, quad):
        summary = clt_ensemble(quad, 0.9, 300, 24, 11, solve_minimizer(quad))
        eigs = np.linalg.eigvalsh(summary.sample_cov)
        assert eigs.min() >= -1e-12
        assert np.array_equal(summary.sample_cov, summary.sample_cov.T)

    def test_saga_variance_shrinks_with_horizon(self, quad):
        x_star = solve_minimizer(quad)
        values = [
            clt_ensemble(quad, 1.0, n, 64, 5, x_star).sigma2_scalar
            for n in (100, 1000, 10_000)
        ]
        assert values[0] > values[1] > values[2]

    def test_one_ensemble_summarizes_every_horizon_bitwise(self, quad):
        # Horizons on the same seeds are prefixes of the longest run, across
        # a step block boundary too: its iterates at n + 1 summarize to
        # clt_ensemble's summary at n.
        x_star = solve_minimizer(quad)
        horizons = (30, 4100, 5000)
        result = run_ensemble(quad, 1.0, StepSchedule(1.0, 1.0), horizons[-1], 16, 9,
                              checkpoints=tuple(n + 1 for n in horizons))
        for n in horizons:
            got = summarize_scaled_errors(
                np.sqrt(n) * (result.checkpoint_iterates[n + 1] - x_star), 1.0, n, 9)
            want = clt_ensemble(quad, 1.0, n, 16, 9, x_star)
            assert got.sample_cov.tobytes() == want.sample_cov.tobytes()
            assert (got.sigma2_scalar, got.stderr) == (want.sigma2_scalar, want.stderr)


class TestBootstrap:
    @pytest.mark.parametrize("m, slice_values", [
        (2, montecarlo._BOOTSTRAP_SLICE),
        # 32 resamples a slice, the last slice partial.
        (2000, montecarlo._BOOTSTRAP_SLICE),
        # One resample a slice, as at M > 2**15.
        (50, 99),
    ])
    def test_stderr_equals_one_piece_bootstrap_bitwise(self, monkeypatch, m,
                                                       slice_values):
        monkeypatch.setattr(montecarlo, "_BOOTSTRAP_SLICE", slice_values)
        scaled = np.random.default_rng(m).standard_normal((m, 3))
        stderr = summarize_scaled_errors(scaled, 0.5, 100, 21).stderr
        reference = bootstrap_stderr_reference(
            scaled.sum(axis=1), np.random.default_rng(21 ^ 0x5EED_B007))
        assert np.float64(stderr).tobytes() == reference.tobytes()

    def test_draws_held_in_slices(self):
        # Drawn in one piece, the 1000 resamples of M = 2000 hold about
        # 48 MB: int64 draws, gathered values and the variance's temporary.
        scaled = np.random.default_rng(0).standard_normal((2000, 2))
        tracemalloc.start()
        try:
            summarize_scaled_errors(scaled, 0.5, 100, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestFitSlope:
    def test_exact_power_law(self):
        ns = [100, 300, 1000, 3000]
        values = [7.0 * n**-1.25 for n in ns]
        slope, ci = fit_loglog_slope(ns, values)
        assert slope == pytest.approx(-1.25, abs=1e-12)
        assert ci == pytest.approx(0.0, abs=1e-10)

    def test_half_width_is_1_96_standard_errors(self):
        ns = [100, 300, 1000, 3000, 10_000]
        values = [2.0, 0.9, 0.25, 0.11, 0.02]
        x, y = np.log(ns), np.log(values)
        sxx = ((x - x.mean()) ** 2).sum()
        slope = ((x - x.mean()) * (y - y.mean())).sum() / sxx
        residuals = y - y.mean() - slope * (x - x.mean())
        se = np.sqrt((residuals**2).sum() / (len(ns) - 2) / sxx)
        got_slope, ci = fit_loglog_slope(ns, values)
        assert got_slope == pytest.approx(slope, rel=1e-12)
        assert ci == pytest.approx(1.96 * se, rel=1e-12)


class TestRateEnsemble:
    def test_needs_two_checkpoints(self, quad):
        with pytest.raises(ValueError, match="2 checkpoints"):
            rate_ensemble(quad, 0.5, StepSchedule(1.0, 1.0), 1, (1000,), 8, 0,
                          solve_minimizer(quad))

    def test_non_integral_checkpoint_named(self, quad):
        # Truncated, checkpoint 2.5 would run checkpoint 2.
        with pytest.raises(ValueError, match=r"^checkpoint 2\.5 must be an integer$"):
            rate_ensemble(quad, 0.5, StepSchedule(1.0, 1.0), 1, (2.5, 50), 4, 0,
                          solve_minimizer(quad))
        estimate = rate_ensemble(quad, 0.5, StepSchedule(1.0, 1.0), 1,
                                 (np.int64(2), np.uint16(50)), 4, 0,
                                 solve_minimizer(quad))
        assert estimate.checkpoints == (2, 50)

    def test_slope_near_minus_alpha(self):
        problem = random_quadratic(20, 3, seed=17)
        schedule = StepSchedule(2 ** (0.75 - 1), 0.75)
        estimate = rate_ensemble(
            problem, 0.0, schedule, 1, (500, 1500, 5000, 15_000), 64, 2,
            solve_minimizer(problem), mu=1.0,
        )
        assert estimate.warnings == ()
        assert estimate.slope == pytest.approx(-0.75, abs=0.2)
        assert estimate.slope_ci is not None
        assert len(estimate.value_gap_moments) == 4
        assert estimate.scaled_sup_ratio is not None

    def test_condition_violation_recorded_but_run_proceeds(self, quad):
        # p = 3 with p*c*mu > 2**alpha: warned, not fatal
        estimate = rate_ensemble(
            quad, 0.5, StepSchedule(1.0, 1.0), 3, (100, 1000), 8, 0,
            solve_minimizer(quad), mu=1.0,
        )
        assert any("p*c*mu" in w for w in estimate.warnings)
        assert len(estimate.moments) == 2
        assert estimate.condition_report["l2p_rate_ok"] is False

    def test_exact_convergence_leaves_slope_undefined(self):
        # single-component problem: the first unit step lands exactly on the
        # minimizer, so every later moment is exactly zero
        problem = QuadraticProblem(np.array([[1.0]]))
        estimate = rate_ensemble(
            problem, 0.0, StepSchedule(1.0, 1.0), 1, (200, 1000), 4, 0,
            solve_minimizer(problem),
        )
        assert estimate.moments == (0.0, 0.0)
        assert estimate.slope is None
        assert any("nonpositive" in w for w in estimate.warnings)

    def test_run_without_reference_named(self, quad):
        schedule = StepSchedule(1.0, 1.0)
        result = run_ensemble(quad, 0.5, schedule, 200, 4, 0,
                              checkpoints=(50, 201))
        with pytest.raises(ValueError, match="no squared errors.*x_ref"):
            rate_estimate(result, 0.5, schedule, 1)

    def test_burn_in_drops_early_checkpoints(self, quad):
        estimate = rate_ensemble(
            quad, 0.5, StepSchedule(1.0, 1.0), 1, (10, 50, 2000, 8000), 16, 1,
            solve_minimizer(quad),
        )
        # moments reported for all checkpoints, slope fitted past burn-in only
        assert len(estimate.moments) == 4
        assert estimate.slope is not None
        kept = [i for i, n in enumerate(estimate.checkpoints) if n >= 100]
        assert (estimate.slope, estimate.slope_ci) == fit_loglog_slope(
            [estimate.checkpoints[i] for i in kept],
            [estimate.moments[i] for i in kept])

    def test_scaled_sup_ratio_scales_by_n_to_the_p_alpha(self):
        # Squared errors that decay more slowly than n^(-p alpha), so that the
        # ratio exceeds 1 and depends on the power of n.
        checkpoints = (100, 400, 1600, 6400)
        rng = np.random.default_rng(5)
        sq_error = {n: rng.exponential(n**-0.5, 64) for n in checkpoints}
        result = EnsembleResult([0], np.zeros((64, 1)), np.zeros(64),
                                {n: np.zeros((64, 1)) for n in checkpoints},
                                sq_error, {n: v / 2 for n, v in sq_error.items()})
        schedule = StepSchedule(1.0, 0.75)
        estimate = rate_estimate(result, 0.5, schedule, 2)
        scaled = [m * float(n) ** (2 * 0.75)
                  for n, m in zip(estimate.checkpoints, estimate.moments)]
        assert estimate.scaled_sup_ratio == max(scaled) / scaled[0]
        assert estimate.scaled_sup_ratio > 1.0
