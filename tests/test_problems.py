import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from references import component_gradient, component_value
from scipy.special import expit

from lambda_saga import (
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
from lambda_saga.problems import _logistic


def finite_difference_gradient(f, x, h=1e-5):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


@pytest.fixture(scope="module")
def quad():
    return random_quadratic(40, 6, seed=5)


@pytest.fixture(scope="module")
def logit():
    return random_logistic(60, 4, seed=9)


class TestFiniteSumStructure:
    @pytest.mark.parametrize("maker", [lambda: random_quadratic(30, 5, seed=1),
                                       lambda: random_logistic(30, 5, seed=1)])
    def test_full_gradient_is_component_mean(self, maker):
        problem = maker()
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(problem.dim)
            mean = np.mean(
                [component_gradient(problem, k, x) for k in range(problem.n_components)],
                axis=0,
            )
            assert np.allclose(problem.full_gradient(x), mean, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("maker", [lambda: random_quadratic(30, 5, seed=1),
                                       lambda: random_logistic(30, 5, seed=1)])
    def test_value_is_component_mean(self, maker):
        problem = maker()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(problem.dim)
        mean = np.mean(
            [component_value(problem, k, x) for k in range(problem.n_components)]
        )
        assert problem.value(x) == pytest.approx(mean, rel=1e-12)

    def test_order_independence_under_permutation(self, logit):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(logit.dim)
        perm = rng.permutation(logit.n_components)
        shuffled = LogisticProblem(logit.features[perm], logit.labels[perm])
        assert shuffled.value(x) == pytest.approx(logit.value(x), rel=1e-12)
        assert np.allclose(
            shuffled.full_gradient(x), logit.full_gradient(x), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("maker", [lambda: random_quadratic(20, 4, seed=8),
                                       lambda: random_logistic(20, 4, seed=8)])
    def test_gradients_match_finite_differences(self, maker):
        problem = maker()
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(problem.n_components))
            x = rng.standard_normal(problem.dim)
            fd = finite_difference_gradient(
                lambda z: component_value(problem, k, z), x
            )
            grad = component_gradient(problem, k, x)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_batched_interfaces_match_scalar(self, logit):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((8, logit.dim))
        ks = rng.integers(0, logit.n_components, size=8)
        batched = logit.component_gradients(ks, xs)
        for i in range(8):
            assert np.allclose(
                batched[i], component_gradient(logit, int(ks[i]), xs[i]), rtol=1e-12
            )
        values = logit.values(xs)
        for i in range(8):
            mean = np.mean([component_value(logit, k, xs[i])
                            for k in range(logit.n_components)])
            assert values[i] == pytest.approx(mean, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(make=st.sampled_from([random_quadratic, random_logistic]),
           n_comp=st.integers(1, 40), dim=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8))
    def test_hooks_match_closed_forms(self, make, n_comp, dim, seed, batch):
        # Gradient rows carry the closed form's bits; the one-point hooks
        # are row 0 of the batched hooks at a one-row batch.
        problem = make(n_comp, dim, seed)
        rng = np.random.default_rng([seed, 1])  # not the generator's stream
        ks = rng.integers(0, n_comp, size=batch)
        xs = rng.standard_normal((batch, dim))
        rows = problem.component_gradients(ks, xs)
        values = problem.values(xs)
        for i, (k, x) in enumerate(zip(ks.tolist(), xs)):
            assert np.asarray(rows[i]).tobytes() == (
                component_gradient(problem, k, x).tobytes())
            mean = np.mean([component_value(problem, j, x) for j in range(n_comp)])
            assert values[i] == pytest.approx(mean, rel=1e-12)
            one = problem.component_gradient(k, x)
            assert type(one) is np.ndarray
            assert one.tobytes() == np.asarray(
                problem.component_gradients(np.array([k]), x[None])[0]).tobytes()
            assert problem.value(x) == problem.values(x[None])[0]

    @pytest.mark.parametrize("shape", [(), (2,), (3, 1), (1, 3)])
    def test_one_point_hooks_name_the_dimension(self, quad, logit, shape):
        for problem in (quad, logit):
            x = np.zeros(shape)
            named = re.escape(f"dimension {problem.dim}, got {shape}")
            with pytest.raises(ValueError, match=named):
                problem.component_gradient(0, x)
            with pytest.raises(ValueError, match=named):
                problem.value(x)

    def test_gradient_rows_carry_their_factors(self, logit):
        rng = np.random.default_rng(13)
        xs = rng.standard_normal((8, logit.dim))
        ks = rng.integers(0, logit.n_components, size=8)
        for rows, features in (
            (logit.component_gradients(ks, xs), logit.features[ks]),
            (logit.gradient_table(xs[0]), logit.features),
        ):
            assert isinstance(rows, FactoredRows)
            assert rows.features.tobytes() == features.tobytes()
            rebuilt = rows.features * rows.scalars[:, None]
            assert rebuilt.tobytes() == np.asarray(rows).tobytes()
            assert type(rows - 1.0) is np.ndarray
            assert type(rows.sum()) is np.float64
            assert rows[:2].scalars is None


class TestQuadratic:
    def test_minimizer_is_anchor_mean(self, quad):
        x_star = solve_minimizer(quad)
        assert np.array_equal(x_star, quad.anchors.mean(axis=0))
        assert np.all(quad.full_gradient(x_star) == 0.0)

    def test_secant_equality_structure(self, quad):
        rng = np.random.default_rng(13)
        x_star = solve_minimizer(quad)
        for _ in range(20):
            x = rng.standard_normal(quad.dim)
            diff = x - x_star
            assert float(diff @ quad.full_gradient(x)) == float(diff @ diff)

    def test_identity_hessian_and_constants(self, quad):
        assert np.array_equal(quad.hessian(np.zeros(quad.dim)), np.eye(quad.dim))
        assert quad.growth_constant(1) == 1.0
        assert quad.growth_constant(3) == 1.0


class TestLogistic:
    def test_hessian_single_feature_at_zero(self):
        problem = LogisticProblem(np.array([[2.0, 0.0]]), np.array([1.0]))
        hess = problem.hessian(np.zeros(2))
        assert np.allclose(hess, [[1.0, 0.0], [0.0, 0.0]])

    def test_hessian_two_unit_features(self):
        problem = LogisticProblem(np.eye(2), np.array([0.0, 1.0]))
        hess = problem.hessian(np.zeros(2))
        assert np.allclose(hess, 0.125 * np.eye(2))

    def test_hessian_matches_gradient_jacobian(self, logit):
        rng = np.random.default_rng(14)
        x = 0.1 * rng.standard_normal(logit.dim)
        h = 1e-5
        jac = np.zeros((logit.dim, logit.dim))
        for i in range(logit.dim):
            e = np.zeros(logit.dim)
            e[i] = h
            jac[:, i] = (logit.full_gradient(x + e) - logit.full_gradient(x - e)) / (
                2 * h
            )
        assert np.allclose(logit.hessian(x), jac, rtol=1e-5, atol=1e-7)

    def test_overflow_safe_evaluation(self):
        problem = LogisticProblem(np.array([[1000.0]]), np.array([0.0]))
        x = np.array([5.0])
        assert np.isfinite(problem.value(x))
        assert np.isfinite(problem.component_gradient(0, x)).all()

    def test_link_tracks_expit(self):
        # Within 4 ulp of scipy's expit wherever expit is a normal float.
        t = np.concatenate([np.linspace(-745.0, 800.0, 400_001),
                            np.random.default_rng(0).uniform(-40.0, 40.0, 400_000)])
        reference = expit(t)
        normal = reference >= np.finfo(float).tiny
        ulps = np.abs(_logistic(t) - reference)[normal] / np.spacing(reference[normal])
        assert ulps.max() <= 4.0

    def test_link_tails_are_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t, p in ((-800.0, 0.0), (-1e308, 0.0), (800.0, 1.0), (1e308, 1.0),
                         (-1000.0, 0.0), (1000.0, 1.0)):
                assert _logistic(t) == p
                assert _logistic(np.array([t]))[0] == p

    def test_link_float_gives_the_bits_of_an_array(self):
        rng = np.random.default_rng(1)
        t = np.concatenate([rng.standard_normal(500) * 10.0,
                            rng.uniform(-750.0, 750.0, 500), [708.9, 709.0, 709.1]])
        batched = _logistic(t)
        for i, ti in enumerate(t):
            assert _logistic(float(ti)).tobytes() == batched[i].tobytes()
            assert _logistic(t[i:i + 1]).tobytes() == batched[i].tobytes()
        assert _logistic(t[1::3]).tobytes() == batched[1::3].tobytes()

    def test_growth_constant_single_feature(self):
        problem = LogisticProblem(np.array([[2.0, 0.0]]), np.array([1.0]))
        assert problem.growth_constant(1) == pytest.approx(4.0)

    def test_growth_constant_zero_features(self):
        problem = LogisticProblem(np.zeros((3, 2)), np.array([0.0, 1.0, 0.0]))
        assert problem.growth_constant(1) == 0.0

    def test_growth_constant_no_closed_form(self):
        class Custom(FiniteSumProblem):
            pass

        with pytest.raises(ProblemError, match="no closed form"):
            Custom().growth_constant(1)

    @pytest.mark.parametrize("p", [1, 2])
    def test_moment_growth_bound_holds(self, logit, p):
        # bound: mean_k ||grad_k(x) - grad_k(x*)||^(2p) <= L_p ||x - x*||^(2p)
        rng = np.random.default_rng(15)
        x_star = solve_minimizer(logit)
        table_star = logit.gradient_table(x_star)
        l_p = logit.growth_constant(p)
        xs = x_star + rng.standard_normal((10_000, logit.dim)) * rng.choice(
            [0.1, 1.0, 10.0], size=(10_000, 1)
        )
        violations = 0
        for x in xs:
            disc = ((logit.gradient_table(x) - table_star) ** 2).sum(axis=1)
            lhs = float(np.mean(disc**p))
            rhs = l_p * float((x - x_star) @ (x - x_star)) ** p
            if lhs > rhs * (1 + 1e-12):
                violations += 1
        assert violations == 0

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            LogisticProblem(np.eye(2), np.array([0.0, 2.0]))


class TestFamilyDeclarations:
    def test_closed_forms_on_the_class(self, quad, logit):
        assert (quad.secant_constant, logit.secant_constant) == (1.0, None)
        assert (quad.describe()["type"], logit.describe()["type"]) == (
            "quadratic", "logistic")
        assert np.array_equal(solve_minimizer(quad), quad.anchors.mean(axis=0))
        assert logit.closed_form_minimizer() is None

    def test_family_without_closed_forms(self):
        class Custom(FiniteSumProblem):
            n_components, dim = 2, 1

        assert Custom().describe() == {"type": "Custom", "N": 2, "d": 1}
        assert Custom().secant_constant is None
        with pytest.raises(NotImplementedError, match="Custom exposes no Hessian"):
            solve_minimizer(Custom())

    @pytest.mark.parametrize("p", [0, -1])
    def test_growth_constant_rejects_orders_below_one(self, quad, logit, p):
        for problem in (quad, logit):
            with pytest.raises(ValueError, match="p must be a positive integer"):
                problem.growth_constant(p)


class TestSolveMinimizer:
    def test_quadratic_closed_form(self, quad):
        x_hat = solve_minimizer(quad)
        assert np.all(quad.full_gradient(x_hat) == 0.0)

    def test_logistic_reaches_tolerance(self, logit):
        x_hat = solve_minimizer(logit)
        assert np.linalg.norm(logit.full_gradient(x_hat)) <= 1e-10

    def test_separable_data_errors(self):
        # all labels 1 with aligned features: minimizer at infinity
        features = np.linspace(1.0, 2.0, 12)[:, None]
        problem = LogisticProblem(features, np.ones(12))
        with pytest.raises(MinimizerError):
            solve_minimizer(problem)

    @pytest.mark.parametrize("hessian_scale, message", [
        (0.0, "singular Hessian"),
        (5e-324, "non-finite Newton step"),
        (1e6, "did not reach gradient norm 1e-10 in 200 iterations"),
    ], ids=["singular", "non-finite-step", "no-convergence"])
    def test_newton_failures_named(self, quad, hessian_scale, message):
        # The quadratic's true Hessian is the identity; scaled by 0 it is
        # singular, by the least subnormal its step overflows, and by 1e6
        # each step moves a millionth of the way to x*.
        class Scaled(QuadraticProblem):
            def closed_form_minimizer(self):
                return None

            def hessian(self, x):
                return hessian_scale * np.eye(self.dim)

        with pytest.raises(MinimizerError, match=message):
            solve_minimizer(Scaled(quad.anchors))

    def test_newton_agrees_with_long_stochastic_run(self):
        # frozen from a 1e7-iteration lam=1 run (seed 2718) on this instance
        problem = random_logistic(50, 5, seed=405)
        x_hat = solve_minimizer(problem)
        assert np.linalg.norm(problem.full_gradient(x_hat)) <= 1e-10
        x_long_run = np.array(ORACLE_LONG_RUN)
        assert np.abs(x_hat - x_long_run).max() <= 1e-4


# Final iterate of the 1e7-step stochastic oracle run described above.
ORACLE_LONG_RUN = [-0.07179114, -0.23120783, 0.31949687, 0.02977678, 0.2032629]


class TestCheckAssumptions:
    def test_quadratic_exact_constants(self, quad):
        report = check_assumptions(quad, p_list=(1, 2), sample_count=200, seed=3)
        assert report.L == 1.0
        assert report.L_p == {1: 1.0, 2: 1.0}
        assert report.rho == pytest.approx(1.0, abs=1e-10)
        assert report.mu_estimate == 1.0
        assert all(report.satisfied_flags.values())

    def test_logistic_flags_small_curvature(self):
        # weak features push the Hessian minimum eigenvalue below 1/2
        problem = random_logistic(40, 4, seed=21, feature_scale=0.2)
        report = check_assumptions(problem, p_list=(1,), sample_count=100, seed=3)
        assert report.rho < 0.5
        assert not report.satisfied_flags["hessian_min_eig_above_half"]

    def test_logistic_growth_spot_check(self, logit):
        report = check_assumptions(logit, p_list=(1,), sample_count=1000, seed=3)
        assert report.satisfied_flags["gradient_growth_bounded"]
        assert report.satisfied_flags["secant_positive"]
        assert report.mu_estimate > 0.0

    def test_gradient_growth_tested_without_order_1(self, quad):
        # An L_1 below the quadratic's true 1 is violated at every sample
        # point, whichever orders p_list names.
        class SmallL1(QuadraticProblem):
            def _growth_constant(self, p):
                return 0.5 if p == 1 else 1.0

        report = check_assumptions(SmallL1(quad.anchors), p_list=(2,),
                                   sample_count=30, seed=3)
        assert not report.satisfied_flags["gradient_growth_bounded"]
        assert report.satisfied_flags["moment_growth_bounded_p2"]
        assert report.L == 0.5 and report.L_p == {2: 1.0}

    def test_requires_minimizer(self):
        class NoMin(FiniteSumProblem):
            n_components = 1
            dim = 1

        with pytest.raises(MinimizerError):
            check_assumptions(NoMin())
