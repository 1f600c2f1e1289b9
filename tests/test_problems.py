import numpy as np
import pytest

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
                [problem.component_gradient(k, x) for k in range(problem.n_components)],
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
            [problem.component_value(k, x) for k in range(problem.n_components)]
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
                lambda z: problem.component_value(k, z), x
            )
            grad = problem.component_gradient(k, x)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_batched_interfaces_match_scalar(self, logit):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((8, logit.dim))
        ks = rng.integers(0, logit.n_components, size=8)
        batched = logit.component_gradients(ks, xs)
        for i in range(8):
            assert np.allclose(
                batched[i], logit.component_gradient(int(ks[i]), xs[i]), rtol=1e-12
            )
        values = logit.values(xs)
        for i in range(8):
            assert values[i] == pytest.approx(logit.value(xs[i]), rel=1e-12)

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
        x_star = quad.reference_minimizer()
        assert np.array_equal(x_star, quad.anchors.mean(axis=0))
        assert np.all(quad.full_gradient(x_star) == 0.0)

    def test_secant_equality_structure(self, quad):
        rng = np.random.default_rng(13)
        x_star = quad.reference_minimizer()
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
        x_star = logit.reference_minimizer()
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
        with pytest.raises(NotImplementedError, match="no reference minimizer"):
            Custom().reference_minimizer()

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
        x_hat = solve_minimizer(logit, tol=1e-10)
        assert np.linalg.norm(logit.full_gradient(x_hat)) <= 1e-10

    def test_separable_data_errors(self):
        # all labels 1 with aligned features: minimizer at infinity
        features = np.linspace(1.0, 2.0, 12)[:, None]
        problem = LogisticProblem(features, np.ones(12))
        with pytest.raises(MinimizerError):
            solve_minimizer(problem, max_iter=60)

    def test_newton_agrees_with_long_stochastic_run(self):
        # frozen from a 1e7-iteration lam=1 run (seed 2718) on this instance
        problem = random_logistic(50, 5, seed=405)
        x_hat = solve_minimizer(problem, tol=1e-10)
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

    def test_requires_minimizer(self):
        class NoMin(FiniteSumProblem):
            n_components = 1
            dim = 1

        with pytest.raises(MinimizerError):
            check_assumptions(NoMin())
