"""End-to-end acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a single pass/fail line; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the lines as they appear).  The expensive Monte-Carlo
ensembles are shared between criteria through module-scoped fixtures, so the
whole module takes a few minutes.
"""

import time

import numpy as np
import pytest

from references import (
    component_gradient,
    component_value,
    conditional_step_expectation,
    quadrature_covariance,
    random_metric_quadratic,
    required_horizon,
    saga_reference,
    sgd_reference,
)

from lambda_saga import (
    IndexSampler,
    QuadraticProblem,
    StepSchedule,
    check_norm_power_inequality,
    clt_ensemble,
    cp_dp,
    diagnostics,
    gamma_matrix,
    init_state,
    lambda_saga_step,
    random_logistic,
    random_quadratic,
    rate_ensemble,
    recursion_bound_trace,
    run,
    run_ensemble,
    solve_lyapunov,
    solve_minimizer,
    summarize_scaled_errors,
)
from lambda_saga.montecarlo import rate_estimate

UNIT_STEP = StepSchedule(1.0, 1.0)


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- shared problems and ensembles -------------------------------------------


@pytest.fixture(scope="module")
def quad_5d():
    return random_quadratic(50, 5, seed=31)


@pytest.fixture(scope="module")
def clt_problem():
    # d=2 quadratic: Hessian is the identity, so the asymptotic covariance
    # has the closed form (1 - lam)^2 * Gamma
    return random_quadratic(20, 2, seed=42)


@pytest.fixture(scope="module")
def clt_summaries(clt_problem):
    x_star = solve_minimizer(clt_problem)
    return {
        lam: clt_ensemble(clt_problem, lam, 100_000, 2000, 9000, x_star, workers=2)
        for lam in (0.0, 0.5, 0.9)
    }


@pytest.fixture(scope="module")
def dirac_summaries(clt_problem):
    # The horizons of a repetition share its seeds, so each shorter run is a
    # prefix of the longest: one ensemble gives clt_ensemble's summary of
    # every horizon n from its iterates at state counter n + 1.
    x_star = solve_minimizer(clt_problem)
    horizons = (1000, 10_000, 100_000)
    repetitions = []
    for rep in range(3):
        base = 77_000 + 131 * rep
        result = run_ensemble(
            clt_problem, 1.0, UNIT_STEP, horizons[-1], 2000, base,
            checkpoints=tuple(n + 1 for n in horizons), workers=2,
        )
        repetitions.append({
            n: summarize_scaled_errors(
                np.sqrt(n) * (result.checkpoint_iterates[n + 1] - x_star), 1.0, n, base)
            for n in horizons
        })
    return horizons, repetitions


@pytest.fixture(scope="module")
def desk_logistic():
    # N=100 instance, classes still overlapping, with minimum Hessian
    # eigenvalue ~0.88 at the optimum, above the CLT's 1/2.  It is not a
    # CLT test bed: the largest ||w_k||^2 / 4 is 42.5, so the first 1/n
    # steps throw some replications far off, and the mean of n ||X_n - x*||^2
    # stays near 2,000 up to n = 4e5 against tr Sigma = 3.8.
    return random_logistic(100, 5, seed=2024)


# -- criterion 1: reduction identities ----------------------------------------


def test_criterion_01_reduction_identities(quad_5d):
    start = time.perf_counter()
    steps = 10_000
    indices = IndexSampler(1234, quad_5d.n_components).take(steps)

    sgd_trace = run(quad_5d, 0.0, UNIT_STEP, steps, seed=1234, diag_every=10**9)
    sgd_oracle = sgd_reference(quad_5d, UNIT_STEP, steps, indices, np.zeros(5))
    sgd_match = np.array_equal(sgd_trace.final_iterate, sgd_oracle)

    saga_trace = run(quad_5d, 1.0, UNIT_STEP, steps, seed=1234, diag_every=10**9)
    saga_oracle = saga_reference(quad_5d, UNIT_STEP, steps, indices, np.zeros(5))
    saga_match = np.array_equal(saga_trace.final_iterate, saga_oracle)

    elapsed = time.perf_counter() - start
    report(
        1,
        sgd_match and saga_match and elapsed < 1.0,
        f"lam=0 match={sgd_match}, lam=1 match={saga_match} over {steps} steps "
        f"({elapsed:.2f}s)",
    )


# -- criterion 2: conditional step identities ------------------------------------


# Round-off allowed in E[X_{n+1} | F_n]: the mean of N = 50 iterates of size
# O(1) is exact to a few ulps (about 2e-15 here), while a wrong sign or scale
# of any term of the step is off by O(gamma).
STEP_MEAN_TOL = 1e-12


def test_criterion_02_conditional_identities(quad_5d):
    start = time.perf_counter()
    x_star = solve_minimizer(quad_5d)
    rng = np.random.default_rng(77)
    n = quad_5d.n_components
    worst_step = 0.0
    worst_a = 0.0
    for _ in range(100):
        # A generic state: table rows stored at random iterates, then a
        # random iterate.
        state = init_state(quad_5d, rng.standard_normal(5))
        for _ in range(13):
            state.x[0] = rng.standard_normal(5)
            lambda_saga_step(state, quad_5d, rng.random(), rng.random(),
                             int(rng.integers(n)))
        state.x[0] = rng.standard_normal(5)
        x = state.x[0].copy()
        gamma = rng.random()
        snap = diagnostics(state, quad_5d, x_star)
        closed = snap.tau2 / n + (1.0 - 1.0 / n) * snap.a_n
        for lam in (0.0, 0.5, 1.0):
            expected_x, expected_a = conditional_step_expectation(
                state, quad_5d, lam, gamma, x_star
            )
            target = x - gamma * quad_5d.full_gradient(x)
            worst_step = max(worst_step, float(np.abs(expected_x - target).max()))
            worst_a = max(worst_a, abs(expected_a - closed))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_step <= STEP_MEAN_TOL and worst_a <= 1e-12 and elapsed < 1.0,
        f"max |E[X_n+1] - (X_n - gamma grad f)| = {worst_step:.2e} (limit "
        f"{STEP_MEAN_TOL:.0e}), max recursion gap = {worst_a:.2e} ({elapsed:.2f}s)",
    )


# -- criteria 3-5: asymptotic covariance ---------------------------------------


def test_criterion_03_clt_covariance(clt_problem, clt_summaries):
    x_star = solve_minimizer(clt_problem)
    gamma = gamma_matrix(clt_problem, x_star)
    details = []
    ok = True
    for lam, summary in clt_summaries.items():
        sigma = (1.0 - lam) ** 2 * gamma
        rel = float(
            np.linalg.norm(summary.sample_cov - sigma) / np.linalg.norm(sigma)
        )
        details.append(f"lam={lam}: relF={rel:.3f}")
        ok = ok and rel <= 0.15
    report(3, ok, "; ".join(details) + " (limit 0.15, n=1e5, M=2000)")


def test_criterion_04_variance_scaling_law(clt_summaries):
    base = clt_summaries[0.0].sigma2_scalar
    ratio_half = clt_summaries[0.5].sigma2_scalar / base
    ratio_nine = clt_summaries[0.9].sigma2_scalar / base
    ok = 0.20 <= ratio_half <= 0.30 and 0.005 <= ratio_nine <= 0.02
    report(
        4,
        ok,
        f"sigma2(0.5)/sigma2(0) = {ratio_half:.4f} (in [0.20, 0.30]), "
        f"sigma2(0.9)/sigma2(0) = {ratio_nine:.4f} (in [0.005, 0.02])",
    )


def test_criterion_05_dirac_limit(clt_summaries, dirac_summaries):
    horizons, repetitions = dirac_summaries
    medians = {
        n: float(np.median([rep[n].sigma2_scalar for rep in repetitions]))
        for n in horizons
    }
    base = clt_summaries[0.0].sigma2_scalar
    fraction = medians[100_000] / base
    monotone = medians[1000] > medians[10_000] > medians[100_000]
    report(
        5,
        fraction <= 0.05 and monotone,
        f"sigma2(1)/sigma2(0) at n=1e5 = {fraction:.2e} (limit 0.05); "
        f"medians over 3 reps {[medians[n] for n in horizons]} monotone={monotone}",
    )


def _rel_frobenius(estimate, reference):
    return float(np.linalg.norm(estimate - reference) / np.linalg.norm(reference))


def test_criterion_13_clt_covariance_hessian_not_identity():
    # H = A with eigenvalues 0.7, 1.5 and 3: the limit solves the Lyapunov
    # equation, and the H = I formula (1 - lam)^2 Gamma is far from it, so a
    # check that ignored the Hessian would fail here.
    problem = random_metric_quadratic(20, 3, seed=11, eigenvalues=(0.7, 1.5, 3.0))
    x_star = solve_minimizer(problem)
    gamma = gamma_matrix(problem, x_star)
    details = []
    ok = True
    for lam in (0.0, 0.5):
        summary = clt_ensemble(problem, lam, 20_000, 2000, 11, x_star, workers=2)
        sigma = solve_lyapunov(problem.hessian(x_star), gamma, lam).sigma
        rel = _rel_frobenius(summary.sample_cov, sigma)
        rel_identity = _rel_frobenius(summary.sample_cov, (1.0 - lam) ** 2 * gamma)
        details.append(f"lam={lam}: relF={rel:.3f}, against H = I {rel_identity:.3f}")
        ok = ok and rel <= 0.15 and rel_identity > 0.15
    report(13, ok, "; ".join(details) + " (limit 0.15, above it against H = I, "
           "n=2e4, M=2000)")


# -- criteria 6-7: moment decay rates ------------------------------------------

CHECKPOINTS = (1000, 2154, 4642, 10_000, 21_544, 46_416, 100_000)


def test_criterion_06_l2_rate(quad_5d):
    alpha = 0.75
    schedule = StepSchedule(2 ** (alpha - 1.0), alpha)  # 2*c*mu == 2**alpha
    estimate = rate_ensemble(
        quad_5d, 0.5, schedule, 1, CHECKPOINTS, 200, 5150,
        solve_minimizer(quad_5d), mu=1.0,
    )
    slope_ok = abs(estimate.slope - (-alpha)) <= 0.15
    sup_ok = estimate.scaled_sup_ratio <= 3.0
    report(
        6,
        slope_ok and sup_ok and estimate.warnings == (),
        f"slope = {estimate.slope:.3f} (target -0.75 +- 0.15), "
        f"sup ratio = {estimate.scaled_sup_ratio:.3f} (limit 3)",
    )


def test_criterion_07_l4_rate(quad_5d):
    estimate = rate_ensemble(
        quad_5d, 0.5, UNIT_STEP, 2, CHECKPOINTS, 200, 6160,
        solve_minimizer(quad_5d), mu=1.0,
    )
    slope_ok = abs(estimate.slope - (-2.0)) <= 0.3
    gap_ok = abs(estimate.value_gap_slope - (-2.0)) <= 0.3
    # c*mu = 1 sits exactly on the boundary the order-2p guarantee excludes,
    # so the condition check must have recorded a warning while the run
    # proceeded
    warned = any("c*mu > 1" in w for w in estimate.warnings)
    report(
        7,
        slope_ok and gap_ok and warned,
        f"moment slope = {estimate.slope:.3f}, value-gap slope = "
        f"{estimate.value_gap_slope:.3f} (target -2 +- 0.3), boundary warning "
        f"recorded = {warned}",
    )


# -- criterion 8: asymptotic covariance solver ---------------------------------


def test_criterion_08_lyapunov_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(8800)
    worst_resid = 0.0
    worst_gap = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 11))
        evals = rng.uniform(0.6, 3.0, size=d)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        h = (basis * evals) @ basis.T
        h = (h + h.T) / 2
        a = rng.standard_normal((d, d))
        gamma = a @ a.T / d
        lam = float(rng.uniform(0.0, 1.0))

        cov = solve_lyapunov(h, gamma, lam)
        b = h - 0.5 * np.eye(d)
        resid = np.linalg.norm(
            b @ cov.sigma + cov.sigma @ b - (1 - lam) ** 2 * gamma
        ) / max(1.0, np.linalg.norm(gamma))
        worst_resid = max(worst_resid, float(resid))

        horizon = required_horizon(cov.rho) * 1.05
        quad = quadrature_covariance(h, gamma, lam, horizon, 6000)
        worst_gap = max(worst_gap, float(np.linalg.norm(cov.sigma - quad)))
    elapsed = time.perf_counter() - start
    report(
        8,
        worst_resid <= 1e-10 and worst_gap <= 1e-6 and elapsed < 5.0,
        f"max residual = {worst_resid:.2e} (limit 1e-10), max oracle gap = "
        f"{worst_gap:.2e} (limit 1e-6), elapsed {elapsed:.1f}s (limit 5s)",
    )


# -- criterion 9: inequality-oracle constants and randomized sweeps -------------


def test_criterion_09_inequality_oracles():
    exact = (
        (cp_dp(2).c_p, cp_dp(2).d_p) == (8.0, 3.0)
        and (cp_dp(4).c_p, cp_dp(4).d_p) == (39.0, 18.0)
    )

    rng = np.random.default_rng(9900)
    violations = 0
    for p in (2, 4):
        for d in (1, 3, 10):
            # Pair i is (pairs[i, 0], pairs[i, 1]): the draws, in their
            # order, of 100_000 // 3 calls drawing a and then b.
            pairs = rng.standard_normal((100_000 // 3, 2, d))
            holds, _ = check_norm_power_inequality(pairs[:, 0], pairs[:, 1], p)
            violations += int((~holds).sum())

    trace = recursion_bound_trace(a=1.0, b=1.0, alpha=1.0, beta=1.5, z1=1.0,
                                  n_max=100_000)
    report(
        9,
        exact and violations == 0 and trace.plateaued,
        f"constants exact = {exact}, violations = {violations} over ~1e5 pairs "
        f"per order, recursion plateaued = {trace.plateaued} "
        f"(sup = {trace.sup_scaled:.4f})",
    )


# -- criterion 10: logistic correctness -----------------------------------------


def test_criterion_10_logistic_correctness(desk_logistic):
    problem = desk_logistic
    rng = np.random.default_rng(1010)

    # The library's gradient rows carry the closed form's bits, which the
    # finite differences check.
    worst_grad, hook_mismatches = 0.0, 0
    for _ in range(100):
        k = int(rng.integers(problem.n_components))
        x = rng.standard_normal(problem.dim)
        fd = np.zeros(problem.dim)
        for i in range(problem.dim):
            e = np.zeros(problem.dim)
            e[i] = 1e-5
            fd[i] = (
                component_value(problem, k, x + e) - component_value(problem, k, x - e)
            ) / 2e-5
        grad = component_gradient(problem, k, x)
        hook = problem.component_gradients(np.array([k]), x[None])
        hook_mismatches += np.asarray(hook)[0].tobytes() != grad.tobytes()
        worst_grad = max(
            worst_grad,
            float(np.abs(grad - fd).max() / max(1.0, np.abs(grad).max())),
        )

    x = 0.2 * rng.standard_normal(problem.dim)
    hess = problem.hessian(x)
    jac = np.zeros_like(hess)
    for i in range(problem.dim):
        e = np.zeros(problem.dim)
        e[i] = 1e-5
        jac[:, i] = (problem.full_gradient(x + e) - problem.full_gradient(x - e)) / 2e-5
    hess_err = float(np.abs(hess - jac).max() / np.abs(hess).max())

    x_star = solve_minimizer(problem)
    table_star = problem.gradient_table(x_star)
    l1 = problem.growth_constant(1)
    radii = np.repeat([0.1, 1.0, 10.0], 3334)[:10_000, None]
    points = x_star + radii * rng.standard_normal((10_000, problem.dim))
    violations = 0
    for x in points:
        disc = float(((problem.gradient_table(x) - table_star) ** 2).sum(axis=1).mean())
        bound = l1 * float((x - x_star) @ (x - x_star))
        if disc > bound * (1 + 1e-12):
            violations += 1

    report(
        10,
        worst_grad <= 1e-5 and hook_mismatches == 0 and hess_err <= 1e-4
        and violations == 0,
        f"gradient FD error = {worst_grad:.2e} (limit 1e-5), gradient rows off "
        f"the closed form = {hook_mismatches} of 100, Hessian FD error = "
        f"{hess_err:.2e} (limit 1e-4), growth-bound violations = {violations} "
        f"over 1e4 points",
    )


# -- criterion 11: qualitative figure analogues ----------------------------------


def test_criterion_11_lambda_orderings(desk_logistic):
    problem = desk_logistic
    x_star = solve_minimizer(problem)
    lambdas = (0.0, 0.5, 0.9, 1.0)
    final = 100_001
    median_norms = []
    mean_errors = []
    for lam in lambdas:
        result = run_ensemble(
            problem, lam, UNIT_STEP, 100_000, 20, base_seed=31_415,
            x_ref=x_star, checkpoints=(final,),
        )
        median_norms.append(float(np.median(result.final_grad_eval_norm)))
        mean_errors.append(float(result.checkpoint_sq_error[final].mean()))

    norms_ordered = all(a >= b for a, b in zip(median_norms, median_norms[1:]))
    errors_ordered = all(a >= b for a, b in zip(mean_errors, mean_errors[1:]))
    report(
        11,
        norms_ordered and errors_ordered,
        f"median grad-eval norms {['%.3e' % v for v in median_norms]} "
        f"non-increasing={norms_ordered}; mean squared errors "
        f"{['%.3e' % v for v in mean_errors]} non-increasing={errors_ordered}",
    )


# -- criterion 12: the rate slope follows the step constant ----------------------


def test_criterion_12_rate_slope_follows_step_constant(quad_5d):
    # With gamma_n = c / n the linearised recursion e <- (1 - c rho / n) e +
    # noise gives E ||X_n - x*||^(2p) ~ n^(-p min(1, 2 c rho)), rho the least
    # eigenvalue of H(x*) (Bach and Moulines, NeurIPS 2011).  The c lie on
    # both sides of 2 c rho = 1 and away from it, where log factors bend the
    # fit; a step that ignores c gives the slope -p at every c.
    x_star = solve_minimizer(quad_5d)
    rho = float(np.linalg.eigvalsh(quad_5d.hessian(x_star)).min())
    worst = 0.0
    details = []
    for c in (0.2, 0.3, 1.0):
        schedule = StepSchedule(c, 1.0)
        result = run_ensemble(
            quad_5d, 0.5, schedule, CHECKPOINTS[-1] - 1, 200, 1212,
            x_ref=x_star, checkpoints=CHECKPOINTS,
        )
        for p in (1, 2):
            slope = rate_estimate(result, 0.5, schedule, p).slope
            predicted = -p * min(1.0, 2.0 * c * rho)
            worst = max(worst, abs(slope - predicted))
            details.append(f"c={c} p={p}: {slope:.3f} vs {predicted:.2f}")
    report(
        12,
        worst <= 0.1,
        "; ".join(details) + f" (max |slope - predicted| = {worst:.3f}, limit 0.1)",
    )
