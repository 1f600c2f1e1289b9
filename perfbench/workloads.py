"""The benchmark's three workloads, each driven through the public API.

A workload makes its inputs from the workload seed, then repeats one
*repetition*: set up the problem, make the optimizer calls in the order the
matching CLI subcommand makes them, and write the outputs.  Output checks,
digests and counts are computed outside the timed region.  README.md in this
directory explains why each workload was chosen.

Every workload has these attributes, which the layer probes and the computed
counts use: ``m`` replications, ``n_comp`` components, ``dim``, ``n`` steps
per optimizer call, ``lambdas``, ``schedule`` and ``seed`` (the sampling
seed, or the base seed of an ensemble).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import lambda_saga as ls
from lambda_saga import montecarlo

from tracing import patched


@dataclass
class Call:
    """One optimizer call: seconds inside it, and its result or error."""

    label: str
    seconds: float
    result: object = None
    error: str | None = None


def _sub_seed(seed: int, stream: int) -> int:
    """A 31-bit seed for one input stream, a pure function of ``seed``."""
    return int(np.random.default_rng([int(seed), stream]).integers(2**31))


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Workload:
    name: str
    subcommand: str
    cross_checked = 2  # replications per call re-run through scalar ``run``

    @property
    def rep_steps(self) -> int:
        """Replication-steps of one repetition: M x n x number of lambdas."""
        return self.m * self.n * len(self.lambdas)

    def optimize(self, ctx, tr) -> list[Call]:
        """Make every optimizer call, each timed on its own.

        A call that raises is recorded as failed; the next call still runs.
        """
        calls = []
        for label, thunk in self.calls(ctx, tr):
            start = perf_counter()
            try:
                result, error = thunk(), None
            except Exception as exc:  # recorded as a failed call
                result, error = None, f"{type(exc).__name__}: {exc}"
            calls.append(Call(label, perf_counter() - start, result, error))
        return calls

    def scalar_reruns(self, ctx, lam: float, tr):
        """``(m, final iterate)`` of ``cross_checked`` replications, chosen
        from the seed and re-run through scalar ``run`` with their derived
        seeds ``seed XOR m``."""
        picks = np.random.default_rng(self.seed).choice(
            self.m, self.cross_checked, replace=False
        )
        for m in sorted(int(v) for v in picks):
            with tr.span("engine.run"):
                trace = ls.run(
                    ctx.problem, lam, self.schedule, self.n, self.seed ^ m,
                    diag_every=self.n,
                )
            yield m, trace.final_iterate

    def ensemble_counts(self, calls_per_rep: int) -> dict:
        """Counts of the ensemble kernel computed from M, N, d and n."""
        m, n_comp, dim = self.m, self.n_comp, self.dim
        resyncs = calls_per_rep * (self.n // n_comp)
        return {
            "problems.grad_evals": calls_per_rep * (n_comp + m * self.n),
            "ensembles.resyncs": resyncs,
            "ensembles.resync_bytes": resyncs * m * n_comp * dim * 8,
            "ensembles.bytes_per_step": 8 * m * (6 * dim + 1),
            "ensembles.table_bytes": m * n_comp * dim * 8,
            "schedule.gammas_bytes": 8 * self.n,
        }


# -- clt-quad -------------------------------------------------------------------


class CltQuad(Workload):
    """``clt`` on the acceptance fixtures' quadratic: many replications,
    tiny N and d, so numpy dispatch, gather/scatter, M sampler streams and
    the resync every N steps dominate."""

    name = "clt-quad"
    subcommand = "clt"
    problem_spec = {"type": "quadratic", "n": 20, "d": 2, "seed": 42}
    rel_f_limit = 0.15  # tolerance of acceptance criterion 3

    def __init__(self, seed: int, size: str, workdir):
        self.n_comp, self.dim = self.problem_spec["n"], self.problem_spec["d"]
        self.m = 2000
        self.n = 4096 if size == "full" else 1024
        self.lambdas = (0.0, 0.5, 0.9)
        self.schedule = ls.StepSchedule(1.0, 1.0)
        self.seed = _sub_seed(seed, 1)
        self.input_bytes = 0

    def setup(self, tr):
        spec = self.problem_spec
        with tr.span("problems.random_quadratic"):
            problem = ls.random_quadratic(spec["n"], spec["d"], spec["seed"])
        with tr.span("problems.solve_minimizer"):
            x_ref = ls.solve_minimizer(problem)
        with tr.span("asymptotics.gamma_matrix"):
            gamma = ls.gamma_matrix(problem, x_ref)
        hessian = problem.hessian(x_ref)
        sigma = {}
        for lam in self.lambdas:
            with tr.span("asymptotics.solve_lyapunov"):
                sigma[lam] = ls.solve_lyapunov(hessian, gamma, lam).sigma
        return SimpleNamespace(problem=problem, x_ref=x_ref, gamma=gamma, sigma=sigma)

    def calls(self, ctx, tr):
        for lam in self.lambdas:
            def call(lam=lam):
                scaled = np.empty((self.m, self.dim))
                with tr.span("montecarlo.clt_ensemble"):
                    summary = ls.clt_ensemble(
                        ctx.problem, lam, self.n, self.m, self.seed, ctx.x_ref,
                        scaled_errors_out=scaled,
                    )
                return summary, scaled

            yield f"lambda={lam}", call

    def write(self, ctx, calls, out_dir) -> None:
        per_lambda = {c.label: c.result[0].to_dict() for c in calls if c.result}
        _write_json(
            out_dir / "summary.json",
            {"problem": ctx.problem.describe(), "per_lambda": per_lambda},
        )

    def check(self, ctx, call: Call) -> list[str]:
        summary, scaled = call.result
        lam = summary.lam
        if not _finite(summary.sample_cov, scaled):
            return ["non-finite scaled errors"]
        closed_form = (1.0 - lam) ** 2 * ctx.gamma
        if not np.allclose(ctx.sigma[lam], closed_form, rtol=1e-12):
            return ["Lyapunov solution differs from (1-lam)^2 Gamma"]
        rel = float(
            np.linalg.norm(summary.sample_cov - closed_form)
            / np.linalg.norm(closed_form)
        )
        if rel > self.rel_f_limit:
            return [f"relF {rel:.3f} > {self.rel_f_limit}"]
        return []

    def cross_check(self, ctx, call: Call, tr) -> list[str]:
        """Sampled replications re-run through scalar ``run`` must match
        the ensemble bitwise."""
        summary, scaled = call.result
        return [
            f"replication {m} differs from its scalar run"
            for m, final in self.scalar_reruns(ctx, summary.lam, tr)
            if not np.array_equal(np.sqrt(self.n) * (final - ctx.x_ref), scaled[m])
        ]

    def digest_parts(self, call: Call):
        summary, scaled = call.result
        return [scaled.tobytes(), summary.sample_cov.tobytes(),
                summary.sigma2_scalar, summary.stderr]

    def counts(self) -> dict:
        counts = self.ensemble_counts(len(self.lambdas))
        counts.update({"engine.snapshots": 0, "datasets.bytes_in": 0})
        return counts

    def observed_counts(self, ctx, calls) -> dict:
        return {}

    def cli_argv(self, out_dir) -> list[str]:
        argv = [self.subcommand, "--problem", json.dumps(self.problem_spec)]
        for lam in self.lambdas:
            argv += ["--lambda", repr(lam)]
        return argv + [
            "--iters", str(self.n), "--reps", str(self.m), "--seed", str(self.seed),
            "--workers", "1", "--out-dir", str(out_dir),
        ]


# -- rates-logistic-csv ------------------------------------------------------------


class RatesLogisticCsv(Workload):
    """``rates`` on a logistic problem read from a generated dense CSV: few
    replications and a table far larger than the last-level cache, so row
    traffic, memory, CSV parsing and the Newton solve dominate."""

    name = "rates-logistic-csv"
    subcommand = "rates"
    p = 1
    # A lower estimate of the restricted secant constant of this generator
    # (the Hessian's smallest eigenvalue at x* is about 0.02).  It only
    # selects rate-condition warnings; it does not change any number.
    mu = 0.02
    # The CSV is written with fixed-width fields, so its size is a function of
    # the shape: a one-digit label, then d fields of ",%+.17e", then "\n".
    feature_format = "%+.17e"

    def __init__(self, seed: int, size: str, workdir):
        full = size == "full"
        self.m = 32 if full else 8
        self.n_comp, self.dim = (20_000, 100) if full else (2_000, 20)
        self.n = 40_960 if full else 4_096
        self.lambdas = (0.5,)
        self.schedule = ls.StepSchedule(1.0, 0.75)
        self.seed = _sub_seed(seed, 1)
        points = np.logspace(2, np.log10(self.n + 1), 7 if full else 5)
        self.checkpoints = tuple(sorted({int(round(v)) for v in points[:-1]}
                                        | {self.n + 1}))
        self.dataset = workdir / "dataset.csv"
        self.input_bytes = self.n_comp * (2 + 25 * self.dim)
        self._write_dataset(_sub_seed(seed, 2))

    def _write_dataset(self, data_seed: int) -> None:
        """Features with squared row norm about 16 and labels drawn from the
        model, so classes overlap and the Newton solve is well posed.  Labels
        are written as digits 0 and 5, the two halves of DIGIT_SPLIT."""
        rng = np.random.default_rng(data_seed)
        features = 0.4 * rng.standard_normal((self.n_comp, self.dim))
        x_true = 0.25 * rng.standard_normal(self.dim)
        prob = 1.0 / (1.0 + np.exp(-(features @ x_true)))
        labels = 5.0 * (rng.random(self.n_comp) < prob)
        np.savetxt(
            self.dataset, np.column_stack([labels, features]), delimiter=",",
            fmt=["%d"] + [self.feature_format] * self.dim,
        )

    def setup(self, tr):
        with tr.span("datasets.load_dataset"):
            problem = ls.load_dataset(self.dataset)
        with tr.span("problems.solve_minimizer"):
            x_ref = ls.solve_minimizer(problem)
        return SimpleNamespace(problem=problem, x_ref=x_ref)

    def calls(self, ctx, tr):
        for lam in self.lambdas:
            def call(lam=lam):
                # rate_ensemble keeps only moments; the per-replication
                # results are captured for the output checks.
                captured = []
                inner = montecarlo.run_ensemble

                def capture(*args, **kwargs):
                    captured.append(inner(*args, **kwargs))
                    return captured[-1]

                with patched((montecarlo, "run_ensemble", capture)):
                    with tr.span("montecarlo.rate_ensemble"):
                        estimate = ls.rate_ensemble(
                            ctx.problem, lam, self.schedule, self.p,
                            self.checkpoints, self.m, self.seed, ctx.x_ref,
                            mu=self.mu,
                        )
                return estimate, captured[0]

            yield f"lambda={lam},p={self.p}", call

    def write(self, ctx, calls, out_dir) -> None:
        rows = ["lambda,p,n,moment,value_gap_moment"]
        estimates = {}
        for c in calls:
            if c.result is None:
                continue
            est = c.result[0]
            estimates[c.label] = est.to_dict()
            for n, m, g in zip(est.checkpoints, est.moments, est.value_gap_moments):
                rows.append(f"{est.lam},{est.p},{n},{m!r},{g!r}")
        (out_dir / "moments.csv").write_text("\n".join(rows) + "\n")
        _write_json(
            out_dir / "summary.json",
            {"problem": ctx.problem.describe(), "estimates": estimates},
        )

    def check(self, ctx, call: Call) -> list[str]:
        est, result = call.result
        moments = np.array(est.moments)
        if not _finite(moments, est.value_gap_moments, result.final_iterates):
            return ["non-finite moments or iterates"]
        bad = []
        if not np.all(moments > 0):
            bad.append("a moment is not positive")
        if not moments[-1] < moments[0]:
            bad.append(f"moment did not fall: {moments[0]:.3e} -> {moments[-1]:.3e}")
        recomputed = [float(np.mean(result.checkpoint_sq_error[n] ** self.p))
                      for n in est.checkpoints]
        if recomputed != list(est.moments):
            bad.append("captured replications do not reproduce the moments")
        return bad

    def cross_check(self, ctx, call: Call, tr) -> list[str]:
        """Sampled replications re-run through scalar ``run`` must match to
        ``allclose(rtol=1e-12, atol=1e-14)``, the tolerance of the tests
        (batched and scalar logistic gradients round differently)."""
        est, result = call.result
        return [
            f"replication {m} differs from its scalar run"
            for m, final in self.scalar_reruns(ctx, est.lam, tr)
            if not np.allclose(result.final_iterates[m], final, rtol=1e-12, atol=1e-14)
        ]

    def digest_parts(self, call: Call):
        est, result = call.result
        return [est.moments, est.value_gap_moments, est.slope,
                result.final_iterates.tobytes()]

    def counts(self) -> dict:
        counts = self.ensemble_counts(len(self.lambdas))
        counts.update({
            "engine.snapshots": len(self.lambdas) * len(self.checkpoints),
            "datasets.bytes_in": self.input_bytes,
        })
        return counts

    def observed_counts(self, ctx, calls) -> dict:
        return {
            "engine.snapshots": sum(
                len(c.result[1].checkpoint_sq_error) for c in calls if c.result
            ),
            "datasets.bytes_in": self.dataset.stat().st_size,
        }

    def cli_argv(self, out_dir) -> list[str]:
        argv = [self.subcommand, "--dataset", str(self.dataset)]
        for lam in self.lambdas:
            argv += ["--lambda", repr(lam)]
        return argv + [
            "--c", repr(self.schedule.c), "--alpha", repr(self.schedule.alpha),
            "--p", str(self.p), "--mu", repr(self.mu),
            "--checkpoints", ",".join(str(n) for n in self.checkpoints),
            "--reps", str(self.m), "--seed", str(self.seed),
            "--workers", "1", "--out-dir", str(out_dir),
        ]


# -- run-logistic-scalar ------------------------------------------------------------


class RunLogisticScalar(Workload):
    """``run`` on a small logistic problem: one replication, so per-step
    Python overhead dominates, and full diagnostics at every snapshot."""

    name = "run-logistic-scalar"
    subcommand = "run"
    # The logistic instance of the acceptance tests (criteria 10 and 11).
    problem_spec = {"type": "logistic", "n": 100, "d": 5, "seed": 2024}
    diag_every = 1000

    def __init__(self, seed: int, size: str, workdir):
        self.m = 1
        self.n_comp, self.dim = self.problem_spec["n"], self.problem_spec["d"]
        self.n = 40_960 if size == "full" else 2_048
        self.lambdas = (0.0, 0.5, 0.9, 1.0)
        self.schedule = ls.StepSchedule(1.0, 1.0)
        self.seed = _sub_seed(seed, 1)
        self.input_bytes = 0

    def setup(self, tr):
        spec = self.problem_spec
        with tr.span("problems.random_logistic"):
            problem = ls.random_logistic(spec["n"], spec["d"], spec["seed"])
        with tr.span("problems.solve_minimizer"):
            x_ref = ls.solve_minimizer(problem)
        return SimpleNamespace(problem=problem, x_ref=x_ref)

    def calls(self, ctx, tr):
        for lam in self.lambdas:
            def call(lam=lam):
                with tr.span("engine.run"):
                    return ls.run(
                        ctx.problem, lam, self.schedule, self.n, self.seed,
                        diag_every=self.diag_every, x_ref=ctx.x_ref,
                    )

            yield f"lambda={lam}", call

    def write(self, ctx, calls, out_dir) -> None:
        final_norms = {}
        for c in calls:
            if c.result is None:
                continue
            lam = c.result.lam
            ls.write_trace_csv(c.result, out_dir / f"trace_lambda_{lam}.csv")
            ls.write_trace_metadata(c.result, out_dir / f"trace_lambda_{lam}.meta.json")
            final_norms[str(lam)] = c.result.snapshots[-1].grad_eval_norm
        _write_json(
            out_dir / "summary.json",
            {"problem": ctx.problem.describe(), "final_grad_eval_norm": final_norms},
        )

    def check(self, ctx, call: Call) -> list[str]:
        trace = call.result
        v = [s.v_n for s in trace.snapshots]
        if not _finite(trace.final_iterate, v):
            return ["non-finite iterate or V_n"]
        # The first steps (gamma near 1) can throw the iterate far from a start
        # that happens to lie near x*, so V_n must fall from the snapshot at
        # n = diag_every, not from n = 1, to the last one.
        if not v[-1] < v[1]:
            return [f"V_n did not fall: {v[1]:.3e} -> {v[-1]:.3e}"]
        return []

    def cross_check(self, ctx, call: Call, tr) -> list[str]:
        """The same run through ``run_ensemble`` with M=1 must match to
        ``allclose(rtol=1e-12, atol=1e-14)``; batched and scalar logistic
        gradients round differently.  The traced run also takes the ensemble
        kernel's step time at this shape from these calls."""
        trace = call.result
        with tr.span("ensembles.run_ensemble"):
            result = ls.run_ensemble(
                ctx.problem, trace.lam, self.schedule, self.n, 1, self.seed
            )
        if np.allclose(result.final_iterates[0], trace.final_iterate,
                       rtol=1e-12, atol=1e-14):
            return []
        return ["the M=1 ensemble differs from the scalar run"]

    def digest_parts(self, call: Call):
        trace = call.result
        return [trace.final_iterate.tobytes()] + [
            (s.n, s.v_n, s.a_n, s.tau2, s.t_n, s.grad_eval_norm, s.value_gap)
            for s in trace.snapshots
        ]

    def _snapshots_per_run(self) -> int:
        # Initial state, every state counter in 2..n+1 divisible by
        # diag_every, and the final state unless it was just recorded.
        last = self.n + 1
        return 1 + last // self.diag_every + (last % self.diag_every != 0)

    def counts(self) -> dict:
        runs, n_comp, dim = len(self.lambdas), self.n_comp, self.dim
        snapshots = self._snapshots_per_run()
        resyncs = runs * (self.n // n_comp)
        return {
            # Per run: the initial table, one gradient per step, and a full
            # table at every snapshot for tau2; plus the reference table once.
            "problems.grad_evals": runs * (n_comp + self.n + snapshots * n_comp)
            + n_comp,
            "ensembles.resyncs": resyncs,
            "ensembles.resync_bytes": resyncs * n_comp * dim * 8,
            "ensembles.bytes_per_step": 8 * (6 * dim + 1),
            "ensembles.table_bytes": n_comp * dim * 8,
            "schedule.gammas_bytes": 8 * self.n,
            "engine.snapshots": runs * snapshots,
            "datasets.bytes_in": 0,
        }

    def observed_counts(self, ctx, calls) -> dict:
        return {
            "engine.snapshots": sum(len(c.result.snapshots) for c in calls if c.result)
        }

    def cli_argv(self, out_dir) -> list[str]:
        argv = [self.subcommand, "--problem", json.dumps(self.problem_spec)]
        for lam in self.lambdas:
            argv += ["--lambda", repr(lam)]
        return argv + [
            "--iters", str(self.n), "--seed", str(self.seed),
            "--diag-every", str(self.diag_every), "--out-dir", str(out_dir),
        ]


WORKLOADS = {w.name: w for w in (CltQuad, RatesLogisticCsv, RunLogisticScalar)}


def digest(workload: Workload, calls: list[Call]) -> str:
    parts = []
    for c in calls:
        parts.append(c.label)
        parts.extend(workload.digest_parts(c) if c.result is not None else [c.error])
    return _sha(parts)
