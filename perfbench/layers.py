"""Per-layer metrics of the traced run.

Two sources feed them.  Spans recorded around the public calls of a traced
repetition give the time each layer spent on the workload's own path.  Probes
time single public functions at the workload's shapes (M replications, N
components, dimension d), for layers whose calls are too fine to span: one
sampler block, one batched gradient, one scalar step.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import lambda_saga as ls

from tracing import descendants, duration

# Indices each sampler stream draws per block in the ensemble kernel.
SAMPLER_BLOCK = 4096


def per_call_seconds(fn, batch_seconds: float = 0.02, batches: int = 5) -> float:
    """Median seconds per call of ``fn`` over ``batches`` timed batches."""
    fn()
    loops = 1
    while True:
        start = perf_counter()
        for _ in range(loops):
            fn()
        if perf_counter() - start >= batch_seconds or loops >= 1 << 20:
            break
        loops *= 2
    times = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(loops):
            fn()
        times.append((perf_counter() - start) / loops)
    return statistics.median(times)


def probe(workload, ctx) -> dict:
    """Time the public functions of each layer at the workload's shapes."""
    problem, x_ref = ctx.problem, ctx.x_ref
    m, n_comp, dim = workload.m, workload.n_comp, workload.dim
    rng = np.random.default_rng(workload.seed)
    ks = rng.integers(0, n_comp, size=m)
    xs = x_ref + 0.1 * rng.standard_normal((m, dim))
    x = xs[0]
    k = int(ks[0])

    out = {
        "problems.component_gradients_us":
            1e6 * per_call_seconds(lambda: problem.component_gradients(ks, xs)),
        "problems.component_gradient_us":
            1e6 * per_call_seconds(lambda: problem.component_gradient(k, x)),
        "problems.gradient_table_us":
            1e6 * per_call_seconds(lambda: problem.gradient_table(x)),
        "problems.values_ms": 1e3 * per_call_seconds(lambda: problem.values(xs)),
    }

    # IndexSampler.take for all M streams, one block each, per step.
    samplers = [ls.IndexSampler(s, n_comp) for s in ls.derive_seeds(workload.seed, m)]
    blocks = []
    for _ in range(3):
        start = perf_counter()
        for sampler in samplers:
            sampler.take(SAMPLER_BLOCK)
        blocks.append((perf_counter() - start) / SAMPLER_BLOCK)
    out["engine.sampler_us_per_step"] = 1e6 * statistics.median(blocks)

    # lambda_saga_step and diagnostics on one scalar state of this shape.
    state = ls.init_state(problem, np.zeros(dim), seed=workload.seed)
    draws = state.sampler.take(SAMPLER_BLOCK)
    gamma = workload.schedule.gamma(workload.n)
    position = [0]

    def step():
        i = position[0] = (position[0] + 1) % SAMPLER_BLOCK
        ls.lambda_saga_step(state, problem, 0.5, gamma, int(draws[i]))

    out["engine.step_us"] = 1e6 * per_call_seconds(step)
    out["engine.diagnostics_us"] = 1e6 * per_call_seconds(
        lambda: ls.diagnostics(state, problem, x_ref, workload.schedule)
    )
    return out


def from_spans(workload, spans: list[dict], micro: dict) -> dict:
    """Layer metrics of one traced repetition (with its checks) from its
    spans.  Metrics taken from the cross-check runs, which only the first
    cycle makes, are left out when absent."""

    # Totals count only the workload's own path, not the checks.
    root = next(s for s in spans if s["name"] == "workload")

    def total(name):
        return sum(duration(s) for s in descendants(spans, root, name))

    out = {}
    ensembles = [s for s in spans if s["name"] == "ensembles.run_ensemble"]
    steps = workload.n
    step_us, self_us = [], []
    for s in ensembles:
        nested = sum(
            duration(c)
            for name in ("problems.values", "schedule.gammas")
            for c in descendants(spans, s, name)
        )
        per_step = duration(s) / steps
        step_us.append(1e6 * per_step)
        self_us.append(
            1e6 * (per_step - nested / steps)
            - micro["engine.sampler_us_per_step"]
            - micro["problems.component_gradients_us"]
        )
    if ensembles:
        out["ensembles.run_ensemble_s"] = statistics.median(duration(s) for s in ensembles)
        out["ensembles.step_us"] = statistics.median(step_us)
        out["ensembles.kernel_self_us_per_step"] = statistics.median(self_us)

    runs = [duration(s) for s in spans if s["name"] == "engine.run"]
    if runs:
        out["engine.run_s"] = statistics.median(runs)

    out["problems.solve_minimizer_s"] = total("problems.solve_minimizer")
    out["datasets.load_s"] = total("datasets.load_dataset")
    out["schedule.gammas_s"] = total("schedule.gammas")
    out["asymptotics.reference_s"] = (
        total("asymptotics.gamma_matrix") + total("asymptotics.solve_lyapunov")
    )
    out["montecarlo.summarize_s"] = total("montecarlo.summarize_scaled_errors")
    out["montecarlo.self_s"] = sum(
        duration(s) - sum(duration(c) for c in descendants(spans, s, "ensembles.run_ensemble"))
        for name in ("montecarlo.clt_ensemble", "montecarlo.rate_ensemble")
        for s in descendants(spans, root, name)
    )
    return out
