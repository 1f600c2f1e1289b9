"""Benchmark of lambda_saga: one workload per invocation.

    python3 perfbench/run.py --workload clt-quad --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` repeats untraced repetitions for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` runs cycles of an untraced
repetition, a traced one and the matching CLI command, then probes each layer
at the workload's shapes, and reports the per-layer metrics.  Both modes
check every output.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.  A full record (machine, inputs, every
repetition, counts, spans) is written to ``perfbench/out/``.  README.md in
this directory defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import NULL, Tracer, check_nesting, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# setup_s is the median of every set-up in a run, at least MIN_SETUPS.  When
# a set-up is cheap (under CHEAP_SETUP_S), more are timed for SETUP_SLICE_S
# after each repetition, so that the samples span the whole run: this
# machine's speed drifts over tens of seconds.
MIN_SETUPS = 5
CHEAP_SETUP_S = 0.05
SETUP_SLICE_S = 0.1

# Units of the metrics reported but not listed in BENCHMARK.json.
REPORT_ONLY_UNITS = {
    "error_rate": "ratio",
    "wall_s.median": "s",
    "wall_s.max": "s",
    "datasets.load_s": "s",
    "asymptotics.reference_s": "s",
    "montecarlo.summarize_s": "s",
    "montecarlo.self_s": "s",
}


def import_package():
    """Import ``lambda_saga`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import lambda_saga

    if Path(lambda_saga.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"lambda_saga was imported from {lambda_saga.__file__}")
    return lambda_saga


@dataclass
class Rep:
    """One repetition of a workload and what its checks found."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    opt_s: float = 0.0
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # call label -> problems
    digest: str = ""
    observed: dict = field(default_factory=dict)
    ok: bool = False  # set-up succeeded and every call was made

    @property
    def failed(self) -> int:
        return sum(1 for problems in self.failures.values() if problems)

    def record(self) -> dict:
        return {
            "setup_s": self.setup_s, "wall_s": self.wall_s, "opt_s": self.opt_s,
            "attempted": self.attempted, "failed": self.failed,
            "failures": {k: v for k, v in self.failures.items() if v},
            "digest": self.digest, "observed_counts": self.observed,
        }


class Bench:
    def __init__(self, workload, work_dir: Path):
        self.w = workload
        self.work_dir = work_dir
        self.last_ctx = None  # set-up of the latest repetition, for the probes

    def rep(self, tr, deep=False, instrument=None) -> Rep:
        """Set up, optimize and write outputs (timed), then check (untimed).

        ``deep`` adds the scalar cross-check of sampled replications;
        ``instrument(ctx)`` is a context manager held around the optimizer
        calls.
        """
        import workloads

        w = self.w
        rep = Rep(attempted=len(w.lambdas))
        start = perf_counter()
        with tr.span("workload"):
            try:
                with tr.span("setup"):
                    ctx = w.setup(tr)
            except Exception as exc:  # every call of this repetition fails
                rep.failures = {"setup": [f"{type(exc).__name__}: {exc}"]}
                rep.failures.update({f"call{i}": ["not run"] for i in range(1, rep.attempted)})
                return rep
            rep.setup_s = perf_counter() - start
            out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
            with instrument(ctx) if instrument else contextlib.nullcontext():
                with tr.span("optimize"):
                    calls = w.optimize(ctx, tr)
            with tr.span("write"):
                w.write(ctx, calls, out_dir)
        rep.wall_s = perf_counter() - start
        shutil.rmtree(out_dir)

        rep.ok, self.last_ctx = True, ctx
        rep.opt_s = sum(c.seconds for c in calls)
        with tr.span("check"):
            for c in calls:
                problems = [c.error] if c.error else w.check(ctx, c)
                if deep and not problems:
                    problems = w.cross_check(ctx, c, tr)
                rep.failures[c.label] = problems
        rep.digest = workloads.digest(w, calls)
        rep.observed = w.observed_counts(ctx, calls)
        return rep

    def setup_only(self) -> float:
        start = perf_counter()
        self.w.setup(NULL)
        return perf_counter() - start

    def cli(self):
        """Run the matching CLI command in-process; (seconds, bytes of all
        files it wrote, exit code)."""
        from lambda_saga import cli

        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        argv = self.w.cli_argv(out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - start
        out_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        shutil.rmtree(out_dir)
        return seconds, out_bytes, code


def module_instruments(tr):
    """Spans around library calls made inside the package's own functions."""
    from lambda_saga import engine, montecarlo, schedule

    return [
        (montecarlo, "run_ensemble",
         tr.wrap("ensembles.run_ensemble", montecarlo.run_ensemble)),
        (montecarlo, "summarize_scaled_errors",
         tr.wrap("montecarlo.summarize_scaled_errors", montecarlo.summarize_scaled_errors)),
        (engine, "diagnostics", tr.wrap("engine.diagnostics", engine.diagnostics)),
        (schedule.StepSchedule, "gammas",
         tr.wrap("schedule.gammas", schedule.StepSchedule.gammas)),
    ]


def problem_instruments(tr, problem, counter: list):
    """A span around ``values`` and a count of component-gradient rows."""
    n_comp = problem.n_components

    def counted(fn, rows):
        def wrapper(*args):
            counter[0] += rows(*args)
            return fn(*args)

        return wrapper

    return [
        (problem, "component_gradient", counted(problem.component_gradient, lambda k, x: 1)),
        (problem, "component_gradients",
         counted(problem.component_gradients, lambda ks, xs: len(ks))),
        (problem, "gradient_table", counted(problem.gradient_table, lambda x: n_comp)),
        (problem, "values", tr.wrap("problems.values", problem.values)),
    ]


def repeat_for(seconds: float, fn) -> list:
    """Call ``fn(i)``, which returns a Rep, at least once, and again while
    the next call, judged by the last one, should end within ``seconds`` of
    the start.  A failed set-up stops the loop: it would fail again."""
    start = perf_counter()
    results, last = [], 0.0
    while not results or (results[-1].ok and perf_counter() - start + last <= seconds):
        t0 = perf_counter()
        results.append(fn(len(results)))
        last = perf_counter() - t0
    return results


def last_level_cache_bytes():
    """Largest cache of CPU 0, read from sysfs; None if unreadable."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def machine_record(workload, seed: int) -> dict:
    import numpy
    import scipy

    llc = last_level_cache_bytes()
    table = workload.m * workload.n_comp * workload.dim * 8
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": llc,
        "table_bytes": table,
        "table_over_llc": None if not llc else table / llc,
        "workload_seed": seed,
    }


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def consistency(workload, reps: list[Rep]) -> list[str]:
    """Digests must repeat, and observed counts must repeat and equal the
    counts computed from shapes."""
    problems = []
    if len({r.digest for r in reps if r.digest}) > 1:
        problems.append("output digest differs between repetitions")
    computed = workload.counts()
    for name in sorted({name for r in reps for name in r.observed}):
        seen = {r.observed[name] for r in reps if name in r.observed}
        if len(seen) > 1:
            problems.append(f"count {name} differs between repetitions: {sorted(seen)}")
        elif name in computed and seen != {computed[name]}:
            problems.append(f"count {name}: observed {seen.pop()}, computed {computed[name]}")
    return problems


def end_to_end(bench: Bench, seconds: float):
    w = bench.w
    setups = []

    def repetition(i):
        rep = bench.rep(NULL, deep=(i == 0))
        if rep.ok:
            setups.append(rep.setup_s)
            start = perf_counter()
            while rep.setup_s < CHEAP_SETUP_S and perf_counter() - start < SETUP_SLICE_S:
                setups.append(bench.setup_only())
        return rep

    reps = repeat_for(seconds, repetition)
    done = [r for r in reps if r.ok]
    while len(done) == len(reps) and len(setups) < MIN_SETUPS:
        setups.append(bench.setup_only())
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = {"peak_rss_mb": peak_rss_mib(), "error_rate": failed / attempted}
    if done:  # otherwise main() reports the timings as not measured
        # On a shared host the CPU alternates between fast and slow phases of
        # a few to tens of seconds.  A median over repetitions reads whichever
        # phase held most of the run, so it jumps between runs; the means
        # below weigh each phase by the time it held, which varies less.
        walls = sorted(r.wall_s for r in done)
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = statistics.fmean(walls)
        metrics["wall_s.median"] = statistics.median(walls)
        metrics["wall_s.max"] = walls[-1]
        metrics["rep_steps_per_s"] = w.rep_steps * len(done) / sum(r.opt_s for r in done)
    extra = {"setups": setups, "rep_steps": w.rep_steps}
    return metrics, reps, extra


def per_layer(bench: Bench, seconds: float):
    import layers

    w = bench.w
    cycles = []

    def cycle(i):
        untraced = bench.rep(NULL)
        tr = Tracer(run_id=i)
        counter = [0]
        with patched(*module_instruments(tr)):
            traced = bench.rep(
                tr, deep=(i == 0),
                instrument=lambda ctx: patched(*problem_instruments(tr, ctx.problem, counter)),
            )
        traced.observed["problems.grad_evals"] = counter[0]
        cli_s, cli_bytes, cli_code = bench.cli()
        cycles.append({
            "untraced": untraced, "traced": traced, "spans": tr.spans,
            "cli_s": cli_s, "cli_bytes": cli_bytes, "cli_code": cli_code,
        })
        return traced

    repeat_for(seconds, cycle)
    reps = [c[k] for c in cycles for k in ("untraced", "traced")]
    micro = layers.probe(w, bench.last_ctx) if bench.last_ctx is not None else {}

    per_cycle = [layers.from_spans(w, c["spans"], micro) for c in cycles if micro]
    names = {k for d in per_cycle for k in d}
    metrics = {k: statistics.median(d[k] for d in per_cycle if k in d) for k in names}
    metrics.update(micro)
    metrics.update(w.counts())  # consistency() checks the observed counts against these
    metrics["cli.output_bytes"] = statistics.median(c["cli_bytes"] for c in cycles)
    metrics["cli.overhead_s"] = statistics.median(
        c["cli_s"] - c["untraced"].wall_s for c in cycles
    )
    metrics["trace.overhead_s"] = statistics.median(
        c["traced"].wall_s - c["untraced"].wall_s for c in cycles
    )
    problems = [f"cli exit code {c['cli_code']}" for c in cycles if c["cli_code"] != 0]
    for c in cycles:
        problems += check_nesting(c["spans"])
    extra = {
        "problems": problems,
        "spans": [s for c in cycles for s in c["spans"]],
        "cli_s": [c["cli_s"] for c in cycles],
    }
    return metrics, reps, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny shapes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import lambda_saga from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work_dir)
        bench = Bench(workload, work_dir)
        # One untimed set-up finishes lazy initialisation (BLAS threads,
        # first-call costs), which would otherwise land in the first
        # repetition only.
        with contextlib.suppress(Exception):  # a failing set-up fails each repetition
            bench.setup_only()
        if args.trace:
            metrics, reps, extra = per_layer(bench, args.seconds)
            listed = spec["per_layer"]
        else:
            metrics, reps, extra = end_to_end(bench, args.seconds)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = consistency(workload, reps) + extra.pop("problems", [])
    problems += [f"metric {m['name']} was not measured"
                 for m in listed if m["name"] not in metrics]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    correct = failed == 0 and not problems
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "shape": {"M": workload.m, "N": workload.n_comp, "d": workload.dim,
                  "n": workload.n, "lambdas": list(workload.lambdas),
                  "input_bytes": workload.input_bytes},
        "machine": machine_record(workload, args.seed),
        "counts_computed": workload.counts(),
        "repetitions": [r.record() for r in reps],
        "problems": problems,
        "metrics": metrics,
        **extra,
    }
    out_file = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"M={workload.m} N={workload.n_comp} d={workload.dim} n={workload.n} "
          f"lambdas={list(workload.lambdas)}  replication-steps per repetition "
          f"{workload.rep_steps}")
    print(f"repetitions {len(reps)}  digest {reps[0].digest[:16] if reps else '-'}  "
          f"record {out_file.relative_to(ROOT)}")
    for name, value in sorted(metrics.items()):
        unit = units.get(name, REPORT_ONLY_UNITS.get(name, ""))
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for p in problems + [f"{k}: {v}" for r in reps for k, v in r.failures.items() if v]:
        print(f"  FAIL {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
