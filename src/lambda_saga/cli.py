"""Command-line experiment driver.

Subcommands::

    run     single optimizer runs per lambda, trace CSVs + summary
    clt     Monte-Carlo estimate of the scaled-error covariance per lambda
    rates   moment-decay slope estimates per lambda and moment order
    check   problem assumption report
    lemmas  inequality-oracle table and randomized checks

Every invocation writes ``<out-dir>/<subcommand>/<timestamp>/`` containing
``metadata.json`` (the full effective config, package version, and timing),
one or more CSVs, and ``summary.json``.  Outputs other than metadata.json
are deterministic functions of the config, so re-running a config reproduces
them byte for byte.  Configs come from an optional JSON file (``--config``)
with individual flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import DIGIT_SPLIT, LabelRule, load_dataset
from .engine import gaussian_initial_point, run, write_trace_csv, trace_metadata
from .inequalities import check_norm_power_inequality, cp_dp, recursion_bound_trace
from .montecarlo import clt_ensemble, rate_ensemble
from .problems import (
    check_assumptions,
    random_logistic,
    random_quadratic,
    solve_minimizer,
)
from .schedule import StepSchedule


class CliError(Exception):
    pass


# -- config handling ---------------------------------------------------------

_RUN_DEFAULTS = {
    "lambdas": [0.0, 0.5, 0.9, 1.0],
    "c": 1.0,
    "alpha": 1.0,
    "iters": 10_000,
    "reps": 100,
    "seed": 0,
    "diag_every": 1000,
    "workers": 1,
    "problem": {"type": "quadratic", "n": 50, "d": 5, "seed": 7},
    "p_list": [1],
    "mu": None,
    "checkpoints": None,
    "epoch_size": None,
    "dataset": None,
    "label_rule": None,
    "format": "dense-csv",
    "scale": None,
    "label_column": 0,
    "sample_count": 1000,
    "max_p": 8,
    "pairs": 100_000,
    "dump_replications": False,
    "init": "zeros",
    "init_scale": 1.0,
}


def _load_config(args) -> dict:
    config = dict(_RUN_DEFAULTS)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        with open(path) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file {path} must hold a JSON object")
        # A metadata.json written by a previous run is accepted directly.
        if "config" in file_cfg and "version" in file_cfg:
            file_cfg = file_cfg["config"]
        unknown = sorted(set(file_cfg) - set(_RUN_DEFAULTS))
        if unknown:
            raise CliError(f"unknown config key(s) in {path}: {unknown}")
        config.update(file_cfg)
    # Every option named like a config key overrides it when given.
    for key, value in vars(args).items():
        if key in _RUN_DEFAULTS and value is not None:
            config[key] = value
    if args.problem is not None:
        try:
            config["problem"] = json.loads(args.problem)
        except json.JSONDecodeError as exc:
            raise CliError(f"--problem must be a JSON object: {exc}") from None
    return config


# The keys a synthetic problem spec may hold, per problem type.
_PROBLEM_KEYS = {
    "quadratic": {"type", "n", "d", "seed", "scale"},
    "logistic": {"type", "n", "d", "seed", "feature_scale", "parameter_scale"},
}


def make_problem(config: dict):
    """Problem from a config: an explicit dataset wins over a synthetic spec."""
    if config.get("dataset"):
        path = Path(config["dataset"])
        if not path.exists():
            raise CliError(f"file not found: {path}")
        rule = DIGIT_SPLIT
        rule_spec = config.get("label_rule")
        if isinstance(rule_spec, dict):
            rule = LabelRule(
                negative=frozenset(float(v) for v in rule_spec["negative"]),
                positive=frozenset(float(v) for v in rule_spec["positive"]),
            )
        return load_dataset(
            path,
            format=config.get("format", "dense-csv"),
            label_rule=rule,
            label_column=int(config.get("label_column", 0)),
            scale=config.get("scale"),
        )
    spec = config.get("problem") or {}
    if not isinstance(spec, dict):
        raise CliError(f"the problem spec must be a JSON object, got {spec!r}")
    kind = spec.get("type", "quadratic")
    if kind not in _PROBLEM_KEYS:
        raise CliError(f"unknown problem type {kind!r}")
    unknown = sorted(set(spec) - _PROBLEM_KEYS[kind])
    if unknown:
        raise CliError(f"unknown key(s) in the {kind} problem spec: {unknown} "
                       f"(known: {sorted(_PROBLEM_KEYS[kind])})")
    n = int(spec.get("n", 50))
    d = int(spec.get("d", 5))
    seed = int(spec.get("seed", 7))
    if kind == "quadratic":
        return random_quadratic(n, d, seed, scale=float(spec.get("scale", 1.0)))
    return random_logistic(
        n, d, seed,
        feature_scale=float(spec.get("feature_scale", 3.0)),
        parameter_scale=float(spec.get("parameter_scale", 0.3)),
    )


def _schedule(config) -> StepSchedule:
    try:
        return StepSchedule(float(config["c"]), float(config["alpha"]))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _out_dir(args, subcommand: str) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    out = Path(args.out_dir) / subcommand / stamp
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(
    out: Path,
    config: dict,
    summary: dict,
    started: float,
    timings: dict | None = None,
) -> None:
    """Write summary.json and metadata.json; ``timings`` (seconds, varying
    from run to run) go to metadata.json only."""
    _write_json(out / "summary.json", summary)
    _write_json(
        out / "metadata.json",
        {
            "config": config,
            "version": __version__,
            "wall_time_s": time.perf_counter() - started,
            **(timings or {}),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        },
    )
    print(f"wrote {out}")


def _checkpoints(config, default_span=(1000, 100_000), count=7) -> list[int]:
    raw = config.get("checkpoints")
    if raw:
        if isinstance(raw, str):
            raw = [int(v) for v in raw.split(",")]
        points = [int(v) for v in raw]
    else:
        points = sorted(
            {
                int(round(v))
                for v in np.logspace(
                    np.log10(default_span[0]), np.log10(default_span[1]), count
                )
            }
        )
    epoch = config.get("epoch_size")
    if epoch:
        points = [int(p) * int(epoch) for p in points]
    return sorted(set(points))


# -- subcommands --------------------------------------------------------------


def _initial_point(config, problem):
    mode = config.get("init", "zeros")
    if mode == "zeros":
        return None  # engine default
    if mode == "gaussian":
        return gaussian_initial_point(
            problem.dim, int(config["seed"]), float(config.get("init_scale", 1.0))
        )
    raise CliError(f"unknown init mode {mode!r} (choose zeros or gaussian)")


def cmd_run(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    problem = make_problem(config)
    schedule = _schedule(config)
    out = _out_dir(args, "run")

    x_ref = None
    try:
        x_ref = solve_minimizer(problem)
    except Exception as exc:  # diagnostics degrade gracefully without x*
        print(f"note: no reference minimizer ({exc}); recording table-mean norms only")

    x0 = _initial_point(config, problem)
    final_norms = {}
    run_seconds = {}
    for lam in config["lambdas"]:
        trace = run(
            problem,
            float(lam),
            schedule,
            int(config["iters"]),
            int(config["seed"]),
            diag_every=int(config["diag_every"]),
            x_ref=x_ref,
            x0=x0,
        )
        write_trace_csv(trace, out / f"trace_lambda_{lam}.csv")
        # Wall time goes to metadata.json so that the trace files stay
        # byte-reproducible.
        meta = trace_metadata(trace)
        run_seconds[str(lam)] = meta.pop("wall_time_s")
        _write_json(out / f"trace_lambda_{lam}.meta.json", meta)
        final_norms[str(lam)] = trace.snapshots[-1].grad_eval_norm
        print(
            f"[run] lambda={lam}: {config['iters']} steps, "
            f"final grad_eval_norm={final_norms[str(lam)]:.6e}"
        )

    lam_order = [str(l) for l in config["lambdas"]]
    summary = {
        "problem": problem.describe(),
        "schedule": {"c": schedule.c, "alpha": schedule.alpha},
        "final_grad_eval_norm": final_norms,
        "non_increasing_in_lambda": all(
            final_norms[a] >= final_norms[b]
            for a, b in zip(lam_order, lam_order[1:])
        ),
    }
    _finish(out, config, summary, started, {"run_seconds": run_seconds})
    return 0


def cmd_clt(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    if float(config["c"]) != 1.0 or float(config["alpha"]) != 1.0:
        raise CliError(
            "central-limit ensembles require the step 1/n: set c=1 and alpha=1 "
            "(the normality result covers no other schedule)"
        )
    problem = make_problem(config)
    out = _out_dir(args, "clt")
    x_ref = solve_minimizer(problem)

    summaries = {}
    sigma2 = {}
    for lam in config["lambdas"]:
        m = int(config["reps"])
        scaled = np.empty((m, problem.dim))
        summary = clt_ensemble(
            problem,
            float(lam),
            int(config["iters"]),
            m,
            int(config["seed"]),
            x_ref,
            workers=int(config["workers"]),
            scaled_errors_out=scaled,
        )
        summaries[str(lam)] = summary.to_dict()
        sigma2[float(lam)] = summary.sigma2_scalar
        if config.get("dump_replications"):
            np.savetxt(
                out / f"scaled_errors_lambda_{lam}.csv",
                scaled,
                delimiter=",",
                header=",".join(f"x{i}" for i in range(problem.dim)),
                comments="",
            )
        print(
            f"[clt] lambda={lam}: sigma2={summary.sigma2_scalar:.6e} "
            f"+- {summary.stderr:.2e} (M={m}, n={config['iters']})"
        )

    scaling_rows = []
    base = sigma2.get(0.0)
    for lam, s2 in sigma2.items():
        row = {"lambda": lam, "sigma2": s2, "one_minus_lambda_sq": (1 - lam) ** 2}
        if base and lam != 1.0:
            row["ratio_to_lambda0"] = s2 / base
        if lam == 1.0:
            row["note"] = "variance shrinks toward zero with n; no ratio asserted"
        scaling_rows.append(row)

    summary = {
        "problem": problem.describe(),
        "per_lambda": summaries,
        "scaling_law": scaling_rows,
    }
    _finish(out, config, summary, started)
    return 0


def cmd_rates(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    problem = make_problem(config)
    schedule = _schedule(config)
    out = _out_dir(args, "rates")
    x_ref = solve_minimizer(problem)
    checkpoints = _checkpoints(config)

    mu = config.get("mu")
    if mu is None and problem.describe().get("type") == "quadratic":
        mu = 1.0  # exact for the quadratic family
    if mu is None:
        raise CliError("rates need --mu for problems without a known secant constant")

    estimates = {}
    rows = ["lambda,p,n,moment,value_gap_moment"]
    had_warnings = False
    for lam in config["lambdas"]:
        for p in config["p_list"]:
            est = rate_ensemble(
                problem,
                float(lam),
                schedule,
                int(p),
                tuple(checkpoints),
                int(config["reps"]),
                int(config["seed"]),
                x_ref,
                mu=float(mu),
                workers=int(config["workers"]),
            )
            record = estimates[f"lambda={lam},p={p}"] = est.to_dict()
            for n, m, g in zip(record["checkpoints"], record["moments"],
                               record["value_gap_moments"]):
                rows.append(f"{lam},{p},{n},{m!r},{g!r}")
            had_warnings = had_warnings or bool(est.warnings)
            slope = "undefined" if est.slope is None else f"{est.slope:.3f}"
            print(
                f"[rates] lambda={lam} p={p}: slope={slope} "
                f"sup-ratio={est.scaled_sup_ratio} warnings={list(est.warnings)}"
            )

    (out / "moments.csv").write_text("\n".join(rows) + "\n")

    summary = {
        "problem": problem.describe(),
        "schedule": {"c": schedule.c, "alpha": schedule.alpha},
        "mu": mu,
        "estimates": estimates,
        "had_warnings": had_warnings,
    }
    _finish(out, config, summary, started)
    return 0


def cmd_check(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    problem = make_problem(config)
    out = _out_dir(args, "check")

    p_list = tuple(int(p) for p in config["p_list"])
    report = check_assumptions(
        problem,
        p_list=p_list,
        sample_count=int(config["sample_count"]),
        seed=int(config["seed"]),
    )
    print(f"[check] rho={report.rho} L={report.L} mu_estimate={report.mu_estimate:.6g}")
    for p in p_list:
        print(f"[check] L_{p}={report.L_p[p]}")
    for name, ok in report.satisfied_flags.items():
        print(f"[check] {name}: {'ok' if ok else 'VIOLATED'}")

    rows = ["quantity,value"]
    rows.append(f"rho,{report.rho!r}")
    rows.append(f"L,{report.L!r}")
    rows.append(f"mu_estimate,{report.mu_estimate!r}")
    for p in p_list:
        rows.append(f"L_{p},{report.L_p[p]!r}")
    (out / "report.csv").write_text("\n".join(rows) + "\n")

    summary = {"problem": problem.describe(), "report": report.to_dict()}
    _finish(out, config, summary, started)
    return 0


def cmd_lemmas(args) -> int:
    started = time.perf_counter()
    config = _load_config(args)
    out = _out_dir(args, "lemmas")
    max_p = int(config["max_p"])
    if max_p < 2 or max_p % 2 != 0:
        raise CliError(f"max p must be a positive even integer, got {max_p}")

    table = {p: cp_dp(p) for p in range(2, max_p + 1, 2)}
    for p, consts in table.items():
        print(f"[lemmas] p={p}: C_p={consts.c_p} D_p={consts.d_p}")

    pairs = int(config["pairs"])
    rng = np.random.default_rng(int(config["seed"]))
    random_checks = {}
    for p in (2, 4):
        if p > max_p:
            continue
        violations = 0
        worst = np.inf
        for d in (1, 3, 10):
            a = rng.standard_normal((pairs // 3, d))
            b = rng.standard_normal((pairs // 3, d))
            holds, slack = check_norm_power_inequality(a, b, p)
            violations += int((~holds).sum())
            worst = min(worst, float(slack.min()))
        random_checks[p] = {"pairs": 3 * (pairs // 3), "violations": violations,
                            "min_slack": worst}
        print(f"[lemmas] p={p}: {random_checks[p]['violations']} violations "
              f"over {random_checks[p]['pairs']} random pairs")

    trace = recursion_bound_trace(a=1.0, b=1.0, alpha=1.0, beta=1.5, z1=1.0,
                                  n_max=100_000)
    print(f"[lemmas] recursion bound: sup_scaled={trace.sup_scaled:.6f} "
          f"plateaued={trace.plateaued}")

    rows = ["p,C_p,D_p"] + [
        f"{p},{c.c_p!r},{c.d_p!r}" for p, c in table.items()
    ]
    (out / "constants.csv").write_text("\n".join(rows) + "\n")

    summary = {
        "constants": {str(p): {"C_p": c.c_p, "D_p": c.d_p} for p, c in table.items()},
        "random_checks": {str(p): v for p, v in random_checks.items()},
        "recursion_bound": trace.to_dict(),
    }
    print(json.dumps(summary, sort_keys=True))
    _finish(out, config, summary, started)
    return 0


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-saga",
        description="Desk-scale experiments for the interpolated SGD/SAGA optimizer",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--lambda", dest="lambdas", type=float, action="append",
                       help="interpolation parameter in [0, 1]; repeatable")
        p.add_argument("--c", type=float, help="step scale")
        p.add_argument("--alpha", type=float, help="step decay exponent in (1/2, 1]")
        p.add_argument("--iters", type=int, help="iterations per run")
        p.add_argument("--reps", type=int, help="Monte-Carlo replications")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--diag-every", dest="diag_every", type=int,
                       help="snapshot cadence in iterations")
        p.add_argument("--dataset", help="path to a dataset file")
        p.add_argument("--format", choices=["dense-csv", "svmlight"],
                       help="dataset file format")
        p.add_argument("--scale", type=float, help="feature scaling factor")
        p.add_argument("--problem", help="synthetic problem spec as JSON")
        p.add_argument("--mu", type=float, help="restricted secant constant")
        p.add_argument("--checkpoints", help="comma-separated iteration checkpoints")
        p.add_argument("--epoch-size", dest="epoch_size", type=int,
                       help="multiply checkpoint values by this epoch length")
        p.add_argument("--p", dest="p_list", type=int, action="append",
                       help="moment order; repeatable")
        p.add_argument("--max-p", dest="max_p", type=int,
                       help="largest even order for the constants table")
        p.add_argument("--pairs", type=int, help="random pairs for inequality checks")
        p.add_argument("--sample-count", dest="sample_count", type=int,
                       help="sample points for assumption probing")
        p.add_argument("--init", choices=["zeros", "gaussian"],
                       help="initial point: zero vector or seeded Gaussian")
        p.add_argument("--init-scale", dest="init_scale", type=float,
                       help="standard deviation of the Gaussian initial point")
        p.add_argument("--out-dir", dest="out_dir", default="results",
                       help="output root directory")
        p.add_argument("--workers", type=int, help="parallel ensemble workers")

    for name, handler in (
        ("run", cmd_run),
        ("clt", cmd_clt),
        ("rates", cmd_rates),
        ("check", cmd_check),
        ("lemmas", cmd_lemmas),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
