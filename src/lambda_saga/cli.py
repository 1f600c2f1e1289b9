"""Command-line experiment driver.

Subcommands::

    run     single optimizer runs per lambda, trace CSVs + summary
    clt     Monte-Carlo estimate of the scaled-error covariance per lambda
    rates   moment-decay slope estimates per lambda and moment order
    check   problem assumption report
    lemmas  inequality-oracle table and randomized checks

Every invocation writes ``<out-dir>/<subcommand>/<timestamp>/`` containing
``metadata.json`` (the config keys the subcommand reads, package version,
and timing), one or more CSVs, and ``summary.json``.  Outputs other than
metadata.json are deterministic functions of the config, so re-running a
config reproduces them byte for byte.  Configs come from an optional JSON
file (``--config``) with individual flags taking precedence; a subcommand
has flags only for the keys it reads.  Values are checked and converted at
load, and the schedule and rate inputs before the problem is built, so a
config error exits 2 before any dataset is read or x* solved.  A failed
command leaves no output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .datasets import DIGIT_SPLIT, LabelRule, load_dataset
from .engine import (
    RunError, _check_seed, gaussian_initial_point, run, run_ensemble,
    write_trace_csv, write_trace_metadata,
)
from .inequalities import check_norm_power_inequality, cp_dp, recursion_bound_trace
from .montecarlo import check_rate_inputs, clt_ensemble, rate_estimate
from .problems import (
    ProblemError,
    check_assumptions,
    random_logistic,
    random_quadratic,
    solve_minimizer,
)
from .schedule import StepSchedule


class CliError(Exception):
    pass


# -- config handling ---------------------------------------------------------

def _json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"must be a JSON object: {exc}") from None


class _Key(NamedTuple):
    """A config key: its default, its flag and the flag's argparse options
    (no flag: a config-file key of its default's kind), and its least value."""

    default: object
    flag: str | None = None
    options: dict = {}
    minimum: int | None = None


# The keys of every --problem spec, whose defaults complete a partial spec.
_SPEC_KEYS = {"n": _Key(50, minimum=1), "d": _Key(5, minimum=1),
              "seed": _Key(7, minimum=0)}

# Every config key, once.  A subcommand's parser has the flags of the keys
# it reads; each value is checked at load, for flags and config files alike.
_CONFIG_KEYS = {
    "lambdas": _Key([0.0, 0.5, 0.9, 1.0], "--lambda", dict(
        type=float, action="append",
        help="interpolation parameter in [0, 1]; repeatable")),
    "c": _Key(1.0, "--c", dict(type=float, help="step scale")),
    "alpha": _Key(1.0, "--alpha", dict(
        type=float, help="step decay exponent in (1/2, 1]")),
    "iters": _Key(10_000, "--iters", dict(
        type=int, help="iterations per run"), minimum=1),
    "reps": _Key(100, "--reps", dict(
        type=int, help="Monte-Carlo replications"), minimum=1),
    "seed": _Key(0, "--seed", dict(type=int, help="base seed")),
    "diag_every": _Key(1000, "--diag-every", dict(
        type=int, help="snapshot cadence in iterations"), minimum=1),
    "dataset": _Key(None, "--dataset", dict(help="path to a dataset file")),
    "format": _Key("dense-csv", "--format", dict(
        choices=["dense-csv", "svmlight"], help="dataset file format")),
    "scale": _Key(None, "--scale", dict(type=float, help="feature scaling factor")),
    "problem": _Key({"type": "quadratic",
                     **{key: entry.default for key, entry in _SPEC_KEYS.items()}},
                    "--problem", dict(type=_json_arg,
                                      help="synthetic problem spec as JSON")),
    "mu": _Key(None, "--mu", dict(type=float, help="restricted secant constant")),
    "checkpoints": _Key(None, "--checkpoints", dict(
        help="comma-separated iteration checkpoints")),
    "epoch_size": _Key(None, "--epoch-size", dict(
        type=int, help="multiply checkpoint values by this epoch length"),
        minimum=1),
    "p_list": _Key([1], "--p", dict(
        type=int, action="append", help="moment order; repeatable"), minimum=1),
    "max_p": _Key(8, "--max-p", dict(
        type=int, help="largest even order for the constants table")),
    # Each inequality check draws pairs // 3 pairs in each of three dimensions.
    "pairs": _Key(100_000, "--pairs", dict(
        type=int, help="random pairs for inequality checks"), minimum=3),
    "sample_count": _Key(1000, "--sample-count", dict(
        type=int, help="sample points for assumption probing"), minimum=1),
    "init": _Key("zeros", "--init", dict(
        choices=["zeros", "gaussian"],
        help="initial point: zero vector or seeded Gaussian")),
    "init_scale": _Key(1.0, "--init-scale", dict(
        type=float, help="standard deviation of the Gaussian initial point")),
    "workers": _Key(1, "--workers", dict(
        type=int, help="parallel ensemble workers"), minimum=1),
    "label_rule": _Key(None),
    "label_column": _Key(0),
    "dump_replications": _Key(False),
}

# Each synthetic problem type: its generator, called with the spec's n, d and
# seed, and the options a spec may give it, with the generator's defaults.
_PROBLEM_TYPES = {
    "quadratic": (random_quadratic, {"scale": _Key(1.0)}),
    "logistic": (random_logistic,
                 {"feature_scale": _Key(3.0), "parameter_scale": _Key(0.3)}),
}

_PROBLEM_CONFIG = ("problem", "dataset", "label_rule", "format", "scale",
                   "label_column")

# The config keys each subcommand reads.  Its parser has the flags of these
# keys only, and its metadata.json records these keys only.
_COMMAND_KEYS = {
    "run": ("lambdas", "c", "alpha", "iters", "seed", "diag_every", "init",
            "init_scale", *_PROBLEM_CONFIG),
    "clt": ("lambdas", "c", "alpha", "iters", "reps", "seed", "workers",
            "dump_replications", *_PROBLEM_CONFIG),
    "rates": ("lambdas", "c", "alpha", "reps", "seed", "workers", "p_list", "mu",
              "checkpoints", "epoch_size", *_PROBLEM_CONFIG),
    "check": ("p_list", "sample_count", "seed", *_PROBLEM_CONFIG),
    "lemmas": ("max_p", "pairs", "seed"),
}


def _is_integer(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _counters(value) -> list[int]:
    return [int(c) for c in (value.split(",") if isinstance(value, str) else value)]


def _problem_spec(spec: dict) -> dict:
    """The spec completed from the default spec, each key checked and converted."""
    spec = {**_CONFIG_KEYS["problem"].default, **spec}
    family = spec.pop("type")
    if not isinstance(family, str) or family not in _PROBLEM_TYPES:
        raise CliError(f"unknown problem type {family!r}")
    keys = {**_SPEC_KEYS, **_PROBLEM_TYPES[family][1]}
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise CliError(f"unknown key(s) in the {family} problem spec: {unknown} "
                       f"(known: {sorted({'type', *keys})})")
    return {"type": family,
            **{key: _check_value(f"--problem key {key!r}", value, keys[key])
               for key, value in spec.items()}}


def _label_rule(rule: dict) -> dict:
    """Each side of the rule as a sorted list of distinct float labels."""
    if all(isinstance(labels, list) for labels in rule.values()):
        with contextlib.suppress(TypeError, ValueError):
            return LabelRule(**{key: frozenset(map(_finite, labels))
                                for key, labels in rule.items()}).describe()
    raise CliError(f"label_rule values must be lists of labels: {rule!r}")


def _finite(value) -> float:
    """``value`` as a float; a ValueError if not finite or past the float range."""
    with contextlib.suppress(OverflowError):
        if np.isfinite(number := float(value)):
            return number
    raise ValueError(f"must be finite, got {value!r}")


# What a config value must be, by the argparse type of its key's flag (a
# string when the flag sets none) or the type of a flagless key's default,
# and the converter that gives it that kind.  Checkpoints, a string from the
# flag, may come as a list from a file; either becomes a list of ints.
_KINDS = {
    int: ("an integer", _is_integer, int),
    float: ("a number", lambda v: _is_integer(v) or isinstance(v, float), _finite),
    str: ("a string", lambda v: isinstance(v, str), str),
    bool: ("true or false", lambda v: isinstance(v, bool), bool),
    "problem": ("a JSON object", lambda v: isinstance(v, dict), _problem_spec),
    "label_rule": ("a JSON object with the keys 'negative' and 'positive' only",
                   lambda v: isinstance(v, dict) and set(v) == {"negative", "positive"},
                   _label_rule),
    "checkpoints": ("comma-separated counters or a list of integers", lambda v: (
        all(c.strip().isdecimal() for c in v.split(",")) if isinstance(v, str)
        else isinstance(v, list) and all(map(_is_integer, v))), _counters),
}


def _check_value(key, value, entry=None):
    """``value`` converted to the kind of ``entry``, by default the config
    key's, a list item by item.  A value not of that kind, not finite, not
    one of its choices or below its minimum is a CliError naming the key, by
    its flag if it has one.  None with a None default stays None."""
    entry = entry or _CONFIG_KEYS[key]
    if value is None and entry.default is None:
        return value
    name, options = entry.flag or key, entry.options
    if "choices" in options and value not in options["choices"]:
        raise CliError(f"{name} must be one of {options['choices']}, got {value!r}")
    listed = options.get("action") == "append"
    if listed and not isinstance(value, list):
        raise CliError(f"{name} must be a list, got {value!r}")
    kind = options.get("type", str) if entry.flag else type(entry.default)
    what, fits, convert = _KINDS[key if key in _KINDS else kind]
    items = []
    for item in value if listed else [value]:
        if not fits(item):
            raise CliError(f"{name} must be {what}, got {item!r}")
        if entry.minimum is not None and item < entry.minimum:
            raise CliError(f"{name} must be at least {entry.minimum}, got {item!r}")
        try:
            items.append(convert(item))
        except ValueError as exc:  # only _finite raises one
            raise CliError(f"{name} {exc}") from None
    return items if listed else items[0]


def _load_config(args) -> dict:
    """The keys ``args.subcommand`` reads: defaults, then the config file
    (which may hold any known key, so one file serves several subcommands),
    then flags, each value checked and converted to its key's kind, so that
    a value means the same wherever it came from."""
    config = {key: entry.default for key, entry in _CONFIG_KEYS.items()}
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
        unknown = sorted(set(file_cfg) - set(_CONFIG_KEYS))
        if unknown:
            raise CliError(f"unknown config key(s) in {path}: {unknown}")
        config.update(file_cfg)
    # Every option named like a config key overrides it when given.
    for key, value in vars(args).items():
        if key in _CONFIG_KEYS and value is not None:
            config[key] = value
    config = {key: _check_value(key, config[key])
              for key in _COMMAND_KEYS[args.subcommand]}
    _check_seed(config["seed"])
    for lam in config.get("lambdas", []):
        if not 0 <= lam <= 1:
            raise CliError(f"--lambda must lie in [0, 1], got {lam!r}")
    for key in ("lambdas", "p_list"):
        values = config.get(key, [])
        if len(set(values)) < len(values):
            raise CliError(f"{_CONFIG_KEYS[key].flag} repeats a value: {values}")
    # os.path.exists, unlike Path.exists, is False for a name too long to stat.
    if config.get("dataset") and not os.path.exists(config["dataset"]):
        raise CliError(f"dataset file not found: {config['dataset']!r}")
    return config


def make_problem(config: dict):
    """Problem from a converted config; a dataset wins over a synthetic spec."""
    if config["dataset"]:
        rule = config["label_rule"] or DIGIT_SPLIT.describe()
        rule = LabelRule(**{key: frozenset(labels) for key, labels in rule.items()})
        return load_dataset(config["dataset"], format=config["format"], label_rule=rule,
                            label_column=config["label_column"], scale=config["scale"])
    spec = dict(config["problem"])
    generator = _PROBLEM_TYPES[spec.pop("type")][0]
    return generator(spec.pop("n"), spec.pop("d"), spec.pop("seed"), **spec)


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _checkpoints(config) -> list[int]:
    """The rates checkpoints: given, or 7 log-spaced from 1e3 to 1e5; times
    the epoch size when one is set."""
    given = config["checkpoints"] or _counters(np.round(np.logspace(3, 5, 7)))
    return sorted({n * (config["epoch_size"] or 1) for n in given})


# -- subcommands --------------------------------------------------------------


def _initial_point(problem, config):
    if config["init"] == "zeros":
        return None  # engine default
    return gaussian_initial_point(problem.dim, config["seed"], config["init_scale"])


def cmd_run(config, out: Path):
    schedule = StepSchedule(config["c"], config["alpha"])
    problem = make_problem(config)

    x_ref = None
    try:
        x_ref = solve_minimizer(problem)
    except ProblemError as exc:  # diagnostics degrade gracefully without x*
        print(f"note: no reference minimizer ({exc}); recording table-mean norms only")

    x0 = _initial_point(problem, config)
    final_norms = {}
    run_seconds = {}
    for lam in config["lambdas"]:
        trace = run(problem, lam, schedule, config["iters"], config["seed"],
                    diag_every=config["diag_every"], x_ref=x_ref, x0=x0)
        write_trace_csv(trace, out / f"trace_lambda_{lam}.csv")
        write_trace_metadata(trace, out / f"trace_lambda_{lam}.meta.json")
        run_seconds[str(lam)] = trace.wall_time_s
        final_norms[str(lam)] = trace.snapshots[-1].grad_eval_norm
        print(
            f"[run] lambda={lam}: {config['iters']} steps, "
            f"final grad_eval_norm={final_norms[str(lam)]:.6e}"
        )

    summary = {
        "problem": problem.describe(),
        "schedule": {"c": schedule.c, "alpha": schedule.alpha},
        "final_grad_eval_norm": final_norms,
    }
    return summary, {"run_seconds": run_seconds}


def cmd_clt(config, out: Path):
    if config["c"] != 1.0 or config["alpha"] != 1.0:
        raise CliError(
            "central-limit ensembles require the step 1/n: set c=1 and alpha=1 "
            "(the normality result covers no other schedule)"
        )
    if config["reps"] < 2:  # a sample covariance needs two replications
        raise CliError(f"--reps must be at least 2, got {config['reps']}")
    problem = make_problem(config)
    x_ref = solve_minimizer(problem)

    summaries = {}
    sigma2 = {}
    for lam in config["lambdas"]:
        m = config["reps"]
        scaled = np.empty((m, problem.dim))
        summary = clt_ensemble(problem, lam, config["iters"], m, config["seed"], x_ref,
                               workers=config["workers"], scaled_errors_out=scaled)
        summaries[str(lam)] = summary.to_dict()
        sigma2[lam] = summary.sigma2_scalar
        if config["dump_replications"]:
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
    return summary, {}


def cmd_rates(config, out: Path):
    schedule = StepSchedule(config["c"], config["alpha"])
    p_list = config["p_list"]
    checkpoints = check_rate_inputs(_checkpoints(config), p_list, config["mu"])
    problem = make_problem(config)
    # The one check that needs the problem: its family's secant constant.
    mu = problem.secant_constant if config["mu"] is None else config["mu"]
    if mu is None:
        raise CliError("rates need --mu for problems without a known secant constant")
    x_ref = solve_minimizer(problem)
    # No restricted secant constant exceeds rho, the smallest eigenvalue of
    # H(x*): along its eigenvector the secant ratio tends to rho.
    rho = float(np.linalg.eigvalsh(problem.hessian(x_ref)).min())
    mu_warnings = ()
    if mu > rho:
        mu_warnings = (f"mu={mu:g} exceeds rho={rho:.6g}, the smallest "
                       "Hessian eigenvalue at x*, which bounds every secant constant",)
    # The linearised recursion e <- (1 - c rho / n^alpha) e + noise, not a
    # result of the paper, predicts that E ||X_n - x*||^(2p) decays as
    # n^(-p alpha) for alpha < 1 and as n^(-p min(1, 2 c rho)) for alpha = 1.
    rate = schedule.alpha if schedule.alpha < 1 else min(1.0, 2 * schedule.c * rho)

    estimates = {}
    rows = ["lambda,p,n,moment,value_gap_moment"]
    had_warnings = False
    for lam in config["lambdas"]:
        # One ensemble per lambda serves every moment order.
        result = run_ensemble(
            problem, lam, schedule, checkpoints[-1] - 1, config["reps"],
            config["seed"], x_ref=x_ref, checkpoints=checkpoints,
            workers=config["workers"],
        )
        for p in p_list:
            est = rate_estimate(result, lam, schedule, p, mu)
            est = replace(est, warnings=est.warnings + mu_warnings)
            record = estimates[f"lambda={lam},p={p}"] = est.to_dict()
            predicted = record["predicted_slope"] = -p * rate
            record["slope_minus_predicted"] = (
                None if est.slope is None else est.slope - predicted)
            for n, m, g in zip(record["checkpoints"], record["moments"],
                               record["value_gap_moments"]):
                rows.append(f"{lam},{p},{n},{m!r},{g!r}")
            had_warnings = had_warnings or bool(est.warnings)
            slope = "undefined" if est.slope is None else f"{est.slope:.3f}"
            print(
                f"[rates] lambda={lam} p={p}: slope={slope} "
                f"linearised-recursion prediction={predicted:.3f} "
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
    return summary, {}


def cmd_check(config, out: Path):
    problem = make_problem(config)
    p_list = tuple(config["p_list"])
    report = check_assumptions(problem, p_list=p_list,
                               sample_count=config["sample_count"], seed=config["seed"])
    print(f"[check] rho={report.rho} L={report.L} mu_estimate={report.mu_estimate:.6g}")
    for p in p_list:
        print(f"[check] L_{p}={report.L_p[p]}")
    for name, ok in report.satisfied_flags.items():
        print(f"[check] {name}: {'ok' if ok else 'VIOLATED'}")

    rows = ["quantity,value", f"rho,{report.rho!r}", f"L,{report.L!r}",
            f"mu_estimate,{report.mu_estimate!r}"]
    rows += [f"L_{p},{report.L_p[p]!r}" for p in p_list]
    (out / "report.csv").write_text("\n".join(rows) + "\n")

    return {"problem": problem.describe(), "report": report.to_dict()}, {}


def cmd_lemmas(config, out: Path):
    max_p = config["max_p"]
    if max_p < 2 or max_p % 2 != 0:
        raise CliError(f"--max-p must be a positive even integer, got {max_p}")

    table = {p: cp_dp(p) for p in range(2, max_p + 1, 2)}
    for p, consts in table.items():
        print(f"[lemmas] p={p}: C_p={consts.c_p} D_p={consts.d_p}")

    pairs = config["pairs"]
    rng = np.random.default_rng(config["seed"])
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
    return summary, {}


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-saga",
        description="Desk-scale experiments for the interpolated SGD/SAGA optimizer",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    handlers = dict(run=cmd_run, clt=cmd_clt, rates=cmd_rates, check=cmd_check,
                    lemmas=cmd_lemmas)
    for name, keys in _COMMAND_KEYS.items():
        # Without abbreviations, a flag the subcommand does not read cannot
        # pass as a prefix of one it does (--c of --config, --p of --pairs).
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key, entry in _CONFIG_KEYS.items():
            if key in keys and entry.flag:
                p.add_argument(entry.flag, dest=key, **entry.options)
        p.add_argument("--out-dir", dest="out_dir", default="results",
                       help="output root directory")
        p.set_defaults(handler=handlers[name], parser=p)
    return parser


def main(argv=None) -> int:
    args, unread = _build_parser().parse_known_args(argv)
    if unread:  # the subcommand's usage line lists the flags it reads
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    started = time.perf_counter()
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    out = Path(args.out_dir) / args.subcommand / stamp
    # The command writes into a hidden sibling that becomes ``out`` only
    # when it succeeds, so a failed command leaves no directory behind:
    # neither its own nor the parents it had to create.
    partial = out.with_name(f".{stamp}.partial")
    try:
        config = _load_config(args)
        created = [d for d in partial.parents if not d.exists()]
        try:
            partial.mkdir(parents=True)
            summary, timings = args.handler(config, partial)
            _write_json(partial / "summary.json", summary)
            # Timings (seconds, varying from run to run) go to metadata.json only.
            _write_json(partial / "metadata.json", {
                "config": config,
                "version": __version__,
                "wall_time_s": time.perf_counter() - started,
                **timings,
                "created_utc": datetime.now(timezone.utc).isoformat(),
            })
            partial.rename(out)
        except BaseException:
            shutil.rmtree(partial, ignore_errors=True)
            for parent in created:  # innermost first; kept if no longer empty
                with contextlib.suppress(OSError):
                    parent.rmdir()
            raise
    except (CliError, ValueError, OSError, RunError, ProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Exit 2 for an invalid config or input, 1 for a run or problem that failed.
        return 1 if isinstance(exc, (RunError, ProblemError)) else 2
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
