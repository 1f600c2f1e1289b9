"""Named mutants of the library, each run against the test meant to kill it.

    python3 tools/mutants.py --out mutants.json

A mutant is one exact text replacement in one file of the checkout, named
together with the test id that should fail on it.  The script copies the
checkout's files (tracked and untracked, less what ``.gitignore`` lists) into
a temporary directory and first runs every killer on the unchanged copy,
which must pass.  Then, one mutant at a time, it writes the mutant into the
copy, runs its killer with ``-x``, and, if the killer passes, the whole
tier-1 suite with ``-x``; then it restores the file.  A mutant whose old text
does not occur exactly once is an error: the table has gone stale.

The record holds, per mutant, which test killed it (the killer, the first
failing tier-1 test, or none) and the seconds taken, and lists every mutant
not killed as a survivor.  The exit code is 0 when every mutant is killed,
1 when one is not, and 2 when a killer fails on the unchanged copy.  A
survivor costs a full tier-1 run; a check added for a mutant adds its row
here.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["--continue-on-collection-errors"]

# (name, file, old text, new text, killer test id)
MUTANTS = [
    ("t_n-step-gamma-n", "src/lambda_saga/engine.py",
     "gam = schedule.gamma(max(state.n - 1, 1))",
     "gam = schedule.gamma(max(state.n, 1))",
     "tests/test_engine.py::TestDiagnostics::test_t_n_takes_the_previous_step"),
    ("burn-in-2", "src/lambda_saga/montecarlo.py",
     "_BURN_IN = 100",
     "_BURN_IN = 2",
     "tests/test_montecarlo.py::TestRateEnsemble::test_burn_in_drops_early_checkpoints"),
    ("sup-ratio-n-alpha", "src/lambda_saga/montecarlo.py",
     "m * float(n) ** (p * schedule.alpha)",
     "m * float(n) ** schedule.alpha",
     "tests/test_montecarlo.py::TestRateEnsemble"
     "::test_scaled_sup_ratio_scales_by_n_to_the_p_alpha"),
    ("slope-ci-without-1.96", "src/lambda_saga/montecarlo.py",
     "return slope, float(1.96 * se)",
     "return slope, float(se)",
     "tests/test_montecarlo.py::TestFitSlope::test_half_width_is_1_96_standard_errors"),
    ("component-gradient-unchecked", "src/lambda_saga/problems.py",
     "x = self._check_dim(x)\n        return np.asarray(self.component_gradients(",
     "return np.asarray(self.component_gradients(",
     "tests/test_problems.py::TestFiniteSumStructure"
     "::test_one_point_hooks_name_the_dimension"),
    ("quadratic-values-new-square", "src/lambda_saga/problems.py",
     "np.square(diffs, out=diffs)\n        return 0.5 * diffs.sum(axis=2)",
     "return 0.5 * np.square(diffs).sum(axis=2)",
     "tests/test_ensembles.py::test_diagnostics_hold_one_table_at_a_time"
     "[random_quadratic]"),
    ("seed-truncated", "src/lambda_saga/engine.py",
     'key = _check_integer(seed, "seed")',
     "key = int(seed)",
     "tests/test_engine.py::TestIndexSampler::test_rejects_non_integral_seed_by_name"),
    ("config-value-unconverted", "src/lambda_saga/cli.py",
     "items.append(convert(item))",
     "items.append(item)",
     "tests/test_cli.py::test_config_file_writes_what_flags_write[run]"),
    ("diagnostics-norm-of-row-0", "src/lambda_saga/engine.py",
     "grad_eval_norm = float(np.linalg.norm(state.mean, axis=1)[0])",
     "grad_eval_norm = float(np.linalg.norm(state.mean[0]))",
     "tests/test_ensembles.py::test_scalar_run_diagnostics_match_its_replication_bitwise"
     "[random_quadratic-shape0]"),
    ("predicted-slope-c-rho", "src/lambda_saga/montecarlo.py",
     "min(1.0, 2 * schedule.c * rho)",
     "min(1.0, schedule.c * rho)",
     "tests/test_cli.py::test_rates_writes_the_linearised_slope_prediction[1-predicted0]"),
    ("mu-above-rho-unwarned", "src/lambda_saga/montecarlo.py",
     "mu > rho",
     "mu > 2 * rho",
     "tests/test_cli.py::TestRatesCommand::test_mu_above_rho_warns[1-True]"),
    ("run-counter-1-twice", "src/lambda_saga/engine.py",
     "range(max(diag_every, 2), n_iters + 1, diag_every)",
     "range(diag_every, n_iters + 1, diag_every)",
     "tests/test_engine.py::TestRun::test_snapshot_counters[every-step]"),
    ("scale-checked-before-scaling-only", "src/lambda_saga/datasets.py",
     "        if not finite.all():\n",
     "        if False:\n",
     "tests/test_datasets.py::TestDenseCsv::test_scaled_overflow_names_first_row"),
    ("spec-unconverted-with-dataset", "src/lambda_saga/cli.py",
     "config = {key: _check_value(key, config[key])",
     'config = {key: config[key] if key == "problem" and config["dataset"]\n'
     "              else _check_value(key, config[key])",
     "tests/test_cli.py::TestInvalidInputs::test_malformed_config_value_named"
     "[problem-with-dataset]"),
    ("p-repeat-accepted", "src/lambda_saga/cli.py",
     'for key in ("lambdas", "p_list"):',
     'for key in ("lambdas",):',
     "tests/test_cli.py::TestInvalidInputs::test_malformed_config_value_named"
     "[p_list-repeated]"),
    ("rates-prologue-deleted", "src/lambda_saga/cli.py",
     'checkpoints = check_rate_inputs(_checkpoints(config), p_list, config["mu"])',
     "checkpoints = tuple(_checkpoints(config))",
     "tests/test_cli.py::TestInvalidInputs::test_malformed_config_value_named"
     "[checkpoints-one]"),
    ("non-finite-number-accepted", "src/lambda_saga/cli.py",
     "if np.isfinite(number := float(value)):",
     "if not np.isnan(number := float(value)):",
     "tests/test_cli.py::TestInvalidInputs::test_malformed_config_value_named"
     "[mu-inf]"),
    ("seed-unchecked-at-load", "src/lambda_saga/cli.py",
     '_check_seed(config["seed"])',
     'config["seed"]',
     "tests/test_cli.py::TestInvalidInputs::test_malformed_config_value_named"
     "[lemmas-seed]"),
    ("growth-order-1-untested", "src/lambda_saga/problems.py",
     '"gradient_growth_bounded": growth_ok[1],',
     '"gradient_growth_bounded": growth_ok[1] if 1 in p_list else True,',
     "tests/test_problems.py::TestCheckAssumptions"
     "::test_gradient_growth_tested_without_order_1"),
    ("int-past-float-range-unhandled", "src/lambda_saga/cli.py",
     "with contextlib.suppress(OverflowError):",
     "with contextlib.suppress(ZeroDivisionError):",
     "tests/test_cli.py::TestInvalidInputs::test_malformed_config_value_named"
     "[mu-overflow]"),
    ("undecodable-csv-strict", "src/lambda_saga/datasets.py",
     'open(path, newline="", errors="surrogateescape")',
     'open(path, newline="")',
     "tests/test_datasets.py::test_undecodable_byte_named_by_row[csv]"),
    # The step kernel.  In criterion 3's covariances a never-drawn component
    # N - 1 shows at every lambda, and a wrong lambda factor at 0.5 and 0.9:
    # lambda = 0 and 1 cannot see it.
    ("kernel-mean-update-over-n-plus-1", "src/lambda_saga/engine.py",
     "np.divide(scratch, n_comp, out=scratch)",
     "np.divide(scratch, n_comp + 1, out=scratch)",
     "tests/test_acceptance.py::test_criterion_01_reduction_identities"),
    ("kernel-resync-phase-off-by-one", "src/lambda_saga/engine.py",
     "if state.n % n_comp == 0:",
     "if state.n % n_comp == 1:",
     "tests/test_acceptance.py::test_criterion_01_reduction_identities"),
    ("kernel-lambda-squared", "src/lambda_saga/engine.py",
     "np.multiply(mean, lam, out=scratch)",
     "np.multiply(mean, lam * lam, out=scratch)",
     "tests/test_acceptance.py::test_criterion_03_clt_covariance"),
    ("sampler-never-draws-n-minus-1", "src/lambda_saga/engine.py",
     "integers(0, self.n_components, size=count)",
     "integers(0, max(self.n_components - 1, 1), size=count)",
     "tests/test_acceptance.py::test_criterion_03_clt_covariance"),
]


def copy_checkout(dest: Path) -> None:
    """Copy the working-tree files git tracks or would track into ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def pytest(checkout: Path, args: list) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=checkout, env=env, capture_output=True, text=True)


def first_failure(proc: subprocess.CompletedProcess) -> str | None:
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return found.group(1) if found else None


def run_mutant(checkout: Path, name, file, old, new, killer) -> dict:
    path = checkout / file
    original = path.read_text()
    entry = {"name": name, "file": file, "killer": killer}
    count = original.count(old)
    if count != 1:
        return {**entry, "status": "stale", "killed_by": None, "seconds": 0.0,
                "detail": f"old text found {count} times"}
    start = time.perf_counter()
    path.write_text(original.replace(old, new))
    try:
        proc = pytest(checkout, [killer])
        if proc.returncode == 1:
            status, killed_by = "killed", killer
        elif proc.returncode != 0:  # not collected, or pytest itself failed
            status, killed_by = "error", None
            entry["detail"] = proc.stdout[-2000:] + proc.stderr[-2000:]
        else:
            proc = pytest(checkout, TIER1)
            killed_by = first_failure(proc) or ("tier-1" if proc.returncode else None)
            status = "killed" if killed_by else "survived"
    finally:
        path.write_text(original)
    return {**entry, "status": status, "killed_by": killed_by,
            "seconds": round(time.perf_counter() - start, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        checkout = Path(tmp)
        copy_checkout(checkout)
        baseline = pytest(checkout, [m[4] for m in MUTANTS])
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:] + baseline.stderr[-3000:])
            print("the killers do not pass on the unchanged checkout")
            return 2
        results = []
        for mutant in MUTANTS:
            results.append(run_mutant(checkout, *mutant))
            r = results[-1]
            print(f"{r['name']}: {r['status']} by {r['killed_by']} "
                  f"in {r['seconds']} s", flush=True)
    record = {"mutants": results,
              "survivors": [r["name"] for r in results if r["status"] != "killed"]}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 1 if record["survivors"] else 0


if __name__ == "__main__":
    sys.exit(main())
