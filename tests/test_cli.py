import contextlib
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lambda_saga
from lambda_saga import MinimizerError, cli
from lambda_saga.cli import main


def latest_output(out_root, subcommand) -> Path:
    runs = sorted((Path(out_root) / subcommand).iterdir())
    assert runs, f"no output directory for {subcommand}"
    return runs[-1]


def read_summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "summary.json").read_text())


QUAD = '{"type": "quadratic", "n": 20, "d": 3, "seed": 5}'
LOGIT = '{"type": "logistic", "n": 40, "d": 3, "seed": 2024}'


class TestRunCommand:
    def test_writes_trace_per_lambda_and_summary(self, tmp_path):
        code = main([
            "run", "--problem", QUAD, "--lambda", "0", "--lambda", "1",
            "--iters", "2000", "--seed", "3", "--diag-every", "500",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = latest_output(tmp_path, "run")
        assert (out / "trace_lambda_0.0.csv").exists()
        assert (out / "trace_lambda_1.0.csv").exists()
        summary = read_summary(out)
        assert set(summary["final_grad_eval_norm"]) == {"0.0", "1.0"}
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["iters"] == 2000

    def test_outputs_reproducible_across_invocations(self, tmp_path):
        argv = [
            "run", "--problem", QUAD, "--lambda", "0.5", "--iters", "1000",
            "--seed", "9", "--diag-every", "250", "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        first, second = sorted((tmp_path / "run").iterdir())[-2:]
        assert (first / "trace_lambda_0.5.csv").read_bytes() == (
            second / "trace_lambda_0.5.csv"
        ).read_bytes()
        assert (first / "summary.json").read_bytes() == (
            second / "summary.json"
        ).read_bytes()

    def test_rerun_from_metadata_config(self, tmp_path):
        argv = [
            "run", "--problem", QUAD, "--lambda", "0.5", "--iters", "500",
            "--seed", "4", "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = latest_output(tmp_path, "run")
        assert main([
            "run", "--config", str(first / "metadata.json"),
            "--out-dir", str(tmp_path),
        ]) == 0
        second = latest_output(tmp_path, "run")
        assert (first / "trace_lambda_0.5.csv").read_bytes() == (
            second / "trace_lambda_0.5.csv"
        ).read_bytes()

    def test_missing_dataset_path_fails(self, tmp_path, capsys):
        code = main([
            "run", "--dataset", str(tmp_path / "nope.csv"),
            "--out-dir", str(tmp_path),
        ])
        assert code != 0
        assert "file not found" in capsys.readouterr().err
        assert "nope.csv" in str(tmp_path / "nope.csv")

    def test_gaussian_init_recorded_and_deterministic(self, tmp_path):
        argv = [
            "run", "--problem", QUAD, "--lambda", "0.5", "--iters", "400",
            "--seed", "6", "--init", "gaussian", "--init-scale", "2.0",
            "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        first, second = sorted((tmp_path / "run").iterdir())[-2:]
        assert (first / "trace_lambda_0.5.csv").read_bytes() == (
            second / "trace_lambda_0.5.csv"
        ).read_bytes()
        meta = json.loads((first / "metadata.json").read_text())
        assert meta["config"]["init"] == "gaussian"
        trace_meta = json.loads((first / "trace_lambda_0.5.meta.json").read_text())
        assert any(v != 0.0 for v in trace_meta["x0"])
        assert (first / "trace_lambda_0.5.meta.json").read_bytes() == (
            second / "trace_lambda_0.5.meta.json"
        ).read_bytes()
        assert meta["run_seconds"]["0.5"] > 0.0

    def test_dataset_run(self, tmp_path):
        data = tmp_path / "tiny.csv"
        rng = np.random.default_rng(0)
        rows = []
        for i in range(30):
            label = int(rng.integers(0, 10))
            feats = rng.standard_normal(3) * 2
            rows.append(",".join([str(label)] + [repr(float(v)) for v in feats]))
        data.write_text("\n".join(rows) + "\n")
        code = main([
            "run", "--dataset", str(data), "--lambda", "1",
            "--iters", "500", "--out-dir", str(tmp_path),
        ])
        assert code == 0


class TestCltCommand:
    def test_scaling_table(self, tmp_path):
        code = main([
            "clt", "--problem", QUAD, "--lambda", "0", "--lambda", "0.5",
            "--iters", "2000", "--reps", "64", "--seed", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        summary = read_summary(latest_output(tmp_path, "clt"))
        rows = {row["lambda"]: row for row in summary["scaling_law"]}
        assert rows[0.5]["one_minus_lambda_sq"] == 0.25
        assert 0.0 < rows[0.5]["ratio_to_lambda0"] < 1.0

    def test_lambda_one_noted_without_ratio(self, tmp_path):
        code = main([
            "clt", "--problem", QUAD, "--lambda", "1",
            "--iters", "1000", "--reps", "16", "--seed", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        summary = read_summary(latest_output(tmp_path, "clt"))
        row = summary["scaling_law"][0]
        assert "note" in row and "ratio_to_lambda0" not in row

    def test_rejects_non_unit_schedule(self, tmp_path, capsys):
        code = main([
            "clt", "--problem", QUAD, "--alpha", "0.75",
            "--out-dir", str(tmp_path),
        ])
        assert code != 0
        assert "step 1/n" in capsys.readouterr().err


class TestRatesCommand:
    def test_quadratic_rates_with_implicit_mu(self, tmp_path):
        code = main([
            "rates", "--problem", QUAD, "--lambda", "0.5", "--p", "1",
            "--checkpoints", "200,1000,4000", "--reps", "32", "--seed", "2",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = latest_output(tmp_path, "rates")
        summary = read_summary(out)
        est = summary["estimates"]["lambda=0.5,p=1"]
        assert est["slope"] is not None
        assert (out / "moments.csv").exists()

    def test_condition_warning_recorded(self, tmp_path):
        code = main([
            "rates", "--problem", QUAD, "--lambda", "0.5", "--p", "3",
            "--checkpoints", "200,1000", "--reps", "8", "--seed", "2",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        summary = read_summary(latest_output(tmp_path, "rates"))
        assert summary["had_warnings"] is True

    def test_epoch_size_scales_checkpoints(self, tmp_path):
        code = main([
            "rates", "--problem", QUAD, "--lambda", "0", "--p", "1",
            "--checkpoints", "2,5", "--epoch-size", "100",
            "--reps", "8", "--seed", "2", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        summary = read_summary(latest_output(tmp_path, "rates"))
        est = summary["estimates"]["lambda=0.0,p=1"]
        assert est["checkpoints"] == [200, 500]

    @pytest.mark.parametrize("mu, warns", [("1", True), ("0.5", False)])
    def test_mu_above_rho_warns(self, tmp_path, capsys, mu, warns):
        # rho, the smallest Hessian eigenvalue at x*, is 0.881 on this spec.
        code = main([
            "rates", "--problem", '{"type": "logistic", "n": 100, "d": 5, "seed": 2024}',
            "--lambda", "0.5", "--p", "1", "--p", "2", "--mu", mu,
            "--checkpoints", "200,1000", "--reps", "8", "--seed", "2",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        summary = read_summary(latest_output(tmp_path, "rates"))
        for p in (1, 2):
            flagged = [w for w in summary["estimates"][f"lambda=0.5,p={p}"]["warnings"]
                       if "exceeds rho" in w]
            assert flagged == (["mu=1 exceeds rho=0.881088, the smallest Hessian "
                                "eigenvalue at x*, which bounds every secant "
                                "constant"] if warns else [])
        assert printed.count("exceeds rho") == (2 if warns else 0)
        if warns:
            assert summary["had_warnings"] is True

    def test_logistic_requires_mu(self, tmp_path, capsys):
        code = main([
            "rates", "--problem", LOGIT, "--lambda", "0",
            "--checkpoints", "200,500", "--reps", "4",
            "--out-dir", str(tmp_path),
        ])
        assert code != 0
        assert "--mu" in capsys.readouterr().err


class TestCheckCommand:
    def test_quadratic_all_satisfied(self, tmp_path):
        code = main([
            "check", "--problem", QUAD, "--p", "1", "--p", "2",
            "--sample-count", "100", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        report = read_summary(latest_output(tmp_path, "check"))["report"]
        assert report["rho"] == pytest.approx(1.0)
        assert report["L"] == 1.0
        assert all(report["satisfied_flags"].values())

    def test_weak_logistic_flags_curvature(self, tmp_path):
        weak = '{"type": "logistic", "n": 30, "d": 3, "seed": 21, "feature_scale": 0.2}'
        code = main([
            "check", "--problem", weak, "--sample-count", "50",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        report = read_summary(latest_output(tmp_path, "check"))["report"]
        assert report["rho"] < 0.5
        assert report["satisfied_flags"]["hessian_min_eig_above_half"] is False

    def test_l_p_values_match_closed_form(self, tmp_path):
        # conflicting labels on the repeated feature row keep the data
        # non-separable, so the reference minimizer exists
        data = tmp_path / "four.csv"
        data.write_text("0,1.0,0.0\n7,0.0,2.0\n3,2.0,1.0\n8,1.0,0.0\n")
        code = main([
            "check", "--dataset", str(data), "--p", "1", "--p", "2",
            "--sample-count", "50", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        report = read_summary(latest_output(tmp_path, "check"))["report"]
        # L_p = (1/(4^p N)) sum ||w_k||^(4p) on norms 1, 2, sqrt(5), 1
        norms4 = [1.0, 16.0, 25.0, 1.0]
        assert report["L_p"]["1"] == pytest.approx(sum(norms4) / (4 * 4))
        norms8 = [1.0, 256.0, 625.0, 1.0]
        assert report["L_p"]["2"] == pytest.approx(sum(norms8) / (16 * 4))


class TestLemmasCommand:
    def test_constant_table_and_checks(self, tmp_path):
        code = main([
            "lemmas", "--pairs", "3000", "--max-p", "6", "--seed", "0",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        summary = read_summary(latest_output(tmp_path, "lemmas"))
        assert summary["constants"]["2"] == {"C_p": 8.0, "D_p": 3.0}
        assert summary["constants"]["4"] == {"C_p": 39.0, "D_p": 18.0}
        for p in ("2", "4"):
            assert summary["random_checks"][p]["violations"] == 0
        assert summary["recursion_bound"]["plateaued"] is True

    def test_rejects_odd_max_p(self, tmp_path, capsys):
        code = main(["lemmas", "--max-p", "3", "--out-dir", str(tmp_path)])
        assert code != 0
        assert "even" in capsys.readouterr().err


ALPHA_ABOVE_1 = ("alpha must not exceed 1 (got 2.0); exponents above 1 make the "
                 "step sequence summable and are unsupported")


class TestInvalidInputs:
    def test_unknown_config_key_named(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"iter": 50}')
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "unknown config key(s)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("spec, key", [
        ('{"type": "quadratic", "n": 10, "dim": 3}', "'dim'"),
        ('{"type": "logistic", "n": 10, "scale": 2.0}', "'scale'"),
    ])
    def test_unknown_problem_key_named(self, tmp_path, capsys, spec, key):
        code = main(["run", "--problem", spec, "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown key(s) in the" in err and key in err

    @pytest.mark.parametrize("command, key, flag, value, least", [
        ("clt", "workers", "--workers", 0, 1),
        ("rates", "workers", "--workers", -5, 1),
        ("rates", "epoch_size", "--epoch-size", 0, 1),
        ("check", "sample_count", "--sample-count", 0, 1),
        ("lemmas", "pairs", "--pairs", 2, 3),
        ("run", "diag_every", "--diag-every", 0, 1),
        ("run", "iters", "--iters", 0, 1),
        ("clt", "iters", "--iters", 0, 1),
        ("rates", "reps", "--reps", 0, 1),
        ("clt", "reps", "--reps", -3, 1),
    ])
    def test_out_of_range_value_named(self, tmp_path, capsys, command, key, flag,
                                      value, least):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        for given in ([flag, str(value)], ["--config", str(config)]):
            assert main([command, *given, "--out-dir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {flag} must be at least {least}, got {value}\n"
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("spec, message", [
        ('{"n": "x"}', "--problem key 'n' must be an integer, got 'x'"),
        ('{"d": 2.5}', "--problem key 'd' must be an integer, got 2.5"),
        ('{"type": "logistic", "feature_scale": "big"}',
         "--problem key 'feature_scale' must be a number, got 'big'"),
        ('{"d": -1}', "--problem key 'd' must be at least 1, got -1"),
        ('{"n": 0}', "--problem key 'n' must be at least 1, got 0"),
        ('{"seed": -3}', "--problem key 'seed' must be at least 0, got -3"),
        ('{"type": [1]}', "unknown problem type [1]"),
    ])
    def test_problem_spec_value_of_wrong_kind_named(self, tmp_path, capsys, spec,
                                                    message):
        assert main(["run", "--problem", spec, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["two", [2], True])
    def test_non_integer_config_value_named(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": value}))
        assert main(["clt", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: --workers must be an integer, got {value!r}\n")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command, values, message", [
        ("clt", {"lambdas": 0.5}, "--lambda must be a list, got 0.5"),
        ("clt", {"lambdas": ["0.5"]}, "--lambda must be a number, got '0.5'"),
        ("clt", {"lambdas": [0.0, 1.5], "reps": 2000, "iters": 20000},
         "--lambda must lie in [0, 1], got 1.5"),
        ("run", {"lambdas": [0.5, 0.9, 0.5]},
         "--lambda repeats a value: [0.5, 0.9, 0.5]"),
        ("clt", {"iters": None}, "--iters must be an integer, got None"),
        ("clt", {"iters": 2.5}, "--iters must be an integer, got 2.5"),
        ("clt", {"reps": "x"}, "--reps must be an integer, got 'x'"),
        ("check", {"p_list": 2}, "--p must be a list, got 2"),
        ("rates", {"checkpoints": "10,x"},
         "--checkpoints must be comma-separated counters or a list of integers, "
         "got '10,x'"),
        ("run", {"init": "ones"},
         "--init must be one of ['zeros', 'gaussian'], got 'ones'"),
        ("run", {"problem": [1]}, "--problem must be a JSON object, got [1]"),
        ("run", {"label_column": "0"}, "label_column must be an integer, got '0'"),
        ("clt", {"dump_replications": 1},
         "dump_replications must be true or false, got 1"),
        ("check", {"problem": {"n": "x"}, "dataset": "CONFIG"},
         "--problem key 'n' must be an integer, got 'x'"),
        ("run", {"label_rule": {"negative": [-1], "positive": 1}},
         "label_rule values must be lists of labels: {'negative': [-1], 'positive': 1}"),
        ("run", {"label_rule": {"negative": "01", "positive": [5]}},
         "label_rule values must be lists of labels: "
         "{'negative': '01', 'positive': [5]}"),
        ("run", {"dataset": "no-such-file.csv"},
         "dataset file not found: 'no-such-file.csv'"),
        ("check", {"p_list": [0]}, "--p must be at least 1, got 0"),
        ("rates", {"checkpoints": [5]}, "at least 2 checkpoints are needed for a slope"),
        ("rates", {"p_list": [1, 1]}, "--p repeats a value: [1, 1]"),
        ("run", {"alpha": 2}, ALPHA_ABOVE_1),
        ("rates", {"alpha": 2}, ALPHA_ABOVE_1),
        ("run", {"init": "gaussian", "init_scale": float("nan")},
         "--init-scale must be finite, got nan"),
        ("run", {"c": float("inf")}, "--c must be finite, got inf"),
        ("rates", {"mu": float("inf")}, "--mu must be finite, got inf"),
        ("clt", {"lambdas": [0.5, float("nan")]}, "--lambda must be finite, got nan"),
        ("check", {"problem": {"type": "logistic", "feature_scale": float("-inf")}},
         "--problem key 'feature_scale' must be finite, got -inf"),
        ("run", {"seed": -1}, "seed -1 must lie in [0, 2**128)"),
        ("clt", {"seed": -1}, "seed -1 must lie in [0, 2**128)"),
        ("rates", {"seed": 2**128}, f"seed {2**128} must lie in [0, 2**128)"),
        ("check", {"seed": -1}, "seed -1 must lie in [0, 2**128)"),
        ("lemmas", {"seed": -1}, "seed -1 must lie in [0, 2**128)"),
        ("clt", {"reps": 1}, "--reps must be at least 2, got 1"),
        ("rates", {"mu": 10**400}, f"--mu must be finite, got {10**400}"),
        ("clt", {"lambdas": [0.5, -10**400]}, f"--lambda must be finite, got {-10**400}"),
        ("check", {"problem": {"scale": 10**400}},
         f"--problem key 'scale' must be finite, got {10**400}"),
        ("run", {"label_rule": {"negative": [10**400], "positive": [1]}},
         f"label_rule values must be lists of labels: "
         f"{ {'negative': [10**400], 'positive': [1]} }"),
        ("rates", {"checkpoints": "10,\u00b2"},
         "--checkpoints must be comma-separated counters or a list of integers, "
         "got '10,\u00b2'"),
        ("lemmas", {"max_p": 3}, "--max-p must be a positive even integer, got 3"),
    ], ids=["lambdas-scalar", "lambdas-string", "lambda-range", "lambda-repeated",
            "iters-null", "iters-fraction", "reps-string", "p_list-scalar",
            "checkpoints-string", "init-choice", "problem-list", "label_column",
            "dump_replications", "problem-with-dataset", "label_rule-scalar",
            "label_rule-string", "dataset-missing", "p_list-zero",
            "checkpoints-one", "p_list-repeated", "run-alpha", "rates-alpha",
            "init_scale-nan", "c-inf", "mu-inf", "lambda-nan", "problem-scale-inf",
            "run-seed", "clt-seed", "rates-seed", "check-seed", "lemmas-seed",
            "clt-reps-one", "mu-overflow", "lambda-overflow", "problem-scale-overflow",
            "label_rule-overflow", "checkpoints-superscript", "max_p-odd"])
    def test_malformed_config_value_named(self, tmp_path, capsys, monkeypatch,
                                          command, values, message):
        # Checked before any problem is made: make_problem is never called,
        # and nothing is printed before the error.
        monkeypatch.setattr(cli, "make_problem", None)
        config = tmp_path / "config.json"
        # "CONFIG" names an existing file that is never read: the config itself.
        config.write_text(json.dumps(
            {key: str(config) if value == "CONFIG" else value
             for key, value in values.items()}))
        assert main([command, "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [config]

    def test_rates_checks_mu_before_solving(self, tmp_path, capsys, monkeypatch):
        # A dataset has no known secant constant: rates needs --mu, and says
        # so before it solves for x*.
        data = tmp_path / "four.csv"
        data.write_text("0,1.0,0.0\n7,0.0,2.0\n3,2.0,1.0\n8,1.0,0.0\n")
        monkeypatch.setattr(cli, "solve_minimizer", None)
        assert main(["rates", "--dataset", str(data), "--checkpoints", "10,20",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: rates need --mu for problems without a known secant constant\n")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_named(self, tmp_path, capsys):
        code = main([
            "clt", "--problem", QUAD, "--iters", "10", "--reps", "2",
            "--seed", "-1", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "error: seed -1 must lie in [0, 2**128)" in capsys.readouterr().err

    @pytest.mark.parametrize("rule, named", [
        ([-1, 1], "label_rule must be a JSON object"),
        ({"negative": [-1]}, "'positive' only, got {'negative': [-1]}"),
        ({"negative": [-1], "positive": 1}, "label_rule values must be lists"),
    ])
    def test_malformed_label_rule_named(self, tmp_path, capsys, rule, named):
        data = tmp_path / "tiny.csv"
        data.write_text("-1,1.0\n1,2.0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(data), "label_rule": rule}))
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: label_rule") and named in err

    def test_label_rule_is_a_config_key(self, tmp_path):
        # Labels -1 and 1 lie outside the default digit split.
        data = tmp_path / "tiny.csv"
        rng = np.random.default_rng(1)
        data.write_text("".join(
            f"{label},{rng.standard_normal()!r},{rng.standard_normal()!r}\n"
            for label in [-1, 1] * 10
        ))
        rule = {"negative": [-1], "positive": [1]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(data), "label_rule": rule}))
        code = main([
            "run", "--config", str(config), "--lambda", "1", "--iters", "200",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        meta = json.loads((latest_output(tmp_path, "run") / "metadata.json").read_text())
        assert meta["config"]["label_rule"] == rule


# Every flag of the command line, with a value it parses.
FLAG_VALUES = {
    "--lambda": "0.5", "--c": "1", "--alpha": "0.75", "--iters": "10",
    "--reps": "4", "--seed": "3", "--diag-every": "5", "--dataset": "data.csv",
    "--format": "svmlight", "--scale": "2", "--problem": QUAD, "--mu": "1",
    "--checkpoints": "10,20", "--epoch-size": "2", "--p": "2", "--max-p": "4",
    "--pairs": "30", "--sample-count": "10", "--init": "gaussian",
    "--init-scale": "2", "--workers": "2",
}
PROBLEM_FLAGS = {"--problem", "--dataset", "--format", "--scale"}
# The flags each subcommand reads.
READS = {
    "run": {"--lambda", "--c", "--alpha", "--iters", "--seed", "--diag-every",
            "--init", "--init-scale"} | PROBLEM_FLAGS,
    "clt": {"--lambda", "--c", "--alpha", "--iters", "--reps", "--seed",
            "--workers"} | PROBLEM_FLAGS,
    "rates": {"--lambda", "--c", "--alpha", "--reps", "--seed", "--workers", "--p",
              "--mu", "--checkpoints", "--epoch-size"} | PROBLEM_FLAGS,
    "check": {"--p", "--sample-count", "--seed"} | PROBLEM_FLAGS,
    "lemmas": {"--max-p", "--pairs", "--seed"},
}


class TestFlagsPerSubcommand:
    def test_accepted_pairs(self):
        assert len(FLAG_VALUES) == 21
        assert sum(len(flags) for flags in READS.values()) == 47

    @pytest.mark.parametrize("command", sorted(READS))
    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    def test_only_read_flags_parse(self, tmp_path, capsys, command, flag):
        argv = [command, flag, FLAG_VALUES[flag], "--out-dir", str(tmp_path)]
        if flag in READS[command]:
            parse = cli._build_parser().parse_args
            assert vars(parse(argv)) != vars(parse(argv[:1] + argv[3:]))
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: lambda-saga {command} [-h] [--config CONFIG]")
            assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in err
            assert not tmp_path.joinpath(command).exists()

    def test_metadata_records_the_keys_read(self, tmp_path):
        # A config holding every known key, as a parent-era metadata.json
        # does, serves any subcommand.
        config = tmp_path / "metadata.json"
        defaults = {key: entry.default for key, entry in cli._CONFIG_KEYS.items()}
        config.write_text(json.dumps({"config": dict(defaults, pairs=30),
                                      "version": "0"}))
        assert main(["lemmas", "--config", str(config), "--max-p", "4",
                     "--out-dir", str(tmp_path)]) == 0
        meta = json.loads((latest_output(tmp_path, "lemmas") / "metadata.json").read_text())
        assert meta["config"] == {"max_p": 4, "pairs": 30, "seed": 0}

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        lines = [line for line in block.splitlines() if line.startswith("lambda-saga ")]
        assert sorted(shlex.split(line)[1] for line in lines) == sorted(READS)
        parser = cli._build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])


class TestFailedCommands:
    @pytest.mark.parametrize("argv, code, cause", [
        (["clt", "--problem", QUAD, "--iters", "10", "--reps", "2", "--seed", "-1"],
         2, "seed -1 must lie in [0, 2**128)"),
        (["run", "--problem", QUAD, "--c", "1e6", "--alpha", "0.51",
          "--iters", "5000"], 1, "non-finite iterate"),
        (["rates", "--dataset", "SEPARABLE", "--mu", "0.5", "--reps", "2",
          "--checkpoints", "10,20"], 1, "separable data?"),
        (["run", "--dataset", "LABELS", "--format", "svmlight", "--iters", "10"],
         2, "labels.svm: no row has a feature"),
        (["rates", "--dataset", "SEPARABLE", "--scale", "nan", "--mu", "0.5"],
         2, "--scale must be finite, got nan"),
        (["rates", "--dataset", "SEPARABLE", "--scale", "1e308", "--mu", "0.5"],
         2, "separable.csv: row 3: a feature overflows when scaled by 1e+308"),
    ], ids=["clt-seed", "run-diverges", "rates-separable", "run-svmlight-labels-only",
            "rates-scale-nan", "rates-scale-overflow"])
    def test_one_error_line_and_no_directory(self, tmp_path, capsys, argv, code, cause):
        data = tmp_path / "separable.csv"
        data.write_text("0,1.0,0.0\n7,-1.0,0.0\n3,2.0,1.0\n8,-2.0,-1.0\n")
        labels = tmp_path / "labels.svm"
        labels.write_text("0\n1\n0\n")
        files = {"SEPARABLE": str(data), "LABELS": str(labels)}
        argv = [files.get(a, a) for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:") and cause in err
        assert not out.exists()

    def test_directories_that_existed_are_kept(self, tmp_path):
        (tmp_path / "clt" / "earlier").mkdir(parents=True)
        argv = ["clt", "--problem", QUAD, "--seed", "-1", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert [p.name for p in (tmp_path / "clt").iterdir()] == ["earlier"]

    def test_unexpected_failure_removes_the_directory(self, tmp_path, monkeypatch):
        def broken(config, out):
            (out / "constants.csv").write_text("p,C_p,D_p\n")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_lemmas", broken)
        with pytest.raises(KeyboardInterrupt):
            main(["lemmas", "--out-dir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_programming_error_in_the_minimizer_propagates(self, tmp_path, monkeypatch):
        def broken(problem):
            raise TypeError("broken solver")

        monkeypatch.setattr(cli, "solve_minimizer", broken)
        with pytest.raises(TypeError, match="broken solver"):
            main(["run", "--problem", QUAD, "--iters", "10", "--out-dir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []


def test_run_without_a_minimizer_notes_it(tmp_path, monkeypatch, capsys):
    def no_minimizer(problem):
        raise MinimizerError("flat ray")

    monkeypatch.setattr(cli, "solve_minimizer", no_minimizer)
    assert main(["run", "--problem", QUAD, "--lambda", "0.5", "--iters", "100",
                 "--diag-every", "50", "--out-dir", str(tmp_path)]) == 0
    assert "note: no reference minimizer (flat ray)" in capsys.readouterr().out
    trace = (latest_output(tmp_path, "run") / "trace_lambda_0.5.csv").read_text()
    rows = [line.split(",") for line in trace.splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "50", "100", "101"]
    assert all(row[1] == "" and float(row[5]) > 0.0 for row in rows)  # no V_n


@pytest.mark.parametrize("argv", [
    ["clt", "--problem", QUAD, "--lambda", "0", "--lambda", "0.5", "--iters", "300"],
    ["rates", "--problem", LOGIT, "--lambda", "0.5", "--mu", "0.5", "--p", "1",
     "--p", "2", "--checkpoints", "50,100,200,400"],
], ids=["clt", "rates"])
def test_outputs_independent_of_workers(tmp_path, argv):
    config = tmp_path / "config.json"
    config.write_text('{"dump_replications": true}')
    written = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(argv + ["--reps", "6", "--seed", "4", "--workers", workers,
                            "--config", str(config), "--out-dir", str(out)]) == 0
        run_dir = latest_output(out, argv[0])
        written.append({p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
                        if p.name != "metadata.json"})
    assert len(written[0]) >= 2 and written[0] == written[1]


# Every numeric key a subcommand reads, as a JSON integer.
INTEGRAL_CONFIGS = {
    "run": {"lambdas": [0, 1], "c": 1, "alpha": 1, "iters": 300, "seed": 3,
            "diag_every": 100, "init": "gaussian", "init_scale": 2},
    "clt": {"lambdas": [0, 1], "c": 1, "alpha": 1, "iters": 300, "reps": 6,
            "seed": 4, "workers": 1},
    "rates": {"lambdas": [0, 1], "c": 1, "alpha": 1, "reps": 6, "seed": 4,
              "workers": 1, "p_list": [1, 2], "mu": 1,
              "checkpoints": [100, 200, 400], "epoch_size": 1},
}


@pytest.mark.parametrize("subcommand", sorted(INTEGRAL_CONFIGS))
def test_config_file_writes_what_flags_write(tmp_path, subcommand):
    # A config value takes its key's kind at load, so a file's 0 and 1 name
    # files and keys as the flags' 0.0 and 1.0 do, and both record one config.
    values = {**INTEGRAL_CONFIGS[subcommand], "problem": json.loads(QUAD)}
    flags = []
    for key, value in values.items():
        if key == "checkpoints":
            value = ",".join(map(str, value))
        for item in value if isinstance(value, list) else [value]:
            text = json.dumps(item) if isinstance(item, dict) else str(item)
            flags += [cli._CONFIG_KEYS[key].flag, text]
    base = tmp_path / "base.json"
    base.write_text('{"dump_replications": true}')
    full = tmp_path / "full.json"
    full.write_text(json.dumps({**values, "dump_replications": True}))
    written, configs = [], []
    for argv in (flags + ["--config", str(base)], ["--config", str(full)]):
        out = tmp_path / str(len(written))
        assert main([subcommand, *argv, "--out-dir", str(out)]) == 0
        run_dir = latest_output(out, subcommand)
        written.append({p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
                        if p.name != "metadata.json"})
        configs.append(json.loads((run_dir / "metadata.json").read_text())["config"])
    assert len(written[0]) >= 2 and written[0] == written[1]
    assert configs[0] == configs[1]


@pytest.mark.parametrize("alpha, predicted", [
    ("1", {1: -0.4, 2: -0.8}), ("0.75", {1: -0.75}),
])
def test_rates_writes_the_linearised_slope_prediction(tmp_path, capsys, alpha,
                                                       predicted):
    # rho = 1 on random_quadratic: -p*alpha for alpha < 1, -p*min(1, 2*c*rho)
    # for alpha = 1.
    argv = ["rates", "--problem", '{"type": "quadratic", "n": 50, "d": 5, "seed": 31}',
            "--c", "0.2", "--alpha", alpha, "--lambda", "0.5",
            "--checkpoints", "100,200,400", "--reps", "4", "--seed", "1",
            "--out-dir", str(tmp_path)]
    for p in predicted:
        argv += ["--p", str(p)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    estimates = read_summary(latest_output(tmp_path, "rates"))["estimates"]
    for p, slope in predicted.items():
        record = estimates[f"lambda=0.5,p={p}"]
        assert record["predicted_slope"] == pytest.approx(slope, abs=1e-12)
        assert record["slope_minus_predicted"] == record["slope"] - record["predicted_slope"]
        assert f"p={p}: slope={record['slope']:.3f} linearised-recursion " \
               f"prediction={slope:.3f}" in printed


@pytest.mark.parametrize("spec, options", [
    ({"type": "quadratic"}, {"scale": 1.0}),
    ({"scale": 2}, {"scale": 2.0}),
    ({"type": "logistic", "feature_scale": 1},
     {"feature_scale": 1.0, "parameter_scale": 0.3}),
])
def test_problem_spec_defaults_and_conversions(spec, options):
    spec = cli._check_value("problem", spec)
    described = cli.make_problem({"dataset": None, "problem": spec}).describe()
    assert {key: described[key] for key in ("N", "d", "seed")} == {
        "N": 50, "d": 5, "seed": 7}
    assert {key: described[key] for key in options} == options
    assert all(type(described[key]) is float for key in options)


def test_problem_options_declare_the_generator_defaults():
    for generator, options in cli._PROBLEM_TYPES.values():
        parameters = inspect.signature(generator).parameters
        assert {key: parameters[key].default for key in options} == {
            key: entry.default for key, entry in options.items()}


class _Reached(Exception):
    """Raised by the stand-ins for make_problem and cp_dp: the load accepted
    every value, and the command has begun its work."""


def _reached(*args, **kwargs):
    raise _Reached


# (subcommand, key, problem type): each key a subcommand reads, and each
# --problem key of each type, set through a spec of that type.
_CONFIG_TARGETS = [(command, key, None) for command, keys in cli._COMMAND_KEYS.items()
                   for key in keys] + [
    (command, key, family) for command, keys in cli._COMMAND_KEYS.items()
    if "problem" in keys for family, (_, options) in cli._PROBLEM_TYPES.items()
    for key in (*cli._SPEC_KEYS, *options)]

# Integers past the float range and non-finite floats, drawn as often as
# any other kind of value, alone or in a list.
_EDGE_NUMBERS = st.sampled_from([10**400, -10**400, math.nan, math.inf, -math.inf])
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
                | _EDGE_NUMBERS)
_JSON_VALUES = _EDGE_NUMBERS | _JSON_LEAVES | st.lists(_JSON_LEAVES, max_size=3) | (
    st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(), inner, max_size=3), max_leaves=5))


@settings(deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(_CONFIG_TARGETS), value=_JSON_VALUES)
def test_config_value_accepted_or_named(monkeypatch, target, value):
    """A value in a config file either passes the load, which reaches the
    command's first call into the library, or exits 2 with one error line
    naming its key or flag, nothing on stdout and no output directory."""
    command, key, family = target
    monkeypatch.setattr(cli, "make_problem", _reached)
    monkeypatch.setattr(cli, "cp_dp", _reached)
    if family is None:
        config, names = {key: value}, (key, cli._CONFIG_KEYS[key].flag)
    else:
        config, names = {"problem": {"type": family, key: value}}, (
            f"--problem key {key!r}",)
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), "--out-dir", str(out_dir)])
        except _Reached:
            return
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert any(name in err.getvalue() for name in names if name)
        assert not out_dir.exists()


@pytest.mark.parametrize("with_dataset", [False, True], ids=["spec", "dataset"])
def test_metadata_records_converted_spec_and_rule(tmp_path, with_dataset):
    # A partial spec and a label rule are recorded completed and normalized,
    # whether the spec came from a file or a flag, and a rerun from that
    # metadata.json writes every other file again, byte for byte.
    data = tmp_path / "tiny.csv"
    rng = np.random.default_rng(1)
    data.write_text("".join(
        f"{label},{rng.standard_normal()!r},{rng.standard_normal()!r}\n"
        for label in [-1, 1, 2] * 8))
    spec = {"type": "logistic", "n": 30.0, "d": 3, "feature_scale": 2}
    rule = {"negative": [-1, -1.0], "positive": [2, 1]}
    given = {"label_rule": rule, **({"dataset": str(data)} if with_dataset else {})}
    as_file = tmp_path / "file.json"
    as_file.write_text(json.dumps({**given, "problem": spec}))
    as_flag = tmp_path / "flag.json"
    as_flag.write_text(json.dumps(given))
    common = ["--lambda", "0.5", "--iters", "300", "--diag-every", "100"]
    runs = []
    for argv in (["--config", str(as_file)],
                 ["--config", str(as_flag), "--problem", json.dumps(spec)]):
        out = tmp_path / str(len(runs))
        assert main(["run", *argv, *common, "--out-dir", str(out)]) == 0
        runs.append(latest_output(out, "run"))
    configs = [json.loads((run / "metadata.json").read_text())["config"]
               for run in runs]
    assert configs[0] == configs[1]
    assert configs[0]["problem"] == {"type": "logistic", "n": 30, "d": 3, "seed": 7,
                                     "feature_scale": 2.0}
    assert configs[0]["label_rule"] == {"negative": [-1.0], "positive": [1.0, 2.0]}
    assert main(["run", "--config", str(runs[0] / "metadata.json"),
                 "--out-dir", str(tmp_path / "rerun")]) == 0
    runs.append(latest_output(tmp_path / "rerun", "run"))
    written = [{p.name: p.read_bytes() for p in sorted(run.iterdir())
                if p.name != "metadata.json"} for run in runs]
    assert len(written[0]) == 3 and written[0] == written[1] == written[2]


def test_rates_runs_one_ensemble_per_lambda(tmp_path, monkeypatch):
    calls = []
    inner = cli.run_ensemble

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", counted)
    argv = ["rates", "--problem", QUAD, "--lambda", "0", "--lambda", "0.5",
            "--checkpoints", "200,1000", "--reps", "8", "--seed", "2",
            "--out-dir", str(tmp_path)]
    assert main(argv + ["--p", "1", "--p", "2", "--p", "3"]) == 0
    assert calls == [0.0, 0.5]
    together = read_summary(latest_output(tmp_path, "rates"))["estimates"]
    assert main(argv + ["--p", "2"]) == 0
    alone = read_summary(latest_output(tmp_path, "rates"))["estimates"]
    assert alone["lambda=0.5,p=2"] == together["lambda=0.5,p=2"]


def run_python(script):
    """``script`` run by a fresh interpreter that imports this lambda_saga."""
    src = str(Path(lambda_saga.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_multiprocessing_out():
    # The process pool's modules load only when a pool starts.
    proc = run_python("import sys, lambda_saga; sys.exit('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_logistic_run_without_scipy(tmp_path):
    # The library needs numpy alone: with scipy unimportable, a logistic run
    # goes through main to exit 0.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lambda_saga.cli import main\n"
        f"sys.exit(main(['run', '--problem', {LOGIT!r}, '--iters', '2000',"
        f" '--out-dir', {str(tmp_path)!r}]))\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert (latest_output(tmp_path, "run") / "summary.json").exists()
