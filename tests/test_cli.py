import json
from pathlib import Path

import numpy as np
import pytest

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

    def test_negative_seed_named(self, tmp_path, capsys):
        code = main([
            "clt", "--problem", QUAD, "--iters", "10", "--reps", "2",
            "--seed", "-1", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "error: seed -1 must lie in [0, 2**128)" in capsys.readouterr().err

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
