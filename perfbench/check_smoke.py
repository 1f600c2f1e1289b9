"""Smoke test of the benchmark at tiny shapes (``--size smoke``).

    python3 perfbench/check_smoke.py
    python3 -m pytest -q perfbench/check_smoke.py

Runs every workload in both modes and checks the result line against
BENCHMARK.json, that the readable report names every metric README.md
defines with its unit, that the traced run's spans nest, and that the
benchmark refuses to run without the package's sources.  The file name keeps
it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

# Metrics printed in the readable report but absent from BENCHMARK.json;
# README.md says why.
REPORT_ONLY = {
    0: {"error_rate": "ratio", "wall_s.median": "s", "wall_s.max": "s"},
    1: {"datasets.load_s": "s", "asymptotics.reference_s": "s",
        "montecarlo.summarize_s": "s", "montecarlo.self_s": "s"},
}

# Workloads run.py knows but BENCHMARK.json leaves out; README.md says why.
UNGATED = ("run-logistic-scalar",)

sys.path.insert(0, str(BENCH))
from tracing import check_nesting  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload: str, trace: int) -> None:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], float), m["name"]

    report = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("workload", "repetitions")):
            report[parts[0]] = parts[2]
    expected = {m["name"]: m["unit"] for m in listed} | REPORT_ONLY[trace]
    for name, unit in expected.items():
        assert report.get(name) == unit, f"{workload}: {name} not reported in {unit}"

    record = json.loads(
        (BENCH / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    assert record["machine"]["nproc"] >= 1
    assert len({r["digest"] for r in record["repetitions"]}) == 1
    if trace:
        spans = record["spans"]
        assert spans, f"{workload}: no spans"
        assert check_nesting(spans) == [], check_nesting(spans)[:5]
        names = {s["name"] for s in spans}
        assert {"workload", "setup", "optimize", "write"} <= names


def test_workloads_emit_every_metric():
    for workload in [w["name"] for w in SPEC["workloads"]] + list(UNGATED):
        for trace in (0, 1):
            check_run(workload, trace)


def test_refuses_to_run_without_sources():
    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    test_workloads_emit_every_metric()
    test_refuses_to_run_without_sources()
    print("smoke test passed")
