"""Alternating benchmark pairs of two commits, summarised into one JSON record.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH.json

Exports each commit with ``git archive`` into its own checkout under a
temporary directory, then, for every workload BENCHMARK.json lists, runs ten
pairs of ``perfbench/run.py --trace 0``, once on each checkout per pair, with
the same seed on both sides of a pair.  Pairs alternate which side runs first, so
that a slow phase of the host lands on both sides alike.  The record holds
every run (its metrics, correctness, failures and output digest) and, per
workload and end-to-end metric, each side's median and quartiles, the win
counts (ties count for neither), whether the change is worse than the parent
by more than the metric's bound, and whether the gain rule holds: the change
wins at least nine tenths of the pairs run, the medians differ by more than
the parent's interquartile range, and the change has no more failed
operations than the parent.  Medians, quartiles and wins count only the
pairs in which both runs are correct.  The benchmark settings (command,
``run_seconds``, workloads, metrics, bounds) are read from the parent's
BENCHMARK.json, so both commits run the same benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` to ``dest``; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(archive), commit],
                   cwd=ROOT, check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()
    return commit


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One ``--trace 0`` run: the result line, plus the exit code and digest."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr[-2000:]}
    digest = re.search(r"digest (\S+)", proc.stdout)
    return {
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest.group(1) if digest else None,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        **({"error": result["error"]} if "error" in result else {}),
    }


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list, run: int, more_failures: bool, metric: dict) -> dict:
    """``pairs``: the complete pairs of ``run`` pairs run; ``more_failures``:
    the change failed more operations than the parent."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["parent"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    sign = 1.0 if lower else -1.0  # positive: the change is better
    margins = [sign * (a - b) for a, b in zip(parent, change)]
    wins = sum(m > 0 for m in margins)
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "change_wins": wins,
        "parent_wins": sum(m < 0 for m in margins),
        "pairs": run,
        "worse_than_bound": -gain > metric["bound"] * abs(p["median"]),
        "gain_rule_met": wins >= 0.9 * run and gain > p["iqr"] and not more_failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair i runs with seed first-seed + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), path)
                   for side, path in checkouts.items()}
        spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
        record = {
            "parent": commits["parent"],
            "change": commits["change"],
            "machine": {"platform": platform.platform(),
                        "python": platform.python_version(),
                        "cpus": len(os.sched_getaffinity(0))},
            "command": spec["command"],
            "run_seconds": spec["run_seconds"],
            "workloads": {},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], spec["command"], workload,
                                          seed, spec["run_seconds"])
                    print(f"{workload} pair {i + 1}/{PAIRS} seed {seed} {side}: "
                          + "  ".join(f"{k}={v:.4g}"
                                      for k, v in pair[side]["metrics"].items()),
                          flush=True)
                pairs.append(pair)
            complete = [p for p in pairs
                        if p["parent"]["correct"] and p["change"]["correct"]]
            failed = {side: sum(p[side]["failed"] for p in pairs)
                      for side in ("parent", "change")}
            record["workloads"][workload] = {
                "pairs": pairs,
                "complete_pairs": len(complete),
                "failed": failed,
                "digests_equal": all(p["parent"]["digest"] == p["change"]["digest"]
                                     for p in pairs),
                "metrics": {m["name"]: summarise(complete, PAIRS,
                                                 failed["change"] > failed["parent"], m)
                            for m in spec["end_to_end"]} if complete else {},
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
