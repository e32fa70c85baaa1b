#!/usr/bin/env python3
"""Benchmark of the FACS simulator: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload overload --seed 1 --seconds 20 --trace 0

Builds the `perfbench` binary (release) from source, runs the workload,
and prints a metric table followed, as the last line of standard output,
by one JSON object:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, measured over several fresh processes that split the
`--seconds` budget; with `--trace 1` they are the per-layer metrics of
one traced process. `--workload all` runs every workload in turn. See
README.md in this directory for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh processes per end-to-end run: each pays set-up once (one
# `setup_s` sample) and runs the workload for its share of the budget.
PROCESSES = 5
# Seconds one measuring process may take beyond its budget before it is
# stopped and the run fails.
PROCESS_GRACE_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    out = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked",
            "--manifest-path", str(HERE / "Cargo.toml"), "--message-format=json",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    if out.returncode != 0:
        fail(f"cargo build failed with code {out.returncode}")
    for line in out.stdout.splitlines():
        message = json.loads(line)
        if message.get("reason") == "compiler-artifact" and message.get("executable"):
            if message["target"]["name"] == "perfbench":
                return message["executable"]
    fail("cargo build produced no perfbench executable")


def tags(workers):
    """Host and build facts every result is tagged with."""
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        except OSError:
            return "unknown"
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unknown"

    return {
        "cores": os.cpu_count(),
        "workers": workers,
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "rustc": first_line(["rustc", "--version"]),
        "profile": "release (lto=fat, codegen-units=1)",
    }


def measure(binary, mode, workload, seed, budget_s):
    """Runs one measuring process and returns its JSON report."""
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed), "--budget-s", str(budget_s)]
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            timeout=budget_s + PROCESS_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish in time")
    if out.returncode != 0 or not out.stdout.strip():
        fail(f"{' '.join(cmd)} exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end(binary, workload, seed, seconds):
    reports = [measure(binary, "run", workload, seed, seconds / PROCESSES) for _ in range(PROCESSES)]
    runs = [run for report in reports for run in report["runs"]]
    passed = [run for run in runs if run["ok"]]
    values = {
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "events_per_s": statistics.median(run["events"] / run["wall_s"] for run in passed) if passed else 0.0,
        "cpu_s": statistics.median(run["cpu_s"] for run in runs),
        "peak_rss_mb": statistics.median(report["peak_rss_kb"] / 1024 for report in reports),
        "setup_s": statistics.median(report["setup_s"] for report in reports),
        "passed_runs": len(passed) / len(runs),
    }
    errors = [error for report in reports for error in report["errors"]]
    return values, len(runs), len(runs) - len(passed), errors, reports[0]["workers"]


def per_layer(binary, workload, seed, seconds):
    report = measure(binary, "trace", workload, seed, seconds)
    return report["metrics"], report["attempted"], report["failed"], report["errors"], report["workers"]


def run_workload(binary, spec, workload, seed, seconds, trace):
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values, attempted, failed, errors, workers = (per_layer if trace else end_to_end)(
        binary, workload, seed, seconds)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail(f"the binary did not report {missing}")
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace} tags={json.dumps(tags(workers))}")
    width = max(len(m["name"]) for m in listed)
    for m in listed:
        print(f"  {m['name']:<{width}}  {values[m['name']]:>18.6f}  {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing; run from the repository root")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    for workload in names if args.workload == "all" else [args.workload]:
        run_workload(binary, spec, workload, args.seed, args.seconds, args.trace == 1)


if __name__ == "__main__":
    main()
