#!/usr/bin/env python3
"""Builds and runs the SpotVerse benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` crate beside this script in release mode (into
$CARGO_TARGET_DIR, default `.bench_build` under the repository root) and
runs one workload, or with `--workload all` each workload in its own
process, so peak memory is never carried over from an earlier workload.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Each run's record (host fingerprint,
seed, exact counts, seconds, spans) is written under `perfbench/out/`.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["fleet_poisson", "fleet_contended", "tournament"]


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE.parent / ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target / "release" / "perfbench"


def run_one(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(HERE / "out")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with code {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        print(run_one(binary, args.workload, args))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = json.loads(run_one(binary, workload, args))
        print()
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
