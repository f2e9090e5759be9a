#!/usr/bin/env python3
"""Determinism self-check of the benchmark's per-layer counts.

    python3 perfbench/selfcheck.py [--workload W|all] [--seed N] [--seconds S]

Runs ``perfbench/run.py --trace 1`` twice per workload with the same
seed and requires every per-layer metric that is not a host time (unit
ms, us, ns or s) to be exactly equal between the two runs, so a later
change can cite those counts as exact. Exits 1 on any difference or
incorrect run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_UNITS = {"ms", "us", "ns", "s"}
WORKLOADS = ["apps_sweep", "cas_contention", "service_mix", "multichip_lossy"]


def traced_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"selfcheck: {workload} run failed (exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] not in TIME_UNITS]
    bad = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        diffs = [name for name in counts
                 if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        for name in diffs:
            print(f"{workload}: {name} differs: {first['metrics'][name]['value']} "
                  f"vs {second['metrics'][name]['value']}")
        print(f"{workload}: {len(counts) - len(diffs)}/{len(counts)} per-layer counts "
              f"repeat exactly (seed {args.seed})")
        bad += len(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
