#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload apps_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one report
    python3 perfbench/run.py --pin                   # regenerate perfbench/pins.json

Run from the root of a checkout. The first run configures and builds
the tier-1 ``wisync_core`` library plus the benchmark binary into
``.bench_build/perfbench`` (Release) and refuses a library that was not
built optimised. The binary runs the workload in one process on one
worker thread and checks every simulated result (see
perfbench/src/main.cc); this script records the host and build context,
prints every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics (and writes the spans to
``.bench_build/records``). The exit code is 0 only when every output
was correct.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
BINARY = BUILD / "wisync_perfbench"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ["apps_sweep", "cas_contention", "service_mix", "multichip_lossy"]
# Digests are pinned for the default seed and one held-out seed.
PIN_SEEDS = [1, 1009]
# failed_share is 0 on a correct run, so it is printed with the other
# end-to-end metrics but is not a BENCHMARK.json metric: the result
# line carries it as "failed" out of "attempted".
EXTRA_METRICS = [("failed_share", "share")]
BINARY_TIMEOUT_S = 170
# setup_s is the median of this many cold set-ups, each in a fresh
# process: the timed run's own plus SETUP_SAMPLES - 1 set-up-only runs.
SETUP_SAMPLES = 7


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources at {ROOT} (need CMakeLists.txt and src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "wisync_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    info = json.loads(subprocess.run([str(BINARY), "--info"], capture_output=True,
                                     text=True, check=True).stdout)
    flags = info["core_flags"].split()
    optimised = (info["optimized"] and info["build_type"] in ("Release", "RelWithDebInfo")
                 and any(f in flags for f in ("-O2", "-O3"))
                 and not any(f in flags for f in ("-O0", "-Og")))
    if not optimised:
        raise BenchError(f"refusing a non-optimised wisync_core build: {info}")
    return info


def source_digest():
    """sha256 over the program's sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in [ROOT / "CMakeLists.txt"] + files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def clean_env():
    # The simulator's WISYNC_* knobs (reuse off, fast paths off, cache
    # sizes) would change what is measured: run with none of them.
    return {k: v for k, v in os.environ.items() if not k.startswith("WISYNC_")}


def run_binary(args):
    cmd = [str(BINARY)] + args
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=clean_env(),
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {BINARY_TIMEOUT_S} s: {' '.join(cmd)}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"exit {done.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1]), done.returncode


def spec_metrics(trace):
    spec = json.loads(SPEC.read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def run_workload(workload, seed, seconds, trace, build_info):
    records = OUT / "records"
    tmp = OUT / "tmp"
    records.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "loadavg_before": list(os.getloadavg()),
        "compiler": build_info["compiler"], "build_type": build_info["build_type"],
        "core_flags": build_info["core_flags"], "optimised": build_info["optimized"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--pins", str(PINS), "--tmp-dir", str(tmp)]
    if trace:
        args += ["--trace-out", str(records / f"{stem}.spans.json")]
    started = time.time()
    setups, setup_ok, setup_failures = [], True, []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            cold, cold_code = run_binary(["--setup-only"] + args)
            setups.append(cold["run"]["setup_s"])
            setup_ok = setup_ok and cold_code == 0 and cold["untimed_failed"] == 0
            setup_failures += cold["failures"]
    out, code = run_binary(args)
    context["loadavg_after"] = list(os.getloadavg())
    context["run_wall_s"] = time.time() - started

    produced = out["run"]["metrics"]
    if not trace:
        setups.append(produced["setup_s"])
        out["run"]["setup_runs_s"] = setups
        produced["setup_s"] = statistics.median(setups)
    wanted = spec_metrics(trace)
    if not trace:
        wanted += EXTRA_METRICS
    missing = [name for name, _ in wanted if name not in produced]
    if missing:
        raise BenchError(f"{workload}: binary did not report {missing}")
    correct = (code == 0 and setup_ok and out["failed"] == 0
               and out["untimed_failed"] == 0)
    record = {"context": context, "correct": correct, "binary": out}
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {workload} seed={seed} trace={trace} "
          f"({'pinned digests' if out['pinned'] else 'no pinned digests for this seed'})")
    for name, unit in wanted:
        print(f"  {name:36s} {produced[name]:>18.6g} {unit}")
    if not trace:
        tail = out["run"]["tail"]
        print(f"  op_ms_tail is p{tail['percentile']:.4g} of {tail['samples']} ops; "
              f"setup_s is the median of {len(setups)} cold set-ups")
    else:
        cost = out["run"]["overhead"]
        print(f"  tracing overhead: {produced['trace.overhead_cpu_s']:.4f} s CPU = "
              f"{produced['trace.spans']} spans x {cost['span_ns']:.0f} ns + codec "
              f"{cost['codec_s']:.4f} s + stats reads {cost['stats_read_s']:.4f} s "
              f"({100 * cost['share_of_traced_cpu']:.2f}% of the traced loop's "
              f"{out['run']['traced_cpu_s']:.2f} s)")
    print(f"  context: nproc={context['nproc']} load={context['loadavg_before'][0]:.2f}"
          f"->{context['loadavg_after'][0]:.2f} {context['compiler']} "
          f"{context['build_type']} commit={context['git_commit'] or 'n/a'} "
          f"src={context['source_sha256'][:12]}")
    for failure in setup_failures + out["failures"]:
        print(f"  FAILED: {failure}")
    metrics = {name: {"value": produced[name], "unit": unit}
               for name, unit in spec_metrics(trace)}
    return {"correct": correct, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def regenerate_pins():
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in PIN_SEEDS:
            out, _ = run_binary(["--pin", "--workload", workload, "--seed", str(seed)])
            pins[workload][str(seed)] = out["digests"]
            log(f"pinned {len(out['digests'])} digests for {workload} seed {seed}")
    PINS.write_text(json.dumps(pins, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=PIN_SEEDS[0])
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite perfbench/pins.json for the pinned seeds")
    args = parser.parse_args()
    try:
        info = build()
        if args.pin:
            regenerate_pins()
            return 0
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = [run_workload(w, args.seed, args.seconds, args.trace, info)
                   for w in names]
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    if len(results) == 1:
        result = results[0]
    else:
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {f"{w}.{k}": v for w, r in zip(names, results)
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
