#!/usr/bin/env python3
"""The repository benchmark: seeded campaign sweeps of the reseeding flow.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench (CMakeLists.txt in
this directory, which builds the library from the checkout's sources)
into .bench_build/perfbench, runs one invocation of the workload and
prints, as the last stdout line, one JSON object with the keys
correct / attempted / failed / metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see BENCHMARK.json).
A human-readable table goes to stderr; the full record (host context,
raw samples, spans) is kept in .bench_build/results/ for fold.py.

`--workload all` runs every workload in turn and prints one table.
Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the benchmark could not run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
sys.path.insert(0, HERE)
import fold  # noqa: E402

WORKLOADS = ["reseed_sweep", "atpg_many"]
TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "campaign", "runner.h")):
        fail(f"no fbist sources under {ROOT}; run from a repository checkout")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, cwd=ROOT, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def run_binary(workload, seed, seconds, trace, extra=()):
    """One invocation; returns (exit code, raw document or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {TIMEOUT_S} s")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        doc = None
    return proc.returncode, doc


def end_to_end(doc):
    return {
        "sweep_s": (statistics.median(doc["sweep_ns"]) / 1e9, "s"),
        "cpu_s": (statistics.median(doc["cpu_us"]) / 1e6, "s"),
        "setup_s": (statistics.median(doc["setup_ns"]) / 1e9, "s"),
        "peak_rss_mb": (doc["peak_rss_kib"] / 1024, "MB"),
        "triplets": (doc["triplets"], "count"),
        "test_length": (doc["test_length"], "patterns"),
        "coverage_pct": (doc["coverage_pct"], "%"),
    }


def measure(workload, seed, seconds, trace):
    """Runs one invocation and returns its result object; exits on failure."""
    code, doc = run_binary(workload, seed, seconds, trace)
    # A process that died (crash, abort at exit) or produced no complete
    # document is a failed run, whatever it printed before.
    if doc is None or "sweep_ns" not in doc or code not in (0, 1):
        for e in (doc or {}).get("errors", []):
            print(f"perfbench: {e}", file=sys.stderr)
        fail(f"{workload} seed {seed}: benchmark process exited with {code}")
    metrics = fold.layer_metrics(doc) if trace else end_to_end(doc)
    record = dict(doc, metrics={k: {"value": v, "unit": u}
                                for k, (v, u) in metrics.items()})
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-s{seed}-trace{trace}.json"), "w") as f:
        json.dump(record, f)
    host = doc["host"]
    print(f"# {workload} seed {seed} trace {trace}: jobs {doc['jobs']} of "
          f"nproc {host['nproc']}, {host['cpu_model']}, load {host['loadavg']}, "
          f"simd {host['simd_tier']}, {host['build_type']}, "
          f"observability {host['observability']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload:>14} {name:<30} {value:>16.6g} {unit}", file=sys.stderr)
    result = {"correct": bool(doc["correct"]) and code == 0,
              "attempted": doc["attempted"], "failed": doc["failed"],
              "metrics": record["metrics"]}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    if args.workload == "all":
        results = {w: measure(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
