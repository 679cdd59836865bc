#!/usr/bin/env python3
"""End-to-end benchmark: build, run one workload, check and print its result.

Builds the benchmark binary from the checkout's sources (into
.bench_build/e2ebench), runs one workload in its own process, checks the
result against BENCHMARK.json and prints it. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload attack_cells --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 15 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run. `--workload all` runs every workload, each in its
own process, and ends with one combined JSON line whose metric names are
prefixed with the workload. The exit code is 0 only when every output
check passed; a build or set-up failure exits non-zero without a result.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; output goes to stderr.
    A lock keeps concurrent invocations from building over each other."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def check_result(result, expected):
    """Returns a list of problems with one workload's JSON result."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("no op attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, "
                            f"expected {expected[name]!r}")
    return problems


def run_workload(name, args, expected):
    """Runs one workload; returns (exit code, parsed result or None)."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp", f"{name}-{os.getpid()}")
    state = os.path.join(ROOT, ".bench_build", "state")
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--state", state]
    if args.fault:
        cmd += ["--fault", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{name}: no result within {RUN_TIMEOUT_S} s")
        return 4, None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"{name}: exited {proc.returncode} without a result")
        return proc.returncode or 2, None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    problems = check_result(result, expected)
    if problems:
        for p in problems:
            log(f"{name}: {p}")
        return 3, None
    if result["correct"] != (result["failed"] == 0) or \
            result["correct"] != (proc.returncode == 0):
        log(f"{name}: correct/failed/exit code disagree")
        return 3, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fault", type=int, choices=(0, 1), default=0,
                        help="corrupt one reference check (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    if not build():
        return 2

    if args.workload != "all":
        code, result = run_workload(args.workload, args, expected)
        if result is None:
            return code
        print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        print(f"# ---- {name}")
        code, result = run_workload(name, args, expected)
        worst = max(worst, code)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
