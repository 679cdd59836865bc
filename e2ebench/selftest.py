#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

For every workload in BENCHMARK.json, at the smallest size (--seconds 1):
  1. a plain run exits 0, reports correct=true, and prints every
     end-to-end metric with its unit;
  2. a traced run with one deliberately wrong reference (--fault 1) prints
     every per-layer metric, counts the failure in `failed`, reports
     correct=false and exits non-zero.
Then it checks that the serve_open rate stated in BENCHMARK.json is the one
the binary runs, and that the benchmark refuses to run (non-zero exit, no
result line) in a directory holding only BENCHMARK.json and e2ebench/.
Exits 0 when every check passed.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT, runner=RUN):
    proc = subprocess.run(runner + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout


def names_units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    base = ["--seed", "11", "--seconds", "1"]

    for w in spec["workloads"]:
        name = w["name"]
        code, result, out = run(["--workload", name, "--trace", "0"] + base)
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and result["attempted"] >= 1,
              f"{name}: plain run passes its output checks")
        check(result is not None and names_units(result) == e2e,
              f"{name}: prints every end-to-end metric with its unit")
        if name == "serve_open":
            stated = re.search(r"(\d+) req/s", w["why"])
            ran = re.search(r"Poisson requests at (\d+) req/s", out)
            check(stated is not None and ran is not None
                  and stated.group(1) == ran.group(1),
                  "serve_open: BENCHMARK.json states the rate the binary runs")

        code, result, _ = run(["--workload", name, "--trace", "1",
                               "--fault", "1"] + base)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{name}: a wrong reference counts as a failure and fails the run")
        check(result is not None and names_units(result) == layer,
              f"{name}: traced run prints every per-layer metric with its unit")

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", spec["workloads"][0]["name"],
                           "--trace", "0"] + base, cwd=bare,
                          runner=[sys.executable, "e2ebench/run.py"])
    check(code != 0 and result is None,
          "refuses to run without the library sources")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
