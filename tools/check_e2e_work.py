#!/usr/bin/env python3
"""Gates e2ebench's counted work against the committed BENCH_work.json.

Usage: python3 e2ebench/run.py --workload attack_cells --seed 7 \\
           --seconds 5 --trace 1 > attack_cells.txt
       python3 e2ebench/run.py --workload defense_train --seed 7 \\
           --seconds 5 --trace 1 > defense_train.txt
       python3 tools/check_e2e_work.py attack_cells.txt defense_train.txt \\
           [--baseline BENCH_work.json]

A traced e2ebench run at a fixed seed and --seconds runs a fixed list of
ops on a pool pinned to two workers, so the work it counts repeats exactly
from run to run, and results are bit-identical across GEMM backends. Each
counter below is a ceiling: a fresh run fails when it reads above the
baseline. A counter that falls passes; re-record the baseline to keep the
gain.

- tensor.gemm_gflop_per_op: GEMM FLOPs (2*m*n*k per call).
- tensor.im2col_staged_bytes_per_op: bytes of staged im2col columns.
- attacks.oracle_calls_per_op: model forward+backward calls the attacks
  spend.
- core.scratch_grows_per_op: steady-state heap growth of the scratch
  arenas (0: warm ops allocate nothing).
- core.pool_dispatches_per_op: multi-worker parallel_for hand-offs. The
  pool is pinned at two workers, so which products split into column
  stripes (those of at least 2 * 2^21 MACs) and which loops fan their
  items out is fixed by the op list, not by the machine.
- tensor.pack_bytes_per_op: bytes written into packed GEMM panels. The
  panel width follows the GEMM register tile (8x32 on avx512, 6x16
  otherwise), so this one is compared only when the run's `# meta gemm=`
  backend matches the baseline's.

Exit code 1 on any violation.
"""
import argparse
import json
import os
import re
import sys

import perf_common as pc

GATED = [
    "tensor.gemm_gflop_per_op",
    "tensor.im2col_staged_bytes_per_op",
    "attacks.oracle_calls_per_op",
    "core.scratch_grows_per_op",
    "core.pool_dispatches_per_op",
]
BACKEND_GATED = ["tensor.pack_bytes_per_op"]


def parse_run(path, workloads):
    """Returns (workload, gemm backend, metrics) of one run.py output."""
    workload = backend = metrics = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# meta "):
                m = re.search(r"\bgemm=(\S+)", line)
                backend = m.group(1) if m else None
            elif line.startswith("# ") and workload is None:
                head = line[2:].split(":", 1)[0]
                if head in workloads:
                    workload = head
            elif line.startswith("{"):
                metrics = json.loads(line)["metrics"]
    return workload, backend, metrics


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="+", help="run.py outputs (--trace 1)")
    parser.add_argument("--baseline",
                        default=os.path.join(here, "..", "BENCH_work.json"))
    args = parser.parse_args()
    base = pc.load(args.baseline)
    workloads = base["workloads"]

    failures = []
    seen = set()
    for path in args.runs:
        workload, backend, metrics = parse_run(path, workloads)
        if workload is None or metrics is None:
            failures.append(f"{path}: no traced e2ebench result of a "
                            f"baselined workload ({', '.join(workloads)})")
            continue
        seen.add(workload)
        names = list(GATED)
        if backend == base["gemm"]:
            names += BACKEND_GATED
        else:
            print(f"skip {workload}: {', '.join(BACKEND_GATED)} (gemm "
                  f"{backend}, baseline {base['gemm']})")
        for name in names:
            if name not in metrics:
                failures.append(f"{workload}: {name} missing (not a traced "
                                f"run?)")
                continue
            # Both sides hold e2ebench's ten-digit print of the counter.
            ceiling = workloads[workload][name]
            fresh = metrics[name]["value"]
            if pc.check_ceiling(f"{workload} {name}", fresh, ceiling,
                                "per op"):
                failures.append(f"{workload} {name}")
    for workload in sorted(set(workloads) - seen):
        failures.append(f"{workload}: no run given")
    return pc.report(failures, f"ok: counted work of {len(seen)} workloads "
                     "at or below the baseline",
                     header="Counted-work gate failed:")


if __name__ == "__main__":
    sys.exit(main())
