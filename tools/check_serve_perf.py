#!/usr/bin/env python3
"""Compares a fresh bench/serve_throughput run against the committed baseline.

Usage: build/bench/serve_throughput > fresh.json
       python3 tools/check_serve_perf.py fresh.json [BENCH_serve.json]

Two kinds of gates:

Machine-independent (hard, every runner):
- schema is "advp.serve_bench/1" and every baseline config is present;
- identical: every batched response bit-identical to the serial per-frame
  reference — the determinism contract under concurrency;
- lost == 0: every future resolved (shutdown drained, nothing dropped);
- coalesce_ratio >= COALESCE_MIN: 8 closed-loop clients against a
  batch-8/200us server must actually coalesce (mean batch size), or the
  dynamic batcher has silently degenerated into per-request forwards;
- server_b1_rps >= ROUTER_MIN * serial_rps: the router's per-request
  overhead (queue, future, worker handoff) stays bounded.

Machine-keyed throughput floor (batched_vs_serial = batched_rps over the
single-thread serial loop): coalescing turns eight batch-1 forwards into
one batch-8 forward whose conv items fan out over the pool (a batch-1
forward runs on one thread: none of its GEMMs is large enough to split)
— enough parallel work to use several cores, which is the whole point of
dynamic batching. A single-core runner cannot show that win, so the floor
follows the recorded `max_workers` per perf_common.FLOOR_BY_WORKERS:

    >= 4 workers: 2.0        (the ISSUE's gate: batched >= 2x serial)
    2-3 workers:  1.2
    1 worker:     0.5        (non-collapse only)

On top, when fresh and baseline ran at the same multi-core width, the
fresh ratio must stay within TOLERANCE of baseline (single-worker ratios
are scheduler noise around 1.0 and are not baseline-compared).

Exit code 1 on any failure.
"""
import sys

import perf_common as pc

COALESCE_MIN = 2.0    # mean batch size under closed-loop 8-client load
ROUTER_MIN = 0.30     # batch-1 server must keep >= 30% of direct rps


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 1
    fresh = pc.load(sys.argv[1], nest_key="serve_throughput")
    base = pc.load(sys.argv[2] if len(sys.argv) > 2 else "BENCH_serve.json",
                   nest_key="serve_throughput")

    failures = []
    if fresh.get("schema") != "advp.serve_bench/1":
        failures.append(f"schema: got {fresh.get('schema')!r}, "
                        "expected 'advp.serve_bench/1'")

    fresh_cfgs = {c["name"]: c for c in fresh.get("configs", [])}
    base_cfgs = {c["name"]: c for c in base.get("configs", [])}
    workers = int(fresh.get("max_workers", 1))
    base_workers = int(base.get("max_workers", 1))
    floor = pc.throughput_floor(workers)

    for name, b in base_cfgs.items():
        c = fresh_cfgs.get(name)
        if c is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        if not c.get("identical", False):
            failures.append(f"{name}: batched results are NOT bit-identical "
                            "to the serial reference")
        if c.get("lost", 1) != 0:
            failures.append(f"{name}: lost {c.get('lost')} responses")
        coalesce = c.get("coalesce_ratio", 0.0)
        if coalesce < COALESCE_MIN:
            failures.append(f"{name}: coalesce_ratio {coalesce:.2f} "
                            f"< {COALESCE_MIN} — batching degenerated")
        serial = c.get("serial_rps", 0.0)
        b1 = c.get("server_b1_rps", 0.0)
        if serial <= 0 or b1 < ROUTER_MIN * serial:
            failures.append(f"{name}: router overhead too high — "
                            f"server_b1_rps {b1:.1f} < {ROUTER_MIN} * "
                            f"serial_rps {serial:.1f}")
        ratio = c.get("batched_vs_serial", 0.0)
        if ratio < floor:
            failures.append(f"{name}: batched_vs_serial {ratio:.3f} < "
                            f"{floor} floor for {workers} worker(s)")
        if workers >= 2 and workers == base_workers:
            rel_floor = pc.baseline_floor(b.get("batched_vs_serial", 0.0))
            if ratio < rel_floor:
                failures.append(f"{name}: batched_vs_serial {ratio:.3f} "
                                f"< baseline-relative floor {rel_floor:.3f}")
        print(f"  {name}: batched_vs_serial {ratio:.3f} (floor {floor}), "
              f"coalesce {coalesce:.2f}, lost {c.get('lost')}, "
              f"identical {c.get('identical')}")

    return pc.report(failures,
                     f"\nOK: serve perf gate ({len(base_cfgs)} configs, "
                     f"{workers} worker(s))",
                     header="FAIL: serve perf gate")


if __name__ == "__main__":
    sys.exit(main())
