#!/usr/bin/env python3
"""Compares a fresh bench/campaign_throughput run against the committed
baseline.

Usage: build/bench/campaign_throughput > fresh.json
       python3 tools/check_campaign_perf.py fresh.json [BENCH_campaign.json]

Two kinds of gates:

Machine-independent (hard, every runner):
- schema is "advp.campaign_bench/1";
- identical: every lockstep trace in the identity slice is bit-identical
  to the AccSimulator::run_batch reference — the campaign determinism
  contract (lockstep batching must never change a result);
- lost == 0: every scenario index reported exactly once (cohort refill
  dropped nothing);
- shard_merge_identical: the 2-shard coordinator's merged aggregate is
  byte-identical to the in-process single-run aggregate;
- cohort_fill >= FILL_MIN: refill keeps lockstep cohorts mostly live —
  a fill near 1/cohort means the batch degenerated into stale rows.

Machine-keyed throughput floor (lockstep_vs_serial = lockstep cohort-8
scenarios/second over the 1-worker run_batch loop): one runner per worker
steps its own cohort, and stacking C lanes into one batch-C forward
spreads each layer's per-call cost over C frames — enough to use several
cores, which is the point of lockstep. A single-core runner cannot show
that win, so the floor follows the recorded `max_workers` per
perf_common.FLOOR_BY_WORKERS:

    >= 4 workers: 2.0        (the ISSUE's gate: lockstep >= 2x run_batch)
    2-3 workers:  1.2
    1 worker:     0.5        (non-collapse only)

On top, when fresh and baseline ran at the same multi-core width, the
fresh ratio must stay within TOLERANCE of baseline (single-worker ratios
are scheduler noise around 1.0 and are not baseline-compared).

Exit code 1 on any failure.
"""
import sys

import perf_common as pc

FILL_MIN = 0.50   # mean live fraction of lockstep batch rows


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 1
    fresh = pc.load(sys.argv[1], nest_key="campaign_throughput")
    base = pc.load(sys.argv[2] if len(sys.argv) > 2 else "BENCH_campaign.json",
                   nest_key="campaign_throughput")

    failures = []
    if fresh.get("schema") != "advp.campaign_bench/1":
        failures.append(f"schema: got {fresh.get('schema')!r}, "
                        "expected 'advp.campaign_bench/1'")

    if not fresh.get("identical", False):
        failures.append("lockstep traces are NOT bit-identical to the "
                        "run_batch reference")
    if fresh.get("lost", 1) != 0:
        failures.append(f"lost {fresh.get('lost')} scenario(s) — cohort "
                        "refill dropped work")
    if not fresh.get("shard_merge_identical", False):
        failures.append("2-shard merged aggregate differs from the "
                        "single-process aggregate")
    fill = fresh.get("cohort_fill", 0.0)
    if fill < FILL_MIN:
        failures.append(f"cohort_fill {fill:.3f} < {FILL_MIN} — lockstep "
                        "batches degenerated into stale rows")

    workers = int(fresh.get("max_workers", 1))
    base_workers = int(base.get("max_workers", 1))
    floor = pc.throughput_floor(workers)
    ratio = fresh.get("lockstep_vs_serial", 0.0)
    if ratio < floor:
        failures.append(f"lockstep_vs_serial {ratio:.3f} < {floor} floor "
                        f"for {workers} worker(s)")
    if workers >= 2 and workers == base_workers:
        rel_floor = pc.baseline_floor(base.get("lockstep_vs_serial", 0.0))
        if ratio < rel_floor:
            failures.append(f"lockstep_vs_serial {ratio:.3f} < "
                            f"baseline-relative floor {rel_floor:.3f}")

    print(f"  lockstep_vs_serial {ratio:.3f} (floor {floor}), "
          f"cohort_fill {fill:.3f}, lost {fresh.get('lost')}, "
          f"identical {fresh.get('identical')}, "
          f"shard_merge_identical {fresh.get('shard_merge_identical')}")

    return pc.report(failures,
                     f"\nOK: campaign perf gate ({workers} worker(s))",
                     header="FAIL: campaign perf gate")


if __name__ == "__main__":
    sys.exit(main())
