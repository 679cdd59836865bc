#!/usr/bin/env python3
"""Gates bench/model_load's zero-warmup-load invariants.

Usage: build/bench/model_load > fresh_load.json
       python3 tools/check_load_perf.py fresh_load.json

Run the bench with tracing on (i.e. do NOT set ADVP_TRACE=0): the gates
read the obs pack counters, which are force-disabled by that setting.

Unlike check_gemm_perf.py there is no committed baseline: every gate here
is a machine-independent invariant over deterministic byte counts and
cache counters (wall-clock fields are informational only):

- adopted: the `.advp` panels must actually back the cache slots (the
  bench writes and reads the file on the same machine, so the panel
  geometry always matches).
- identical: the warm (adopted) forward must be bit-identical to the cold
  (lazy-packed) forward — adoption changes warm-up cost, never results.
- warm_pack_misses == 0 and warm_pack_hits > 0: the first forward after a
  warm load re-packs nothing and serves every weight operand from the
  adopted slots.
- cold_pack_misses > 0: the cold path really did pack lazily (guards
  against the bench accidentally warming both sides).
- warm_first_pack_bytes == steady_pack_bytes: the first warm forward
  stages exactly the per-call activation bytes a steady-state forward
  stages — zero weight pack/quantize work.
- cold_first_pack_bytes > steady_pack_bytes: the cold first forward paid
  the weight packing the warm load skipped.

Exit code 1 on any violation.
"""
import sys

import perf_common as pc


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    data = pc.load(sys.argv[1])

    failures = []
    tiers = data.get("tiers", [])
    if len(tiers) != 2:
        failures.append(f"expected 2 tiers, got {len(tiers)}")
    for tier in tiers:
        name = tier.get("name", "?")

        def fail(msg, name=name):
            failures.append(f"{name}: {msg}")

        if not tier.get("adopted", False):
            fail("packed panels were not adopted")
        if not tier.get("identical", False):
            fail("warm forward is not bit-identical to cold forward")
        if tier.get("warm_pack_misses", 1) != 0:
            fail(f"warm first forward re-packed "
                 f"({tier.get('warm_pack_misses')} slot misses)")
        if tier.get("warm_pack_hits", 0) <= 0:
            fail("warm first forward never hit an adopted slot")
        if tier.get("cold_pack_misses", 0) <= 0:
            fail("cold first forward packed nothing (bench not cold)")
        warm, steady = tier.get("warm_first_pack_bytes"), tier.get(
            "steady_pack_bytes")
        if warm != steady:
            fail(f"warm first forward staged {warm} bytes, steady state "
                 f"stages {steady} (load was not warm)")
        if tier.get("cold_first_pack_bytes", 0) <= steady:
            fail("cold first forward staged no more than steady state")

    return pc.report(
        failures,
        f"ok: {len(tiers)} tiers, zero warm-up pack work after .advp load",
        item_prefix="FAIL ")


if __name__ == "__main__":
    sys.exit(main())
