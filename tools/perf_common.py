"""Shared helpers for the tools/check_*_perf.py gate scripts.

Every bench emits its JSON object at top level while the committed
BENCH_*.json baseline nests the same object under one section key;
load() handles both spellings. The rest covers the idioms each gate
script used to re-implement: the machine-keyed worker floor table,
baseline-relative ratio floors, per-entry ok/FAIL ratio lines, and the
accumulate-failures-then-report exit protocol, and backend-keyed floors.
"""
import json

# Fresh ratios may drop up to this fraction below the committed baseline
# before a gate fails — generous on purpose; these are smoke checks
# against large regressions, not microbenchmark gates.
TOLERANCE = 0.30

# Machine-keyed throughput floors: (min_workers, floor), first match wins.
# Multi-core runners must show the real batching win; a single-core runner
# can only prove non-collapse.
FLOOR_BY_WORKERS = [(4, 2.0), (2, 1.2), (1, 0.5)]


def load(path, nest_key=None):
    """Load a bench JSON file, unwrapping the baseline's nest key if present."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return data.get(nest_key, data) if nest_key else data


def throughput_floor(workers, table=FLOOR_BY_WORKERS):
    """Machine-keyed floor for a throughput ratio at the given worker count."""
    for min_workers, floor in table:
        if workers >= min_workers:
            return floor
    return 0.0


def backend_floor(backend, table, default):
    """In-run ratio floor keyed on the backend a bench run recorded."""
    return table.get(backend, default)


def baseline_floor(base_val, fixed_min=None, tolerance=TOLERANCE):
    """Baseline-relative floor, optionally clamped from below by a fixed min."""
    floor = base_val * (1.0 - tolerance)
    if fixed_min is not None:
        floor = max(fixed_min, floor)
    return floor


def check_identical(name, entry, what):
    """Returns 1 (and prints FAIL) when the entry's `identical` flag is unset."""
    if not entry.get("identical", False):
        print(f"FAIL {name}: {what} not bit-identical to reference")
        return 1
    return 0


def check_ratio(name, fresh_val, floor, label):
    """Prints the ok/FAIL line for a floor gate; returns 1 on FAIL."""
    status = "ok" if fresh_val >= floor else "FAIL"
    print(f"{status:4} {name}: {label} {fresh_val:.2f} (floor {floor:.2f})")
    return 1 if status == "FAIL" else 0


def check_ceiling(name, fresh_val, ceiling, label):
    """Prints the ok/FAIL line for a ceiling gate; returns 1 on FAIL."""
    status = "ok" if fresh_val <= ceiling else "FAIL"
    print(f"{status:4} {name}: {label} {fresh_val:.3f} (ceiling {ceiling:.2f})")
    return 1 if status == "FAIL" else 0


def report(failures, ok_msg, header=None, item_prefix="  - "):
    """Print the accumulated failure list (or ok_msg); return the exit code."""
    if failures:
        if header:
            print(f"\n{header}")
        for failure in failures:
            print(f"{item_prefix}{failure}")
        return 1
    print(ok_msg)
    return 0
