#!/usr/bin/env python3
"""Reruns the paper-table binaries and compares their stdout with the
EXPERIMENTS.md appendix, byte for byte.

Usage: python3 tools/check_tables.py   (after a Release build into build/)

Every binary with a block in the appendix ("### <label> — `bench/<name>`"
followed by a fenced block, as finalize_experiments.py writes it) runs in
appendix order, inside one fresh temporary directory, so the model cache
(./advp_cache/) starts cold, as it did when the appendix was recorded.
Two things vary by design and are left out of the comparison, on both
sides:

- `[harness] training …` progress lines: only the first binary that needs
  a base model trains it, so where they appear depends on run order and
  cache state.
- the DiffPIR ablation's `ms / image` column, which is wall clock: its
  cells are masked.

Every other byte must match. The tables carry the bits of the toolchain
that recorded them, like the recorded-hash test suites: another compiler
or libm can move a cell. Prints a diff per mismatching binary. Exit code
1 on any mismatch or failed binary, 2 when the appendix or a binary is
missing.
"""
import difflib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BLOCK = re.compile(r"^### [^\n]*`bench/(\w+)`\n\n```\n(.*?)\n```$",
                   re.MULTILINE | re.DOTALL)
ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BENCH_DIR = ROOT / "build" / "bench"
PROGRESS = "[harness] training "
WALL_CLOCK_HEADER = "ms / image"


def appendix_blocks(text):
    """(binary, recorded stdout) pairs of the appendix, in order."""
    marker = text.find("\n## Appendix: measured outputs")
    if marker < 0:
        return []
    return BLOCK.findall(text[marker:])


def normalize(text):
    """Drops progress lines and masks the wall-clock column's cells."""
    out = []
    col = None  # index of the wall-clock cell in the current table's rows
    for line in text.strip().split("\n"):
        if line.startswith(PROGRESS):
            continue
        if line.startswith("|"):
            cells = line.split("|")
            names = [c.strip() for c in cells]
            if col is None and WALL_CLOCK_HEADER in names:
                col = names.index(WALL_CLOCK_HEADER)
            elif col is not None and col < len(cells):
                cells[col] = "#" * len(cells[col])
                line = "|".join(cells)
        elif not line.startswith("+"):
            col = None
        out.append(line)
    return out


def main():
    blocks = appendix_blocks(EXPERIMENTS.read_text(encoding="utf-8"))
    if not blocks:
        print(f"error: no appendix blocks in {EXPERIMENTS}", file=sys.stderr)
        return 2
    missing = [b for b, _ in blocks if not (BENCH_DIR / b).is_file()]
    if missing:
        print(f"error: not built in {BENCH_DIR}: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    failures = 0
    with tempfile.TemporaryDirectory(prefix="advp_tables_") as work:
        for binary, recorded in blocks:
            run = subprocess.run([str(BENCH_DIR / binary)], cwd=work,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if run.returncode != 0:
                print(f"FAIL {binary}: exit code {run.returncode}", flush=True)
                failures += 1
                continue
            want, got = normalize(recorded), normalize(run.stdout)
            if want == got:
                print(f"ok   {binary}", flush=True)
                continue
            print(f"FAIL {binary}: stdout differs from the appendix")
            sys.stdout.writelines(
                line + "\n" for line in difflib.unified_diff(
                    want, got, "appendix", "fresh", lineterm=""))
            sys.stdout.flush()
            failures += 1

    if failures:
        print(f"{failures} of {len(blocks)} table binaries differ")
        return 1
    print(f"all {len(blocks)} table binaries match the appendix")
    return 0


if __name__ == "__main__":
    sys.exit(main())
