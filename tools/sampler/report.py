#!/usr/bin/env python3
"""Flat profile report for files written by the SIGPROF sampler.

    python3 tools/sampler/report.py /tmp/prof/run.* [--top 20] [--json]

Merges every given `<out>.<pid>` file (see tools/sampler/sampler.cpp) and
prints two flat tables of sample counts and shares: by the innermost inline
frame of each sampled address (the function whose code ran, inlined or not)
and by the outermost frame (the out-of-line function that contains it).
The outermost frame is the containing symbol in the object's symbol table;
the innermost is `addr2line -f -i -C`'s first frame whose source file is not
a compiler intrinsic header (`*intrin.h`), so an inlined `_mm512_fmadd_ps`
counts for the kernel that called it. It needs debug info (build with -g,
which does not change GCC's code) to differ from the outermost.
Objects without a symbol table fall back to their nearest dynamic symbol,
suffixed with the object's name. Samples in a stripped libc are classified
by code region: every implementation an ifunc resolver can select (the
`lea` targets in the resolver's code) starts a region named after that
resolver. So glibc's memset and memmove/memcpy variants, which the dynamic
symbols would call `__nss_database_lookup`, report as `libc memset` and
`libc memmove`. `--json` prints the same tables as one JSON object.
"""
import argparse
import bisect
import json
import os
import re
import subprocess
import sys
from collections import Counter

# Resolver names folded into one family in the report.
FAMILIES = {
    "memcpy": "memmove", "mempcpy": "memmove", "__memcpy_chk": "memmove",
    "__memmove_chk": "memmove", "__mempcpy_chk": "memmove",
    "memset": "memset", "__memset_chk": "memset",
}


def read_profile(path):
    """Returns (maps, pcs): maps as sorted (start, end, offset, object)
    tuples, pcs as {address: count}."""
    maps, pcs = [], Counter()
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line in ("maps", "pcs"):
                section = line
            elif line == "end maps":
                section = None
            elif section == "maps":
                parts = line.split(None, 5)
                if len(parts) < 5:
                    continue
                lo, hi = (int(v, 16) for v in parts[0].split("-"))
                obj = parts[5] if len(parts) == 6 else ""
                maps.append((lo, hi, int(parts[2], 16), obj))
            elif section == "pcs":
                pc, count = line.split()
                pcs[int(pc, 16)] += int(count)
    maps.sort()
    return maps, pcs


def has_symtab(obj):
    out = subprocess.run(["readelf", "-SW", obj], capture_output=True,
                         text=True).stdout
    return ".symtab" in out


def load_segments(obj):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD segment."""
    out = subprocess.run(["readelf", "-lW", obj], capture_output=True,
                         text=True).stdout
    segs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[2], 16),
                         int(parts[4], 16)))
    return segs


def file_offset_to_vaddr(segs, off):
    for p_off, p_vaddr, p_filesz in segs:
        if p_off <= off < p_off + p_filesz:
            return off - p_off + p_vaddr
    return off


def function_symbols(obj, dynamic):
    """Sorted (address, name, kind) of the object's defined functions, from
    its symbol table or, with `dynamic`, from its dynamic symbols. Functions
    the linker folded onto one address share an entry, named `a = b`."""
    cmd = ["nm", "-C", "--defined-only"] + (["-D"] if dynamic else []) + [obj]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    by_addr = {}
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in "TtWwi":
            names, kinds = by_addr.setdefault(int(parts[0], 16), ([], set()))
            name = parts[2].split("@")[0]
            if name not in names:
                names.append(name)
            kinds.add(parts[1])
    return sorted((addr, " = ".join(sorted(names)),
                   "i" if "i" in kinds else min(kinds))
                  for addr, (names, kinds) in by_addr.items())


def ifunc_regions(obj, syms):
    """Sorted (address, family) of every implementation an ifunc resolver
    in `obj` can return, read off the resolver's rip-relative leas."""
    addrs = [a for a, _, _ in syms]
    regions = {}
    for i, (addr, name, kind) in enumerate(syms):
        if kind != "i":
            continue
        end = next((a for a in addrs[i + 1:] if a > addr), addr + 4096)
        out = subprocess.run(
            ["objdump", "-d", "--no-show-raw-insn",
             f"--start-address={addr:#x}", f"--stop-address={end:#x}", obj],
            capture_output=True, text=True).stdout
        family = FAMILIES.get(name, name)
        for m in re.finditer(r"\blea\s.*#\s*([0-9a-f]+)\b", out):
            target = int(m.group(1), 16)
            # A target shared by memcpy and memmove keeps the first family
            # that claims it; both fold to "memmove".
            regions.setdefault(target, family)
    return sorted(regions.items())


def intrinsic_header(location):
    """True for an addr2line `file:line` inside a compiler intrinsic header
    (immintrin.h, avx512fintrin.h, ...)."""
    return os.path.basename(location.split(":", 1)[0]).endswith("intrin.h")


def symbolize(obj, vaddrs):
    """{vaddr: [frame, ...]} innermost first, via addr2line -a -f -i -C.
    Frames inlined from a compiler intrinsic header are left out."""
    if not vaddrs:
        return {}
    text = "\n".join(f"{a:#x}" for a in vaddrs) + "\n"
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
                         input=text, capture_output=True, text=True).stdout
    frames, cur = {}, None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x") and re.fullmatch(r"0x[0-9a-f]+", line):
            cur = int(line, 16)
            frames[cur] = []
            i += 1
            continue
        location = lines[i + 1] if i + 1 < len(lines) else ""
        if cur is not None and not intrinsic_header(location):
            frames[cur].append(line)  # function; the next line is file:line
        i += 2
    return frames


class Symbols:
    """Names the function containing each address of one object."""

    def __init__(self, obj):
        self.base = os.path.basename(obj)
        self.stripped = not has_symtab(obj)
        self.syms = function_symbols(obj, dynamic=self.stripped)
        self.addrs = [a for a, _, _ in self.syms]
        self.regions = []
        if self.stripped and self.base.startswith("libc.so"):
            self.regions = ifunc_regions(obj, self.syms)
        self.region_addrs = [a for a, _ in self.regions]

    def containing(self, vaddr):
        sym_i = bisect.bisect_right(self.addrs, vaddr) - 1
        reg_i = bisect.bisect_right(self.region_addrs, vaddr) - 1
        sym_at = self.addrs[sym_i] if sym_i >= 0 else -1
        reg_at = self.region_addrs[reg_i] if reg_i >= 0 else -1
        if reg_at >= 0 and reg_at >= sym_at:
            return f"libc {self.regions[reg_i][1]}"
        if sym_at < 0:
            return f"[{self.base}]"
        name = self.syms[sym_i][1]
        return f"{name} [{self.base}]" if self.stripped else name


def attribute(files):
    """Counters of samples by innermost and by outermost frame."""
    inner, outer = Counter(), Counter()
    per_obj = {}  # object -> Counter(vaddr)
    for path in files:
        maps, pcs = read_profile(path)
        starts = [m[0] for m in maps]
        for pc, count in pcs.items():
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                inner["[unmapped]"] += count
                outer["[unmapped]"] += count
                continue
            lo, _, off, obj = maps[i]
            if not obj.startswith("/"):
                label = obj or "[anonymous]"
                inner[label] += count
                outer[label] += count
                continue
            per_obj.setdefault(obj, Counter())[pc - lo + off] += count
    for obj, offsets in per_obj.items():
        if not os.path.exists(obj):
            label = f"[{os.path.basename(obj)}]"
            n = sum(offsets.values())
            inner[label] += n
            outer[label] += n
            continue
        segs = load_segments(obj)
        by_vaddr = Counter()
        for off, count in offsets.items():
            by_vaddr[file_offset_to_vaddr(segs, off)] += count
        symbols = Symbols(obj)
        # Without a symbol table addr2line names every address after the
        # nearest exported symbol, which in a stripped libc is wrong.
        frames = {} if symbols.stripped else symbolize(obj, sorted(by_vaddr))
        for vaddr, count in by_vaddr.items():
            name = symbols.containing(vaddr)
            inlined = [f for f in frames.get(vaddr, []) if f != "??"]
            inner[inlined[0] if inlined else name] += count
            outer[name] += count
    return inner, outer


def table(counter, total, top):
    return [{"name": name, "samples": n, "share": round(n / total, 4)}
            for name, n in counter.most_common(top)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    inner, outer = attribute(args.files)
    total = sum(inner.values())
    if total == 0:
        print("no samples", file=sys.stderr)
        return 1
    report = {"samples": total,
              "innermost": table(inner, total, args.top),
              "outermost": table(outer, total, args.top)}
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    print(f"{total} samples from {len(args.files)} file(s)")
    for key in ("innermost", "outermost"):
        print(f"\nby {key} frame:")
        for row in report[key]:
            print(f"{row['samples']:8d} {100 * row['share']:6.2f}%  "
                  f"{row['name']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
