#!/usr/bin/env python3
"""Compares a fresh bench/micro_gemm run against the committed baseline.

Usage: build/bench/micro_gemm > fresh.json
       python3 tools/check_gemm_perf.py fresh.json [BENCH_gemm.json]

Three sections are checked, all on *ratios* — absolute GFLOP/s and
milliseconds vary wildly across CI runners and are never compared:

- "shapes": the blocked kernel's speedup over the seed i-k-j matmul
  (measured in the same process on the same machine). A shape fails when
  its fresh speedup drops more than TOLERANCE below baseline — generous on
  purpose, this is a smoke check against large kernel regressions, not a
  microbenchmark gate.
- "fused": the fused bias+activation epilogue vs the separate
  gemm + bias-scatter + activation passes. fused_speedup must stay at or
  above max(FUSED_MIN, baseline * (1 - TOLERANCE)) — the fused path must
  never silently decay into a slowdown.
- "warm_cache": pack-once weight-cache reuse. pack_bytes_reduction (the
  fraction of per-call packing bytes eliminated on warm calls) is a
  deterministic byte count, so it gets a fixed floor PACK_REDUCTION_MIN
  rather than a baseline-relative one.

One section gates the quantized inference tier:

- "int8": speedup (warm fp32 ms over warm int8 ms, single thread,
  calibrated activation scale) must clear INT8_SPEEDUP_MIN on every
  committed shape, baseline-relative on top.

Two sections gate the convolution fast paths:

- "plan": whole-model inference through a compiled nn::ExecPlan vs the
  eager walk (Sequential::forward under an InferenceModeScope, the plan's
  bit-identity oracle), both warm and single-threaded. plan_speedup must
  clear PLAN_SPEEDUP_MIN on every committed model.
- "conv": implicit-GEMM convolution (pack_B gathers patches straight
  from the NCHW image) vs a staged reference in the bench (its own
  im2col plus one gemm with the same GemmExtra), and the weight
  gradient's product through a transposed PackSource vs im2col plus
  gemm with trans_b (the conv_dw_* rows), both warm and single-threaded.
  conv_implicit_speedup must clear CONV_IMPLICIT_MIN on every committed
  conv shape, baseline-relative on top.

Two sections gate the elementwise kernels:

- "sigmoid": the sigmoid() array kernel vs the seed's scalar expression
  on libm's expf, single thread, over a fixed seeded 1M-element array
  with special values. `speedup` is an in-run ratio with a floor keyed on
  the fresh run's backend (BACKEND_FLOORS): only AVX-512 builds
  have a vector route, elsewhere the std::fma scalar must merely not
  collapse. Not baseline-relative.
- "gaussian": the gaussian_fill() array kernel vs the seed's scalar
  Box-Muller loop (Rng::gaussian per element), single thread, over a fixed
  seeded 1M-element fill (gaussian_1m); and the engine words behind it,
  2^20 words through Mt19937_64::fill vs one operator() call per word on
  the same seed (mt_words_1m). Same in-run, backend-keyed floor scheme
  (BACKEND_FLOORS) for both rows; elsewhere the kernel runs libm per
  element and must merely not collapse. The engine has no intrinsics:
  its bulk draw is plain loops the compiler vectorizes, so the
  mt_words_1m floor is what catches a fill() that stops being one
  (single draws in a loop, or loops a compiler no longer vectorizes).

Also asserts `identical: true` for every entry: the blocked kernel, the
fused epilogue, the warm-cache path, the int8 tier (SIMD vs portable
micro-kernel), the compiled plan (vs the eager walk),
the implicit-im2col packer (vs the staged column matrix), the sigmoid
kernel (vs the libm expression), the Gaussian kernel (vs the scalar loop,
engine position included) and the bulk engine draw (vs single draws,
engine position included) must all stay bit-identical to their reference
passes, on any runner. Exit code 1 on any failure.
"""
import sys

import perf_common as pc

TOLERANCE = pc.TOLERANCE
FUSED_MIN = 1.15  # fused epilogue must beat separate passes by >= 15%
PACK_REDUCTION_MIN = 0.80  # warm calls must skip >= 80% of packing bytes
INT8_SPEEDUP_MIN = 1.50  # calibrated int8 must beat warm fp32 by >= 50%
PLAN_SPEEDUP_MIN = 1.10  # compiled plan must beat the eager walk by >= 10%
CONV_IMPLICIT_MIN = 1.15  # implicit im2col must beat staged by >= 15%
# Elementwise kernels vs the scalar loops they replace: (floor by backend,
# floor elsewhere), one floor per section. The avx512 floors hold the
# intrinsics routes (sigmoid 13.4x and gaussian 8.0x recorded) and the
# compiler-vectorized bulk engine draw (5.1x); on other backends these
# must merely not collapse.
BACKEND_FLOORS = {
    "sigmoid": ({"avx512": 4.0}, 0.7),
    "gaussian": ({"avx512": 2.5}, 0.7),
}

SECTIONS = ("shapes", "fused", "warm_cache", "int8", "plan", "conv",
            "sigmoid", "gaussian")


def load_sections(path):
    root = pc.load(path, nest_key="micro_gemm")
    sections = {
        key: {s["name"]: s for s in root.get(key, [])}
        for key in SECTIONS
    }
    return sections, root.get("backend", "")


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh, fresh_backend = load_sections(sys.argv[1])
    base, _ = load_sections(
        sys.argv[2] if len(sys.argv) > 2 else "BENCH_gemm.json")
    if not fresh["shapes"] or not base["shapes"]:
        print("error: empty shape list in input", file=sys.stderr)
        return 2

    failures = 0
    for section, ratio_key, fixed_min, what in (
        ("shapes", "speedup", None, "blocked kernel"),
        ("fused", "fused_speedup", FUSED_MIN, "fused epilogue"),
        ("warm_cache", "pack_bytes_reduction", PACK_REDUCTION_MIN, "warm cache"),
        ("int8", "speedup", INT8_SPEEDUP_MIN, "int8 tier"),
        ("plan", "plan_speedup", PLAN_SPEEDUP_MIN, "compiled plan"),
        ("conv", "conv_implicit_speedup", CONV_IMPLICIT_MIN, "implicit im2col"),
        ("sigmoid", "speedup", None, "sigmoid kernel"),
        ("gaussian", "speedup", None, "gaussian kernel"),
    ):
        for name, b in sorted(base[section].items()):
            f = fresh[section].get(name)
            if f is None:
                print(f"FAIL {name}: missing from fresh run")
                failures += 1
                continue
            if pc.check_identical(name, f, what):
                failures += 1
                continue
            if section == "warm_cache":
                # Byte counts are deterministic; the floor is absolute.
                floor = fixed_min
            elif section in BACKEND_FLOORS:
                floor = pc.backend_floor(fresh_backend,
                                         *BACKEND_FLOORS[section])
            else:
                floor = pc.baseline_floor(b[ratio_key], fixed_min)
            failures += pc.check_ratio(name, f[ratio_key], floor, ratio_key)

    if failures:
        print(f"{failures} entry(ies) regressed beyond tolerance")
        return 1
    print("perf smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
