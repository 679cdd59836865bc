// GFLOP/s of the blocked GEMM kernel layer versus the seed i-k-j matmul,
// across the shapes the models actually produce (conv im2col products for
// TinyYolo/DistNet at batch 1 and training batch sizes, the dense heads,
// and the 256^3 reference square). Emits a JSON object on stdout:
//
//   {"workers": 1, "backend": "avx2", "shapes": [
//     {"name": "gemm_256", "m": 256, "k": 256, "n": 256,
//      "seed_gflops": ..., "blocked_gflops": ..., "speedup": ...,
//      "parallel_gflops": ..., "identical": true}, ...]}
//
// `identical` is a bitwise comparison of the blocked kernel's output
// against the seed loop — the determinism contract (same FMA per element
// in ascending k order) makes them agree exactly, not just approximately.
//
// tools/check_gemm_perf.py compares the speedup column against the
// committed BENCH_gemm.json baseline in CI (GFLOP/s is hardware-bound;
// the blocked-vs-seed ratio is the portable signal).
//
// Two more sections cover the inference fast path, both gated on
// intra-run ratios (also machine-portable):
//  - "fused": gemm with the bias+activation epilogue versus the replaced
//    pipeline (gemm into a staging buffer, bias scatter, activation pass)
//    — `fused_speedup` must clear the 1.15x floor in CI;
//  - "warm_cache": a Linear-like shape with the weight operand served
//    from a pack-once cache slot — `pack_bytes_reduction` (warm-call
//    gemm_pack_bytes over cold) must clear 0.80.
//
// The "int8" section measures the quantized inference tier against the
// fp32 fast path on the same warm-weight-cache footing: `speedup` (warm
// fp32 ms over warm int8 ms, single thread) must clear 1.5x in CI on every
// committed shape, and `identical` asserts the tier's output is
// bit-identical between the SIMD and portable micro-kernels — the
// determinism contract extends to int8.
//
// The "plan" section times whole-model inference through a compiled
// nn::ExecPlan against the eager walk, the plan's bit-identity oracle —
// `plan_speedup` must clear 1.10x in CI and `identical` asserts equal
// bits.
//
// The "conv" section measures the implicit-GEMM convolution (pack_B
// gathers patches straight from the NCHW image) against a staged
// reference, the bench's own im2col plus one gemm() with the same
// GemmExtra, on the same warm fused footing, and the weight gradient's
// product (a transposed PackSource) against im2col plus gemm() with
// trans_b — `conv_implicit_speedup` must clear 1.15x in CI and
// `identical` asserts the two agree bit-for-bit.
//
// The "sigmoid" section times the seed's scalar sigmoid expression on
// libm's expf against the sigmoid() array kernel (tensor/vmath.h) over a
// fixed seeded 1M-element array with special values spliced in, in ns per
// element. `identical` asserts the kernel reproduces the expression's
// bits; `speedup` has an in-run floor keyed on the backend.
//
// The "gaussian" section times the seed's scalar Box–Muller loop
// (Rng::gaussian per element) against the gaussian_fill() array kernel
// over a fixed seeded 1M-element fill, in ns per element, and the engine
// words behind it: 2^20 words drawn one operator() call at a time against
// Mt19937_64::fill in gaussian_fill's chunks, in ns per word. `identical`
// asserts equal bits and an equal engine position afterwards; `speedup`
// has an in-run floor keyed on the backend.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "core/scratch.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "nn/plan.h"
#include "nn/precision.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/vmath.h"

namespace {

using namespace advp;

using Clock = std::chrono::steady_clock;

// The seed repository's sigmoid, on libm's expf: the sigmoid section's
// baseline and bit-identity reference.
float seed_sigmoid(float x) {
  if (x >= 0.f) {
    const float e = std::exp(-x);
    return 1.f / (1.f + e);
  }
  const float e = std::exp(x);
  return e / (1.f + e);
}

// The seed repository's matmul inner loop (i-k-j with the zero skip),
// kept verbatim as the performance baseline.
void seed_matmul(const float* ap, const float* bp, float* cp, int m, int k,
                 int n) {
  std::fill(cp, cp + static_cast<std::size_t>(m) * n, 0.f);
  for (int i = 0; i < m; ++i) {
    const float* arow = ap + static_cast<std::size_t>(i) * k;
    float* crow = cp + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.f) continue;
      const float* brow = bp + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// The staged lowering the conv rows time against: image x [cin, h, w] to
// its im2col column matrix, row p (tap c, ky, kx) at cols[p*cols_ld ...],
// zeros outside the image.
void stage_im2col(const float* x, int cin, int h, int w, const Conv2dSpec& s,
                  float* cols, std::size_t cols_ld) {
  const int ho = s.out_h(h), wo = s.out_w(w);
  for (int p = 0; p < cin * s.kernel * s.kernel; ++p) {
    const int c = p / (s.kernel * s.kernel);
    const int ky = (p / s.kernel) % s.kernel;
    const int kx = p % s.kernel;
    float* out_row = cols + static_cast<std::size_t>(p) * cols_ld;
    for (int oy = 0; oy < ho; ++oy) {
      const int iy = oy * s.stride + ky - s.pad;
      for (int ox = 0; ox < wo; ++ox) {
        const int ix = ox * s.stride + kx - s.pad;
        float v = 0.f;
        if (iy >= 0 && iy < h && ix >= 0 && ix < w)
          v = x[(static_cast<std::size_t>(c) * h + iy) * w + ix];
        out_row[oy * wo + ox] = v;
      }
    }
  }
}

template <typename Fn>
double best_ms(int reps, Fn fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct ShapeSpec {
  const char* name;
  int m, k, n;
};

}  // namespace

int main() {
  bench::BenchRun run("micro_gemm");
  run.manifest().set("backend", std::string(gemm_backend()));
  run.manifest().set("workers",
                     static_cast<std::uint64_t>(hardware_workers()));

  // Conv im2col products: M = Cout, K = Cin*3*3, N = batch*Ho*Wo (32x32
  // inputs, pooled between stages). Dense heads and the 256^3 reference.
  const std::vector<ShapeSpec> shapes = {
      {"yolo_conv1_b1", 16, 27, 1024},   {"yolo_conv1_b8", 16, 27, 8192},
      {"yolo_conv2_b8", 32, 144, 2048},  {"yolo_conv3_b8", 64, 288, 512},
      {"distnet_conv2_b16", 24, 108, 4096},
      {"distnet_linear_b64", 64, 768, 48},
      {"gemm_256", 256, 256, 256},       {"gemm_384", 384, 384, 384},
  };

  std::printf("{\n  \"workers\": %zu,\n  \"backend\": \"%s\",\n",
              hardware_workers(), gemm_backend());
  std::printf("  \"shapes\": [\n");
  Rng rng(42);
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    const ShapeSpec& s = shapes[si];
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor c_seed({s.m, s.n}), c_blk({s.m, s.n});
    const double macs = static_cast<double>(s.m) * s.k * s.n;
    // Size the repetition count for a roughly constant per-shape budget.
    const int reps = std::clamp(static_cast<int>(2e8 / macs), 3, 60);

    double seed_ms, blk_ms, par_ms;
    {
      ScopedMaxWorkers one(1);
      seed_ms = best_ms(
          reps, [&] { seed_matmul(a.data(), b.data(), c_seed.data(), s.m,
                                  s.k, s.n); });
      blk_ms = best_ms(reps, [&] {
        gemm(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n, false,
             c_blk.data(), s.n);
      });
    }
    par_ms = best_ms(reps, [&] {
      gemm(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n, false,
           c_blk.data(), s.n);
    });

    bool identical = true;
    for (std::size_t i = 0; i < c_seed.numel() && identical; ++i)
      identical = c_seed[i] == c_blk[i];

    const double seed_gflops = 2.0 * macs / (seed_ms * 1e6);
    const double blk_gflops = 2.0 * macs / (blk_ms * 1e6);
    const double par_gflops = 2.0 * macs / (par_ms * 1e6);
    std::printf(
        "    {\"name\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d, "
        "\"seed_gflops\": %.2f, \"blocked_gflops\": %.2f, "
        "\"speedup\": %.2f, \"parallel_gflops\": %.2f, "
        "\"identical\": %s}%s\n",
        s.name, s.m, s.k, s.n, seed_gflops, blk_gflops,
        blk_gflops / seed_gflops, par_gflops, identical ? "true" : "false",
        si + 1 < shapes.size() ? "," : "");
    run.manifest().set(std::string(s.name) + "_gflops", blk_gflops);
    run.manifest().set(std::string(s.name) + "_speedup",
                       blk_gflops / seed_gflops);
  }

  // ---- fused epilogue vs separate passes -----------------------------------
  // Unfused mirrors the replaced conv path exactly: GEMM into a staging
  // buffer, bias scatter into the output, activation mapped into a fresh
  // buffer (what conv2d_forward + ReLU::forward did before fusion).
  std::printf("  ],\n  \"fused\": [\n");
  const std::vector<ShapeSpec> fused_shapes = {
      {"fused_yolo_conv1_relu", 16, 27, 8192},
      {"fused_distnet_conv1_relu", 12, 27, 16384},
  };
  for (std::size_t si = 0; si < fused_shapes.size(); ++si) {
    const ShapeSpec& s = fused_shapes[si];
    const std::size_t mn = static_cast<std::size_t>(s.m) * s.n;
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor bias = Tensor::randn({s.m}, rng);
    Tensor c_unf({s.m, s.n}), act_unf({s.m, s.n}), c_fus({s.m, s.n});
    GemmEpilogue ep;
    ep.bias = bias.data();
    ep.act = Act::kReluLeaky;
    GemmExtra extra;
    extra.epilogue = &ep;
    const double macs = static_cast<double>(s.m) * s.k * s.n;
    const int reps = std::clamp(static_cast<int>(2e8 / macs), 5, 60);
    const float slope = 0.f;
    double unf_ms, fus_ms;
    {
      ScopedMaxWorkers one(1);
      unf_ms = best_ms(reps, [&] {
        ScratchArena& arena = ScratchArena::local();
        ScratchArena::Frame frame(arena);
        float* ybuf = arena.alloc_floats(mn);
        gemm(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n, false,
             ybuf, s.n);
        for (int i = 0; i < s.m; ++i) {
          const float bv = bias[static_cast<std::size_t>(i)];
          const float* src = ybuf + static_cast<std::size_t>(i) * s.n;
          float* dst = c_unf.data() + static_cast<std::size_t>(i) * s.n;
          for (int j = 0; j < s.n; ++j) dst[j] = src[j] + bv;
        }
        const float* src = c_unf.data();
        float* dst = act_unf.data();
        for (std::size_t idx = 0; idx < mn; ++idx) {
          const float v = src[idx];
          dst[idx] = v > 0.f ? v : slope * v;
        }
      });
      fus_ms = best_ms(reps, [&] {
        gemm(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n, false,
             c_fus.data(), s.n, /*accumulate=*/false, extra);
      });
    }
    bool identical = true;
    for (std::size_t i = 0; i < mn && identical; ++i)
      identical = act_unf[i] == c_fus[i];
    const double fused_speedup = unf_ms / fus_ms;
    std::printf(
        "    {\"name\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d, "
        "\"unfused_ms\": %.4f, \"fused_ms\": %.4f, "
        "\"fused_speedup\": %.2f, \"identical\": %s}%s\n",
        s.name, s.m, s.k, s.n, unf_ms, fus_ms, fused_speedup,
        identical ? "true" : "false",
        si + 1 < fused_shapes.size() ? "," : "");
    run.manifest().set(std::string(s.name) + "_speedup", fused_speedup);
  }

  // ---- pack-once weight cache ----------------------------------------------
  // Linear-like shapes (weights are the wide B operand) with a cache slot:
  // warm calls repack only the activations, so the staged pack bytes per
  // call collapse by the B-share of the total.
  std::printf("  ],\n  \"warm_cache\": [\n");
  const std::vector<ShapeSpec> warm_shapes = {
      {"warm_distnet_linear_b2", 2, 3456, 48},
      {"warm_distnet_linear_b1", 1, 3456, 48},
  };
  for (std::size_t si = 0; si < warm_shapes.size(); ++si) {
    const ShapeSpec& s = warm_shapes[si];
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.n, s.k}, rng);  // stored [out,in], like W
    Tensor c_cold({s.m, s.n}), c_warm({s.m, s.n});
    GemmCacheSlot slot;
    GemmExtra extra;
    extra.b_cache = &slot;
    auto call = [&](float* c) {
      gemm(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.k,
           /*trans_b=*/true, c, s.n, /*accumulate=*/false, extra);
    };
    const double macs = static_cast<double>(s.m) * s.k * s.n;
    const int reps = std::clamp(static_cast<int>(2e8 / macs), 20, 400);
    double cold_ms, warm_ms;
    std::uint64_t cold_bytes, warm_bytes;
    {
      ScopedMaxWorkers one(1);
      std::uint64_t mark = obs::counter_value(obs::Counter::kGemmPackBytes);
      slot.invalidate();
      call(c_cold.data());
      cold_bytes = obs::counter_value(obs::Counter::kGemmPackBytes) - mark;
      mark = obs::counter_value(obs::Counter::kGemmPackBytes);
      call(c_warm.data());
      warm_bytes = obs::counter_value(obs::Counter::kGemmPackBytes) - mark;
      cold_ms = best_ms(reps, [&] {
        slot.invalidate();  // force a repack: every timed call is cold
        call(c_cold.data());
      });
      warm_ms = best_ms(reps, [&] { call(c_warm.data()); });
    }
    bool identical = true;
    for (std::size_t i = 0; i < c_cold.numel() && identical; ++i)
      identical = c_cold[i] == c_warm[i];
    const double reduction =
        cold_bytes > 0
            ? 1.0 - static_cast<double>(warm_bytes) / cold_bytes
            : 0.0;
    std::printf(
        "    {\"name\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d, "
        "\"cold_ms\": %.4f, \"warm_ms\": %.4f, \"warm_speedup\": %.2f, "
        "\"cold_pack_bytes\": %llu, \"warm_pack_bytes\": %llu, "
        "\"pack_bytes_reduction\": %.3f, \"identical\": %s}%s\n",
        s.name, s.m, s.k, s.n, cold_ms, warm_ms, cold_ms / warm_ms,
        static_cast<unsigned long long>(cold_bytes),
        static_cast<unsigned long long>(warm_bytes), reduction,
        identical ? "true" : "false",
        si + 1 < warm_shapes.size() ? "," : "");
    run.manifest().set(std::string(s.name) + "_pack_reduction", reduction);
  }

  // ---- int8 inference tier -------------------------------------------------
  // Weights in A (conv layout, M = Cout) served from a warm cache slot in
  // every timed call — the steady inference state, so the comparison is
  // compute + activation staging, not weight (re)quantization. The int8
  // activation scale is fixed (absmax / 127, what a calibration pass
  // records) — the deployment path.
  const std::vector<ShapeSpec> lp_shapes = {
      {"conv_head_b32", 64, 1152, 512},
      {"gemm_256", 256, 256, 256},
      {"gemm_384", 384, 384, 384},
  };
  {
    const GemmPrecision tier = GemmPrecision::kInt8;
    const char* tname = precision_name(tier);
    std::printf("  ],\n  \"%s\": [\n", tname);
    for (std::size_t si = 0; si < lp_shapes.size(); ++si) {
      const ShapeSpec& s = lp_shapes[si];
      Tensor w = Tensor::randn({s.m, s.k}, rng);
      Tensor x = Tensor::randn({s.k, s.n}, rng);
      Tensor c_ref({s.m, s.n}), c_lp({s.m, s.n}), c_port({s.m, s.n});
      const double macs = static_cast<double>(s.m) * s.k * s.n;
      const int reps = std::clamp(static_cast<int>(2e8 / macs), 5, 60);
      const float act_scale = x.abs_max() / 127.f;  // calibrated scale

      // One timing closure per tier, each with its own cache slot (packed
      // panel layouts are backend- and precision-specific, so slots are
      // never shared across tiers or kernel selections).
      auto timed = [&](GemmPrecision p, float* c, std::uint64_t* cold_pack) {
        GemmCacheSlot slot;
        GemmExtra extra;
        extra.a_cache = &slot;
        extra.precision = p;
        extra.act_scale = act_scale;
        auto call = [&] {
          gemm(s.m, s.n, s.k, w.data(), s.k, false, x.data(), s.n, false, c,
               s.n, /*accumulate=*/false, extra);
        };
        std::uint64_t mark = obs::counter_value(obs::Counter::kGemmPackBytes);
        call();  // cold: quantizes/packs the weight panel + stages x
        if (cold_pack)
          *cold_pack = obs::counter_value(obs::Counter::kGemmPackBytes) - mark;
        return best_ms(reps, call);
      };

      double fp32_ms, lp_ms;
      std::uint64_t fp32_pack, lp_pack;
      bool identical;
      {
        ScopedMaxWorkers one(1);
        fp32_ms = timed(GemmPrecision::kFp32, c_ref.data(), &fp32_pack);
        lp_ms = timed(tier, c_lp.data(), &lp_pack);
        gemm_detail::force_portable(true);
        timed(tier, c_port.data(), nullptr);
        gemm_detail::force_portable(false);
        identical = true;
        for (std::size_t i = 0; i < c_lp.numel() && identical; ++i)
          identical = c_lp[i] == c_port[i];
      }
      float max_abs_err = 0.f;
      for (std::size_t i = 0; i < c_ref.numel(); ++i)
        max_abs_err =
            std::max(max_abs_err, std::fabs(c_lp[i] - c_ref[i]));
      const double pack_ratio =
          fp32_pack > 0 ? static_cast<double>(lp_pack) / fp32_pack : 0.0;
      const std::string name = std::string(tname) + "_" + s.name;
      std::printf(
          "    {\"name\": \"%s\", \"m\": %d, \"k\": %d, \"n\": %d, "
          "\"fp32_ms\": %.4f, \"%s_ms\": %.4f, \"speedup\": %.2f, "
          "\"max_abs_err\": %.4g, \"fp32_pack_bytes\": %llu, "
          "\"%s_pack_bytes\": %llu, \"pack_ratio\": %.3f, "
          "\"identical\": %s}%s\n",
          name.c_str(), s.m, s.k, s.n, fp32_ms, tname, lp_ms,
          fp32_ms / lp_ms, max_abs_err,
          static_cast<unsigned long long>(fp32_pack), tname,
          static_cast<unsigned long long>(lp_pack), pack_ratio,
          identical ? "true" : "false",
          si + 1 < lp_shapes.size() ? "," : "");
      run.manifest().set(name + "_speedup", fp32_ms / lp_ms);
      run.manifest().set(name + "_pack_ratio", pack_ratio);
    }
  }
  // ---- compiled execution plans --------------------------------------------
  // Whole-model inference through nn::ExecPlan versus the eager walk
  // (Sequential::forward under an InferenceModeScope), single-threaded and
  // fully warm on both sides. `plan_speedup` (eager_ms / plan_ms) is the
  // CI gate (>= 1.10), and `identical` asserts the compiled plan
  // reproduces the walk bit-for-bit.
  std::printf("  ],\n  \"plan\": [\n");
  {
    Rng mrng(1234);
    models::TinyYolo yolo({}, mrng);
    models::DistNet dist({}, mrng);
    struct PlanCase {
      const char* name;
      bool is_yolo;
      int batch;
    };
    const std::vector<PlanCase> cases = {
        {"plan_tiny_yolo_b1", true, 1},
        {"plan_tiny_yolo_b8", true, 8},
        {"plan_distnet_b8", false, 8},
    };
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      const PlanCase& pc = cases[ci];
      Rng xr(77 + static_cast<std::uint64_t>(ci));
      const Tensor x =
          pc.is_yolo ? Tensor::rand({pc.batch, 3, 48, 48}, xr)
                     : Tensor::rand({pc.batch, 3, 48, 96}, xr);
      const int reps = 40;
      ScopedMaxWorkers one(1);
      nn::InferenceModeScope inference;
      Tensor eager;
      auto walk = [&]() {
        eager = pc.is_yolo ? yolo.head().forward(
                                 yolo.backbone().forward(x, false), false)
                           : dist.net().forward(x, /*train=*/false);
      };
      walk();
      const double eager_ms = best_ms(reps, walk);

      nn::ExecPlan* plan = pc.is_yolo ? yolo.compile_plan(pc.batch)
                                      : dist.compile_plan(pc.batch);
      const Tensor* planned = nullptr;
      double plan_ms = 0.0;
      if (plan) {
        planned = &plan->execute(x);
        plan_ms = best_ms(reps, [&] { planned = &plan->execute(x); });
      }
      bool identical = planned && planned->shape() == eager.shape();
      for (std::size_t i = 0; identical && i < eager.numel(); ++i)
        identical = (*planned)[i] == eager[i];
      const double speedup = plan ? eager_ms / plan_ms : 0.0;

      std::printf(
          "    {\"name\": \"%s\", \"batch\": %d, \"eager_ms\": %.4f, "
          "\"plan_ms\": %.4f, \"plan_speedup\": %.2f, "
          "\"geometry\": \"%s\", \"identical\": %s}%s\n",
          pc.name, pc.batch, eager_ms, plan_ms, speedup,
          plan ? plan->geometry_string().c_str() : "",
          identical ? "true" : "false", ci + 1 < cases.size() ? "," : "");
      run.manifest().set(std::string(pc.name) + "_speedup", speedup);
    }
  }
  // ---- implicit-GEMM convolution -------------------------------------------
  // The conv forward's per-item loop (conv2d_forward_into: pack_B gathers
  // patches straight from the NCHW image) versus a staged reference that
  // lowers the batch into one wide column matrix with stage_im2col, runs
  // one gemm() with the same GemmExtra (weight slot, tier, scale,
  // bias+ReLU epilogue) and copies the items out. Both warm and
  // single-threaded with their own weight-cache slot, on every precision
  // tier. Shapes where the column matrix dominates traffic (small Cin*K*K
  // against wide N). `conv_implicit_speedup` (staged_ms / implicit_ms) is
  // the CI gate (>= 1.15); `identical` asserts the gather order preserves
  // the exact FMA sequence, so the two agree bit-for-bit.
  std::printf("  ],\n  \"conv\": [\n");
  {
    struct ConvCase {
      const char* name;
      int batch, cin, cout, h, w, kernel, stride, pad;
      GemmPrecision prec;
    };
    const std::vector<ConvCase> cases = {
        {"conv_yolo1_k3s1_b4", 4, 3, 16, 48, 48, 3, 1, 1,
         GemmPrecision::kFp32},
        {"conv_mid_k3s1_b1", 1, 16, 32, 64, 64, 3, 1, 1,
         GemmPrecision::kFp32},
        {"conv_int8_k3s1_b4", 4, 16, 32, 64, 64, 3, 1, 1,
         GemmPrecision::kInt8},
    };
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      const ConvCase& cc = cases[ci];
      Conv2dSpec spec;
      spec.in_channels = cc.cin;
      spec.out_channels = cc.cout;
      spec.kernel = cc.kernel;
      spec.stride = cc.stride;
      spec.pad = cc.pad;
      Rng xr(910 + static_cast<std::uint64_t>(ci));
      const Tensor x = Tensor::randn({cc.batch, cc.cin, cc.h, cc.w}, xr);
      const Tensor w =
          Tensor::randn({cc.cout, cc.cin, cc.kernel, cc.kernel}, xr);
      const Tensor bias = Tensor::randn({cc.cout}, xr);
      const int ho = spec.out_h(cc.h), wo = spec.out_w(cc.w);
      const int patch = cc.cin * cc.kernel * cc.kernel;
      const std::size_t pixels = static_cast<std::size_t>(ho) * wo;
      const std::size_t wide = cc.batch * pixels;
      const std::size_t x_stride =
          static_cast<std::size_t>(cc.cin) * cc.h * cc.w;
      const double macs = static_cast<double>(cc.cout) * patch * wide;
      const int reps = std::clamp(static_cast<int>(2e8 / macs), 5, 60);

      GemmEpilogue epi;
      epi.bias = bias.data();
      epi.act = Act::kReluLeaky;
      GemmExtra extra;
      extra.epilogue = &epi;
      extra.precision = cc.prec;
      extra.act_scale = x.abs_max() / 127.f;  // calibrated scale
      // One slot per route: the weight panels are identical either way,
      // but the slots are single-owner and the timing must not share
      // warm-up.
      GemmCacheSlot slot_staged, slot_impl;
      Tensor y_staged({cc.batch, cc.cout, ho, wo});
      Tensor y_impl({cc.batch, cc.cout, ho, wo});
      std::vector<float> cols(static_cast<std::size_t>(patch) * wide);
      std::vector<float> ybuf(static_cast<std::size_t>(cc.cout) * wide);
      auto staged = [&] {
        for (int i = 0; i < cc.batch; ++i)
          stage_im2col(x.data() + i * x_stride, cc.cin, cc.h, cc.w, spec,
                       cols.data() + i * pixels, wide);
        GemmExtra e = extra;
        e.a_cache = &slot_staged;
        // One item's columns are already its output layout.
        float* out = cc.batch == 1 ? y_staged.data() : ybuf.data();
        gemm(cc.cout, static_cast<int>(wide), patch, w.data(), patch,
             /*trans_a=*/false, cols.data(), static_cast<int>(wide),
             /*trans_b=*/false, out, static_cast<int>(wide),
             /*accumulate=*/false, e);
        if (cc.batch == 1) return;
        for (int i = 0; i < cc.batch; ++i)
          for (int oc = 0; oc < cc.cout; ++oc)
            std::copy_n(ybuf.data() + oc * wide + i * pixels, pixels,
                        &y_staged.at(i, oc, 0, 0));
      };
      auto implicit = [&] {
        GemmExtra e = extra;
        e.a_cache = &slot_impl;
        conv2d_forward_into(x.data(), cc.batch, cc.cin, cc.h, cc.w, w.data(),
                            spec, y_impl.data(), e);
      };

      double staged_ms, impl_ms;
      {
        ScopedMaxWorkers one(1);
        staged();  // warm
        staged_ms = best_ms(reps, staged);
        implicit();  // warm
        impl_ms = best_ms(reps, implicit);
      }
      const bool identical =
          std::memcmp(y_staged.data(), y_impl.data(),
                      y_impl.numel() * sizeof(float)) == 0;
      const double speedup = staged_ms / impl_ms;
      std::printf(
          "    {\"name\": \"%s\", \"batch\": %d, \"cin\": %d, \"cout\": %d, "
          "\"hw\": %d, \"kernel\": %d, \"stride\": %d, "
          "\"staged_ms\": %.4f, \"implicit_ms\": %.4f, "
          "\"conv_implicit_speedup\": %.2f, \"identical\": %s}%s\n",
          cc.name, cc.batch, cc.cin, cc.cout, cc.h, cc.kernel, cc.stride,
          staged_ms, impl_ms, speedup, identical ? "true" : "false", ",");
      run.manifest().set(std::string(cc.name) + "_implicit_speedup", speedup);
    }
    // The weight gradient's product for one item, dW = dY * cols^T
    // [Cout x taps]: gemm() through a transposed PackSource (the packer
    // gathers cols^T straight from x) against stage_im2col plus gemm()
    // with trans_b, both single-threaded.
    struct DwCase {
      const char* name;
      int cin, cout, h, w;
    };
    const std::vector<DwCase> dw_cases = {
        {"conv_dw_dist1_k3s1", 3, 12, 48, 96},
        {"conv_dw_yolo2_k3s1", 16, 32, 24, 24},
    };
    for (std::size_t ci = 0; ci < dw_cases.size(); ++ci) {
      const DwCase& dc = dw_cases[ci];
      Conv2dSpec spec;
      spec.in_channels = dc.cin;
      spec.out_channels = dc.cout;
      Rng xr(920 + static_cast<std::uint64_t>(ci));
      const Tensor x = Tensor::randn({1, dc.cin, dc.h, dc.w}, xr);
      const int ho = spec.out_h(dc.h), wo = spec.out_w(dc.w);
      const int pixels = ho * wo;
      const int taps = dc.cin * spec.kernel * spec.kernel;
      const Tensor dy = Tensor::randn({dc.cout, pixels}, xr);
      const double macs = static_cast<double>(dc.cout) * taps * pixels;
      const int reps = std::clamp(static_cast<int>(2e8 / macs), 5, 60);
      PackSource ps;
      ps.base = x.data();
      ps.c_in = dc.cin;
      ps.h = dc.h;
      ps.w = dc.w;
      ps.kernel = spec.kernel;
      ps.stride = spec.stride;
      ps.pad = spec.pad;
      ps.out_h = ho;
      ps.out_w = wo;
      ps.transposed = true;
      std::vector<float> cols(static_cast<std::size_t>(taps) * pixels);
      Tensor dw_staged({dc.cout, taps}), dw_impl({dc.cout, taps});
      auto staged = [&] {
        stage_im2col(x.data(), dc.cin, dc.h, dc.w, spec, cols.data(),
                     static_cast<std::size_t>(pixels));
        gemm(dc.cout, taps, pixels, dy.data(), pixels, /*trans_a=*/false,
             cols.data(), pixels, /*trans_b=*/true, dw_staged.data(), taps);
      };
      auto implicit = [&] {
        GemmExtra e;
        e.b_pack = &ps;
        gemm(dc.cout, taps, pixels, dy.data(), pixels, /*trans_a=*/false,
             /*b=*/nullptr, taps, /*trans_b=*/false, dw_impl.data(), taps,
             /*accumulate=*/false, e);
      };
      double staged_ms, impl_ms;
      {
        ScopedMaxWorkers one(1);
        staged();  // warm
        staged_ms = best_ms(reps, staged);
        implicit();  // warm
        impl_ms = best_ms(reps, implicit);
      }
      const bool identical =
          std::memcmp(dw_staged.data(), dw_impl.data(),
                      dw_impl.numel() * sizeof(float)) == 0;
      const double speedup = staged_ms / impl_ms;
      std::printf(
          "    {\"name\": \"%s\", \"batch\": 1, \"cin\": %d, \"cout\": %d, "
          "\"h\": %d, \"w\": %d, \"kernel\": %d, \"stride\": %d, "
          "\"staged_ms\": %.4f, \"implicit_ms\": %.4f, "
          "\"conv_implicit_speedup\": %.2f, \"identical\": %s}%s\n",
          dc.name, dc.cin, dc.cout, dc.h, dc.w, spec.kernel, spec.stride,
          staged_ms, impl_ms, speedup, identical ? "true" : "false",
          ci + 1 < dw_cases.size() ? "," : "");
      run.manifest().set(std::string(dc.name) + "_implicit_speedup", speedup);
    }
  }
  // Seed scalar sigmoid vs the array kernel, single thread, over N(0, 8^2)
  // activations with every 4096th element replaced by a special value
  // (signed zeros, |x| = 88 and 103.9, infinities, NaN, a denormal), so
  // the chunks that fall back to the scalar path are part of the timing.
  std::printf("  ],\n  \"sigmoid\": [\n");
  {
    constexpr std::size_t kN = std::size_t{1} << 20;
    Rng xr(930);
    Tensor x = Tensor::randn({static_cast<int>(kN)}, xr, 8.f);
    const float inf = std::numeric_limits<float>::infinity();
    const float special[] = {0.f, -0.f, 88.f, -88.f, 103.9f, -103.9f,
                             inf, -inf, std::nanf(""), 1e-40f, -1e-40f};
    const std::size_t n_special = sizeof(special) / sizeof(special[0]);
    for (std::size_t i = 0; i < kN / 4096; ++i)
      x[i * 4096 + 7] = special[i % n_special];
    Tensor y_seed({static_cast<int>(kN)}), y_kernel({static_cast<int>(kN)});
    const double seed_ms = best_ms(7, [&] {
      for (std::size_t i = 0; i < kN; ++i) y_seed[i] = seed_sigmoid(x[i]);
    });
    const double kernel_ms =
        best_ms(7, [&] { sigmoid(x.data(), y_kernel.data(), kN); });
    const bool identical =
        std::memcmp(y_seed.data(), y_kernel.data(), kN * sizeof(float)) == 0;
    const double speedup = seed_ms / kernel_ms;
    std::printf(
        "    {\"name\": \"sigmoid_1m\", \"n\": %zu, \"seed_ns\": %.3f, "
        "\"kernel_ns\": %.3f, \"speedup\": %.2f, \"identical\": %s}\n",
        kN, seed_ms * 1e6 / kN, kernel_ms * 1e6 / kN, speedup,
        identical ? "true" : "false");
    run.manifest().set("sigmoid_speedup", speedup);
  }
  // Seed scalar Box–Muller loop vs gaussian_fill, single thread, at the
  // rendered frames' sensor-noise sigma.
  std::printf("  ],\n  \"gaussian\": [\n");
  {
    constexpr std::size_t kN = std::size_t{1} << 20;
    constexpr float kSigma = 0.015f;
    std::vector<float> y_seed(kN), y_kernel(kN);
    Rng seed_rng(931), kernel_rng(931);
    const double seed_ms = best_ms(7, [&] {
      seed_rng = Rng(931);
      for (std::size_t i = 0; i < kN; ++i)
        y_seed[i] = static_cast<float>(seed_rng.gaussian(kSigma));
    });
    const double kernel_ms = best_ms(7, [&] {
      kernel_rng = Rng(931);
      gaussian_fill(y_kernel.data(), kN, kSigma, kernel_rng);
    });
    const bool identical =
        std::memcmp(y_seed.data(), y_kernel.data(), kN * sizeof(float)) == 0 &&
        seed_rng.engine()() == kernel_rng.engine()();
    const double speedup = seed_ms / kernel_ms;
    std::printf(
        "    {\"name\": \"gaussian_1m\", \"n\": %zu, \"seed_ns\": %.3f, "
        "\"kernel_ns\": %.3f, \"speedup\": %.2f, \"identical\": %s},\n",
        kN, seed_ms * 1e6 / kN, kernel_ms * 1e6 / kN, speedup,
        identical ? "true" : "false");
    run.manifest().set("gaussian_speedup", speedup);
  }
  // The same seed's engine words, one call at a time vs bulk fill(), in
  // gaussian_fill's chunks. Checked over all 2^20 words and the position
  // after them, then timed into one chunk-sized buffer that stays in L1,
  // as gaussian_fill's stack buffer does.
  {
    constexpr std::size_t kN = std::size_t{1} << 20;
    constexpr std::size_t kChunk = 2 * vmath_detail::kGaussianChunk;
    std::vector<std::uint64_t> w_seed(kN), w_fill(kN);
    Rng seed_rng(932), fill_rng(932);
    for (auto& w : w_seed) w = seed_rng.engine()();
    for (std::size_t i = 0; i < kN; i += kChunk)
      fill_rng.engine().fill(w_fill.data() + i, kChunk);
    const bool identical =
        w_seed == w_fill && seed_rng.engine()() == fill_rng.engine()();
    std::vector<std::uint64_t> chunk(kChunk);
    const double seed_ms = best_ms(15, [&] {
      Rng r(932);
      for (std::size_t i = 0; i < kN; i += kChunk)
        for (auto& w : chunk) w = r.engine()();
    });
    const double fill_ms = best_ms(15, [&] {
      Rng r(932);
      for (std::size_t i = 0; i < kN; i += kChunk)
        r.engine().fill(chunk.data(), kChunk);
    });
    const double speedup = seed_ms / fill_ms;
    std::printf(
        "    {\"name\": \"mt_words_1m\", \"n\": %zu, \"seed_ns\": %.3f, "
        "\"kernel_ns\": %.3f, \"speedup\": %.2f, \"identical\": %s}\n",
        kN, seed_ms * 1e6 / kN, fill_ms * 1e6 / kN, speedup,
        identical ? "true" : "false");
    run.manifest().set("mt_words_speedup", speedup);
  }
  std::printf("  ]\n}\n");
  return 0;
}
