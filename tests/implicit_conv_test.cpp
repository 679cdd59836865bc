// Implicit-GEMM convolution: the im2col-in-the-packer lowering must be
// bit-identical to gemm() on a staged column matrix (built here, in the
// test) across conv geometries (stride > 1, padding, 1x1 kernels,
// non-square inputs), precision tiers (fp32 / calibrated int8), and
// worker counts; the transposed source the weight gradient reads must
// match gemm() with trans_b on the same matrix; and neither a forward nor
// a train-mode backward stages any im2col bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/tiny_yolo.h"
#include "nn/plan.h"
#include "nn/precision.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace advp {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

float absmax_of(const Tensor& t) {
  float amax = 0.f;
  for (std::size_t i = 0; i < t.numel(); ++i)
    amax = std::max(amax, std::fabs(t[i]));
  return amax;
}

struct Geo {
  int c_in, h, w, kernel, stride, pad, items;
  const char* name;
  // Above the GEMM's per-stripe floor: the 4-worker calls must dispatch.
  bool splits = false;
};

// Multi-worker pool dispatches issued while f runs (always 0 under
// ADVP_TRACE=0, which keeps the counters off).
template <class F>
std::uint64_t dispatches_during(const F& f) {
  obs::enable();
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kParallelDispatches);
  f();
  const std::uint64_t after =
      obs::counter_value(obs::Counter::kParallelDispatches);
  obs::enable(false);
  return after - before;
}

PackSource pack_source(const Tensor& x, const Conv2dSpec& s) {
  PackSource ps;
  ps.base = x.data();
  ps.item_stride =
      static_cast<std::size_t>(x.dim(1)) * x.dim(2) * x.dim(3);
  ps.items = x.dim(0);
  ps.c_in = x.dim(1);
  ps.h = x.dim(2);
  ps.w = x.dim(3);
  ps.kernel = s.kernel;
  ps.stride = s.stride;
  ps.pad = s.pad;
  ps.out_h = s.out_h(x.dim(2));
  ps.out_w = s.out_w(x.dim(3));
  return ps;
}

// Stages the wide [patch, items*pixels] im2col column matrix, the
// lowering the implicit gathers must reproduce: row p is patch tap
// (c, ky, kx), each item owns a disjoint pixel-column block, and taps
// outside the image read zero.
std::vector<float> stage_cols(const Tensor& x, const Conv2dSpec& s) {
  const int items = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int ho = s.out_h(h), wo = s.out_w(w), pixels = ho * wo;
  const int patch = x.dim(1) * s.kernel * s.kernel;
  const std::size_t n = static_cast<std::size_t>(items) * pixels;
  std::vector<float> cols(static_cast<std::size_t>(patch) * n);
  for (int p = 0; p < patch; ++p) {
    const int c = p / (s.kernel * s.kernel);
    const int ky = (p / s.kernel) % s.kernel, kx = p % s.kernel;
    float* row = cols.data() + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < items; ++i)
      for (int oy = 0; oy < ho; ++oy)
        for (int ox = 0; ox < wo; ++ox) {
          const int iy = oy * s.stride + ky - s.pad;
          const int ix = ox * s.stride + kx - s.pad;
          row[static_cast<std::size_t>(i) * pixels + oy * wo + ox] =
              iy >= 0 && iy < h && ix >= 0 && ix < w ? x.at(i, c, iy, ix)
                                                     : 0.f;
        }
  }
  return cols;
}

// The gather's run table splits columns at output-row and kNr-panel
// boundaries, so the geometries cover out_w below, at and above one panel
// (kNr is 32 on AVX-512 builds, 16 elsewhere), a second Kc panel that
// starts mid-kernel (k = 288 > kKc = 256), and TinyYolo's 1x1 head. The
// last one carries enough MACs to split over 4 workers: the forward into
// 4 stripes of 544 columns (starting mid output row) and the weight
// gradient into stripes of 96 or 80 taps, by kNr (starting mid-kernel).
const Geo kGeos[] = {
    {5, 16, 16, 3, 1, 1, 3, "k3s1p1"},
    {5, 17, 13, 3, 2, 1, 2, "k3s2p1 non-square"},
    {5, 12, 20, 1, 1, 0, 3, "k1s1p0"},
    {4, 9, 9, 5, 2, 2, 2, "k5s2p2"},
    {3, 5, 32, 3, 1, 1, 2, "k3s1p1 out_w 32 (run fills a panel)"},
    {3, 6, 48, 3, 1, 1, 2, "k3s1p1 out_w 48 (rows split across panels)"},
    {2, 4, 96, 3, 1, 1, 2, "k3s1p1 out_w 96 (panels hold row pieces)"},
    {32, 12, 12, 3, 1, 1, 2, "k3s1p1 c_in 32 (Kc panel starts mid-kernel)"},
    {4, 11, 14, 5, 1, 2, 2, "k5s1p2"},
    {64, 6, 6, 1, 1, 0, 1, "k1s1p0 6x6 head"},
    {32, 45, 48, 3, 1, 1, 1, "k3s1p1 c_in 32 45x48 (split stripes)", true},
};

Conv2dSpec spec_for(const Geo& g, int out_channels) {
  Conv2dSpec spec;
  spec.in_channels = g.c_in;
  spec.out_channels = out_channels;
  spec.kernel = g.kernel;
  spec.stride = g.stride;
  spec.pad = g.pad;
  return spec;
}

// The raw-GEMM identity matrix: for every geometry x tier x worker count,
// a gemm() fed a PackSource must produce the same bits as the same gemm()
// fed the staged column matrix.
TEST(ImplicitGemmPack, BitIdenticalToStagedAcrossGeometriesTiersWorkers) {
  const int m = 24;
  Rng rng(11);
  for (const Geo& g : kGeos) {
    const Conv2dSpec spec = spec_for(g, m);
    // Signed inputs so int8 quantization sees both polarities.
    Tensor x = Tensor::rand({g.items, g.c_in, g.h, g.w}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = x[i] * 2.f - 1.f;
    const int patch = g.c_in * g.kernel * g.kernel;
    const int pixels = spec.out_h(g.h) * spec.out_w(g.w);
    const int n = g.items * pixels;
    const Tensor a = Tensor::rand({m, patch}, rng);
    const std::vector<float> cols = stage_cols(x, spec);
    const PackSource ps = pack_source(x, spec);

    struct Tier {
      GemmPrecision prec;
      float act_scale;
      const char* name;
    };
    const Tier tiers[] = {
        {GemmPrecision::kFp32, 0.f, "fp32"},
        {GemmPrecision::kInt8, absmax_of(x) / 127.f, "int8-calibrated"},
    };
    for (const Tier& tier : tiers) {
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        GemmExtra extra;
        extra.precision = tier.prec;
        extra.act_scale = tier.act_scale;

        Tensor c_staged({m, n});
        gemm(m, n, patch, a.data(), patch, /*trans_a=*/false, cols.data(),
             n, /*trans_b=*/false, c_staged.data(), n, /*accumulate=*/false,
             extra);

        GemmExtra implicit = extra;
        implicit.b_pack = &ps;
        Tensor c_implicit({m, n});
        const std::uint64_t dispatched = dispatches_during([&] {
          gemm(m, n, patch, a.data(), patch, /*trans_a=*/false,
               /*b=*/nullptr, n, /*trans_b=*/false, c_implicit.data(), n,
               /*accumulate=*/false, implicit);
        });

        EXPECT_TRUE(bitwise_equal(c_staged, c_implicit))
            << g.name << ", tier " << tier.name << ", workers " << workers;
        if (g.splits && workers == 4 && !obs::trace_disabled()) {
          EXPECT_EQ(dispatched, 1u) << g.name << ", tier " << tier.name;
        }
      }
    }
  }
}

// Products small enough for the fp32 naive fallback (n < 8 or few MACs)
// must stay bit-exact too: with a PackSource the fallback gathers the
// dense column matrix instead of reading a staged one.
TEST(ImplicitGemmPack, NaiveFallbackGathersIdenticalDenseMatrix) {
  const Geo geos[] = {
      {2, 2, 3, 3, 1, 1, 1, "k3s1p1, 6 pixels"},
      {2, 5, 5, 3, 2, 1, 1, "k3s2p1"},
      {2, 3, 4, 3, 1, 1, 2, "k3s1p1, two items"},
  };
  const int m = 4;
  Rng rng(13);
  for (const Geo& g : geos) {
    const Conv2dSpec spec = spec_for(g, m);
    const Tensor x = Tensor::rand({g.items, g.c_in, g.h, g.w}, rng);
    const int patch = g.c_in * g.kernel * g.kernel;
    const int n = g.items * spec.out_h(g.h) * spec.out_w(g.w);
    const Tensor a = Tensor::rand({m, patch}, rng);
    const std::vector<float> cols = stage_cols(x, spec);
    const PackSource ps = pack_source(x, spec);

    Tensor c_staged({m, n});
    gemm(m, n, patch, a.data(), patch, false, cols.data(), n, false,
         c_staged.data(), n);
    GemmExtra extra;
    extra.b_pack = &ps;
    Tensor c_implicit({m, n});
    gemm(m, n, patch, a.data(), patch, false, nullptr, n, false,
         c_implicit.data(), n, /*accumulate=*/false, extra);
    EXPECT_TRUE(bitwise_equal(c_staged, c_implicit)) << g.name;
  }
}

// The weight gradient's operand: a transposed PackSource is op(B) =
// cols^T, k output pixels by n patch taps. gemm() through it must give the
// bits of gemm() with trans_b on the staged column matrix, at 1 and 4
// workers (a large enough product fans out over tap stripes), on every
// geometry above, a pixel range of three Kc blocks whose boundaries fall
// inside output rows, and fewer than 8 taps (the naive fallback).
TEST(ImplicitGemmPack, TransposedSourceMatchesStagedTransB) {
  std::vector<Geo> geos(std::begin(kGeos), std::end(kGeos));
  geos.push_back({3, 30, 20, 3, 1, 1, 1, "600 pixels: Kc blocks end mid-row"});
  geos.push_back({1, 10, 12, 2, 1, 0, 1, "4 taps (naive fallback)"});
  geos.push_back({3, 7, 9, 1, 1, 0, 2, "3 taps, two items"});
  const int m = 20;
  Rng rng(17);
  for (const Geo& g : geos) {
    const Conv2dSpec spec = spec_for(g, m);
    Tensor x = Tensor::rand({g.items, g.c_in, g.h, g.w}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = x[i] * 2.f - 1.f;
    const int taps = g.c_in * g.kernel * g.kernel;
    const int pixels = g.items * spec.out_h(g.h) * spec.out_w(g.w);
    const Tensor dy = Tensor::rand({m, pixels}, rng);
    const std::vector<float> cols = stage_cols(x, spec);
    PackSource ps = pack_source(x, spec);
    ps.transposed = true;
    for (int workers : {1, 4}) {
      ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
      Tensor c_staged({m, taps});
      gemm(m, taps, pixels, dy.data(), pixels, /*trans_a=*/false,
           cols.data(), pixels, /*trans_b=*/true, c_staged.data(), taps);
      GemmExtra extra;
      extra.b_pack = &ps;
      Tensor c_implicit({m, taps});
      const std::uint64_t dispatched = dispatches_during([&] {
        gemm(m, taps, pixels, dy.data(), pixels, /*trans_a=*/false,
             /*b=*/nullptr, taps, /*trans_b=*/false, c_implicit.data(), taps,
             /*accumulate=*/false, extra);
      });
      EXPECT_TRUE(bitwise_equal(c_staged, c_implicit))
          << g.name << ", workers " << workers;
      if (g.splits && workers == 4 && !obs::trace_disabled()) {
        EXPECT_EQ(dispatched, 1u) << g.name;
      }
    }
  }
}

// A transposed source is fp32 only, and its k must count the pixels and
// its n the taps.
TEST(ImplicitGemmPack, TransposedSourceIsFp32OnlyAndShapeChecked) {
  Rng rng(19);
  const Geo g{4, 10, 10, 3, 1, 1, 1, "k3s1p1"};
  const Conv2dSpec spec = spec_for(g, 16);
  const Tensor x = Tensor::rand({1, 4, 10, 10}, rng);
  const int taps = 4 * 9, pixels = 100, m = 16;
  const Tensor dy = Tensor::rand({m, pixels}, rng);
  PackSource ps = pack_source(x, spec);
  ps.transposed = true;
  Tensor c({m, taps});
  auto run = [&](int k, int n, GemmPrecision prec) {
    GemmExtra extra;
    extra.b_pack = &ps;
    extra.precision = prec;
    extra.act_scale = 1.f / 127.f;
    gemm(m, n, k, dy.data(), pixels, /*trans_a=*/false, /*b=*/nullptr, n,
         /*trans_b=*/false, c.data(), taps, /*accumulate=*/false, extra);
  };
  EXPECT_NO_THROW(run(pixels, taps, GemmPrecision::kFp32));
  EXPECT_THROW(run(pixels, taps, GemmPrecision::kInt8), CheckError);
  EXPECT_THROW(run(pixels - 1, taps, GemmPrecision::kFp32), CheckError);
  EXPECT_THROW(run(pixels, taps - 1, GemmPrecision::kFp32), CheckError);
  EXPECT_THROW(run(taps, pixels, GemmPrecision::kFp32), CheckError);
}

// conv2d_forward (per-item implicit GEMMs, bias in the epilogue, items
// fanned out) must give the bits of one wide gemm() over the staged
// column matrix with the same GemmExtra, for every tier, batch size, and
// worker count.
TEST(ImplicitConvForward, FusedEagerMatchesStagedOracle) {
  Rng rng(21);
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  const Tensor w = Tensor::rand({8, 3, 3, 3}, rng);
  const Tensor b = Tensor::rand({8}, rng);
  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kInt8};
  const int patch = 3 * 3 * 3;
  for (int batch : {1, 3}) {
    Tensor x = Tensor::rand({batch, 3, 20, 20}, rng);
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = x[i] * 2.f - 1.f;
    const std::vector<float> cols = stage_cols(x, spec);
    const int pixels = spec.out_h(20) * spec.out_w(20);
    const int wide = batch * pixels;
    for (GemmPrecision tier : tiers) {
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        GemmCacheSlot slot_staged, slot_implicit;
        GemmExtra extra;
        extra.precision = tier;
        extra.act_scale = absmax_of(x) / 127.f;

        GemmEpilogue epi;
        epi.bias = b.data();
        GemmExtra staged = extra;
        staged.a_cache = &slot_staged;
        staged.epilogue = &epi;
        std::vector<float> c(static_cast<std::size_t>(8) * wide);
        gemm(8, wide, patch, w.data(), patch, /*trans_a=*/false, cols.data(),
             wide, /*trans_b=*/false, c.data(), wide, /*accumulate=*/false,
             staged);

        extra.a_cache = &slot_implicit;
        const Tensor y = conv2d_forward(x, w, b, spec, extra);
        bool same = true;
        for (int i = 0; i < batch; ++i)
          for (int oc = 0; oc < 8; ++oc)
            same = same &&
                   std::memcmp(y.data() + static_cast<std::size_t>(
                                              i * 8 + oc) * pixels,
                               &c[static_cast<std::size_t>(oc) * wide +
                                  static_cast<std::size_t>(i) * pixels],
                               pixels * sizeof(float)) == 0;
        EXPECT_TRUE(same) << precision_name(tier) << ", batch " << batch
                          << ", workers " << workers;
      }
    }
  }
}

// Neither the backward nor a forward stages im2col bytes. dW is the item
// order sum, from zero, of gemm() with trans_b on each item's staged
// column matrix, and db the double-accumulated sum of dy; all gradients
// are independent of the worker count.
TEST(ImplicitConvBackward, GradientsStageNothingAndWorkerIndependent) {
  Rng rng(33);
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 6;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  const Tensor x = Tensor::rand({2, 3, 12, 12}, rng);
  const Tensor w = Tensor::rand({6, 3, 3, 3}, rng);
  const Tensor b = Tensor::rand({6}, rng);
  const Tensor dy = Tensor::rand({2, 6, 12, 12}, rng);

  obs::enable();
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  const Conv2dGrads g1 = [&] {
    ScopedMaxWorkers one(1);
    return conv2d_backward(x, w, dy, spec);
  }();
  EXPECT_EQ(obs::counter_value(obs::Counter::kIm2colBytesStaged), before)
      << "backward staged im2col bytes";
  conv2d_forward(x, w, b, spec);
  EXPECT_EQ(obs::counter_value(obs::Counter::kIm2colBytesStaged), before)
      << "forward staged im2col bytes";
  obs::enable(false);

  const int patch = 27, pixels = 144;
  Tensor dw_ref({6, 3, 3, 3}), db_ref({6});
  for (int i = 0; i < 2; ++i) {
    Tensor xi({1, 3, 12, 12});
    std::memcpy(xi.data(), x.data() + xi.numel() * i,
                xi.numel() * sizeof(float));
    const std::vector<float> cols = stage_cols(xi, spec);
    Tensor part({6, 3, 3, 3});
    const float* dyi = dy.data() + static_cast<std::size_t>(i) * 6 * pixels;
    gemm(6, patch, pixels, dyi, pixels, /*trans_a=*/false, cols.data(),
         pixels, /*trans_b=*/true, part.data(), patch);
    dw_ref += part;
    for (int oc = 0; oc < 6; ++oc) {
      double s = 0.0;
      for (int j = 0; j < pixels; ++j) s += dyi[oc * pixels + j];
      db_ref[static_cast<std::size_t>(oc)] += static_cast<float>(s);
    }
  }
  EXPECT_TRUE(bitwise_equal(g1.dw, dw_ref));
  EXPECT_TRUE(bitwise_equal(g1.db, db_ref));

  ScopedMaxWorkers four(4);
  const Conv2dGrads g4 = conv2d_backward(x, w, dy, spec);
  EXPECT_TRUE(bitwise_equal(g1.dx, g4.dx));
  EXPECT_TRUE(bitwise_equal(g1.dw, g4.dw));
  EXPECT_TRUE(bitwise_equal(g1.db, g4.db));
}

// A warm plan forward must stage zero im2col bytes (the per-item column
// matrix never exists), and so must a train-mode backward through the
// same model.
TEST(ImplicitPlanForward, WarmPlanForwardStagesZeroBytes) {
  Rng rng(41);
  models::TinyYolo model({}, rng);
  const Tensor x = Tensor::rand({2, 3, 48, 48}, rng);
  {
    nn::InferenceModeScope inference;
    model.forward_raw(x, /*train=*/false);  // compile + warm the plan
  }
  obs::enable();
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kIm2colBytesStaged);
  {
    nn::InferenceModeScope inference;
    model.forward_raw(x, /*train=*/false);
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kIm2colBytesStaged), before)
      << "warm plan forward staged im2col bytes";

  const std::vector<std::vector<Box>> targets(2, {Box{10.f, 10.f, 16.f, 16.f}});
  model.loss_backward(x, targets, /*train=*/true);
  EXPECT_EQ(obs::counter_value(obs::Counter::kIm2colBytesStaged), before)
      << "train-mode backward staged im2col bytes";
  obs::enable(false);
}

}  // namespace
}  // namespace advp
