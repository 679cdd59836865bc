// Execution-plan compiler: bit-identity of compiled plans against the
// eager and fused paths across precision tiers, worker counts, and batch
// sizes; cache invalidation on weight-generation bumps; per-shape plan
// caching; the zero-steady-state-allocation contract; and autotune
// on/off parity.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/obs.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/scratch.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "nn/precision.h"
#include "tensor/gemm.h"

namespace advp::nn {
namespace {

// Restores the plan/tune hooks to their environment defaults on scope
// exit so one test cannot leak a forced mode into the next.
struct HookGuard {
  ~HookGuard() {
    plan_detail::force_plan(-1);
    plan_detail::force_tune(-1);
  }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     a.numel() * sizeof(float)) == 0;
}

std::vector<Tensor> random_batches(int n_batches, int batch, int c, int h,
                                   int w, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int i = 0; i < n_batches; ++i)
    out.push_back(Tensor::rand({batch, c, h, w}, rng));
  return out;
}

TEST(PlanBitIdentity, TinyYoloAcrossTiersWorkersBatches) {
  HookGuard guard;
  Rng rng(7);
  models::TinyYolo model({}, rng);
  model.calibrate(random_batches(2, 2, 3, 48, 48, 70));  // enables int8
  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kBf16,
                                 GemmPrecision::kInt8};
  for (GemmPrecision tier : tiers) {
    for (int batch : {1, 3, 8}) {
      Rng xr(100 + batch);
      const Tensor x = Tensor::rand({batch, 3, 48, 48}, xr);
      // Fused oracle: single-threaded, plans off.
      Tensor fused;
      {
        ScopedMaxWorkers workers(1);
        plan_detail::force_plan(0);
        InferenceModeScope inference;
        PrecisionScope scope(tier);
        fused = model.forward_raw(x, /*train=*/false);
      }
      // Eager oracle (fp32 only: the reduced tiers require the fused
      // inference path): the plain child-by-child walk with no scope.
      if (tier == GemmPrecision::kFp32) {
        ScopedMaxWorkers workers(1);
        plan_detail::force_plan(0);
        PrecisionScope scope(tier);
        Tensor eager = model.forward_raw(x, /*train=*/false);
        EXPECT_TRUE(bitwise_equal(eager, fused))
            << "eager vs fused, batch " << batch;
      }
      plan_detail::force_plan(1);
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        InferenceModeScope inference;
        PrecisionScope scope(tier);
        Tensor planned = model.forward_raw(x, /*train=*/false);
        EXPECT_TRUE(bitwise_equal(planned, fused))
            << "plan vs fused: tier " << precision_name(tier) << ", batch "
            << batch << ", workers " << workers;
      }
    }
  }
}

TEST(PlanBitIdentity, DistNetPredictAcrossTiersWorkersBatches) {
  HookGuard guard;
  Rng rng(8);
  models::DistNet model({}, rng);
  model.calibrate(random_batches(2, 2, 3, 48, 96, 80));
  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kBf16,
                                 GemmPrecision::kInt8};
  for (GemmPrecision tier : tiers) {
    for (int batch : {1, 3, 8}) {
      Rng xr(200 + batch);
      const Tensor x = Tensor::rand({batch, 3, 48, 96}, xr);
      std::vector<float> fused;
      {
        ScopedMaxWorkers workers(1);
        plan_detail::force_plan(0);
        ThreadPrecisionScope scope(tier);
        fused = model.predict(x);
      }
      plan_detail::force_plan(1);
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        ThreadPrecisionScope scope(tier);
        const std::vector<float> planned = model.predict(x);
        ASSERT_EQ(planned.size(), fused.size());
        for (std::size_t i = 0; i < fused.size(); ++i)
          EXPECT_EQ(planned[i], fused[i])
              << "item " << i << ": tier " << precision_name(tier)
              << ", batch " << batch << ", workers " << workers;
      }
    }
  }
}

// Layer kinds the two perception models never exercise — Upsample2x,
// GlobalAvgPool, a standalone (unfused) BatchNorm, a leaky ReLU after a
// non-conv — compiled and compared against forward_fused directly.
TEST(PlanBitIdentity, UncommonLayersMatchFused) {
  HookGuard guard;
  Rng rng(9);
  Sequential net;
  net.emplace<Conv2d>(3, 8, 3, 1, 1, rng);
  net.emplace<SiLU>();
  net.emplace<Upsample2x>();
  net.emplace<BatchNorm2d>(8);
  net.emplace<ReLU>(0.1f);
  net.emplace<MaxPool2x2>();
  net.emplace<GlobalAvgPool>();
  net.emplace<Linear>(8, 4, rng);

  Rng xr(90);
  const Tensor x = Tensor::rand({3, 3, 16, 16}, xr);
  Tensor fused;
  {
    plan_detail::force_plan(0);
    InferenceModeScope inference;
    fused = net.forward(x, /*train=*/false);
  }
  plan_detail::force_plan(1);
  std::vector<Module*> layers;
  for (std::size_t i = 0; i < net.size(); ++i) layers.push_back(&net.child(i));
  PlanCache cache("custom");
  InferenceModeScope inference;
  ExecPlan* plan = cache.plan_for(layers, x);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(bitwise_equal(plan->execute(x), fused));
}

TEST(PlanCacheTest, RecompilesAfterGenerationBumpAndTracksShapes) {
  HookGuard guard;
  plan_detail::force_plan(1);
  Rng rng(10);
  models::TinyYolo model({}, rng);
  Rng xr(91);
  const Tensor x2 = Tensor::rand({2, 3, 48, 48}, xr);
  const Tensor x5 = Tensor::rand({5, 3, 48, 48}, xr);

  obs::enable();
  obs::reset();
  {
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    model.forward_raw(x2, false);  // compile
    model.forward_raw(x2, false);  // hit
    EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCompiles), 1u);
    EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCacheHits), 1u);
    model.forward_raw(x5, false);  // different shape -> second plan
    EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCompiles), 2u);
  }

  // An optimizer-step-style weight mutation invalidates compiled plans;
  // the recompiled plan must track the new weights (and still match the
  // fused path on them).
  model.params()[0]->value *= 1.25f;
  bump_weight_generation();
  Tensor fused;
  {
    plan_detail::force_plan(0);
    ScopedMaxWorkers workers(1);
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    fused = model.forward_raw(x2, false);
  }
  plan_detail::force_plan(1);
  {
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    const std::uint64_t compiles_before =
        obs::counter_value(obs::Counter::kPlanCompiles);
    Tensor planned = model.forward_raw(x2, false);
    EXPECT_GT(obs::counter_value(obs::Counter::kPlanCompiles),
              compiles_before);
    EXPECT_TRUE(bitwise_equal(planned, fused));
  }
  obs::enable(false);
  obs::reset();
}

TEST(PlanCacheTest, WarmExecutionPerformsZeroSteadyAllocations) {
  HookGuard guard;
  plan_detail::force_plan(1);
  Rng rng(11);
  models::TinyYolo model({}, rng);
  Rng xr(92);
  const Tensor x = Tensor::rand({4, 3, 48, 48}, xr);
  InferenceModeScope inference;
  PrecisionScope fp32(GemmPrecision::kFp32);
  model.forward_raw(x, false);  // compile (includes its own warm-up)
  model.forward_raw(x, false);  // fully warm on this thread
  obs::enable();
  obs::reset();
  model.forward_raw(x, false);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanSteadyAllocs), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCacheHits), 1u);
  obs::enable(false);
  obs::reset();
}

// The contract above must not depend on which chunks the pool hands the
// calling thread. After a compile on a released arena, executes at 4, 2
// and 1 workers (at 1 this thread runs every item and every full-width
// column stripe itself) must all grow nothing, round after round.
TEST(PlanCacheTest, WarmExecutionAllocationFreeForAnyChunkShare) {
  HookGuard guard;
  plan_detail::force_plan(1);
  Rng rng(13);
  models::TinyYolo model({}, rng);
  InferenceModeScope inference;
  PrecisionScope fp32(GemmPrecision::kFp32);
  for (int batch : {1, 4}) {
    Rng xr(94 + batch);
    const Tensor x = Tensor::rand({batch, 3, 48, 48}, xr);
    for (int round = 0; round < 3; ++round) {
      ScratchArena::local().release();
      bump_weight_generation();  // the next forward recompiles here
      set_max_workers(4);
      model.forward_raw(x, false);
      for (std::size_t workers : {4u, 2u, 1u}) {
        set_max_workers(workers);
        obs::enable();
        obs::reset();
        model.forward_raw(x, false);
        EXPECT_EQ(obs::counter_value(obs::Counter::kPlanSteadyAllocs), 0u)
            << "batch " << batch << ", round " << round << ", " << workers
            << " workers";
        obs::enable(false);
      }
    }
  }
  set_max_workers(0);
  obs::reset();
}

TEST(PlanTuneTest, DefaultAndAutotunedGeometryBitIdentical) {
  HookGuard guard;
  plan_detail::force_plan(1);
  Rng rng(12);
  models::TinyYolo model({}, rng);
  Rng xr(93);
  const Tensor x = Tensor::rand({2, 3, 48, 48}, xr);
  InferenceModeScope inference;
  PrecisionScope fp32(GemmPrecision::kFp32);

  plan_detail::force_tune(1);
  const Tensor tuned = model.forward_raw(x, false);
  // Force a recompile with autotuning pinned off: the ADVP_TUNE=0 plan
  // runs the build-default blocking and must produce the same bits.
  bump_weight_generation();
  plan_detail::force_tune(0);
  const Tensor untuned = model.forward_raw(x, false);
  EXPECT_TRUE(bitwise_equal(tuned, untuned));
  ExecPlan* plan = model.compile_plan(2);
  ASSERT_NE(plan, nullptr);
  for (const PlannedGemm& g : plan->gemms()) {
    EXPECT_EQ(g.blocking.mc, 0);
    EXPECT_EQ(g.blocking.kc, 0);
    EXPECT_EQ(g.blocking.nc, 0);
  }
}

TEST(PlanGateTest, DisabledPlanAndUncalibratedInt8FallBack) {
  HookGuard guard;
  Rng rng(13);
  models::TinyYolo model({}, rng);

  plan_detail::force_plan(0);
  EXPECT_EQ(model.compile_plan(1), nullptr);
  obs::enable();
  obs::reset();
  {
    InferenceModeScope inference;
    Rng xr(94);
    model.forward_raw(Tensor::rand({1, 3, 48, 48}, xr), false);
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCompiles), 0u);
  obs::enable(false);
  obs::reset();

  // An uncalibrated model cannot compile at int8 (a per-item dynamic
  // activation scale would diverge from the grouped fused GEMM); the
  // forward must fall back to the fused path, not fail.
  plan_detail::force_plan(1);
  Rng xr(95);
  const Tensor x = Tensor::rand({2, 3, 48, 48}, xr);
  Tensor fused;
  {
    plan_detail::force_plan(0);
    ScopedMaxWorkers workers(1);
    InferenceModeScope inference;
    PrecisionScope int8(GemmPrecision::kInt8);
    fused = model.forward_raw(x, false);
  }
  plan_detail::force_plan(1);
  {
    ScopedMaxWorkers workers(1);
    InferenceModeScope inference;
    PrecisionScope int8(GemmPrecision::kInt8);
    EXPECT_EQ(model.compile_plan(2), nullptr);
    Tensor out = model.forward_raw(x, false);
    EXPECT_TRUE(bitwise_equal(out, fused));
  }
}

// The white-box attack oracles run eval-mode forwards *without* an
// InferenceModeScope so the layer backward caches stay populated; the
// plan gate must leave those on the eager path or every gradient-based
// attack breaks.
TEST(PlanGateTest, BackwardPathStaysEager) {
  HookGuard guard;
  plan_detail::force_plan(1);
  Rng rng(14);
  models::DistNet model({}, rng);
  Rng xr(96);
  const Tensor x = Tensor::rand({2, 3, 48, 96}, xr);
  obs::enable();
  obs::reset();
  models::DistLossGrad g = model.prediction_grad(x);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCompiles), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPlanCacheHits), 0u);
  EXPECT_EQ(g.grad.shape(), x.shape());
  obs::enable(false);
  obs::reset();
}

}  // namespace
}  // namespace advp::nn
