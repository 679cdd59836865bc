// Execution-plan compiler: bit-identity of compiled plans against the
// eager walk (Sequential::forward under an InferenceModeScope) across
// precision tiers, worker counts, and batch sizes; cache invalidation on
// weight-generation bumps; layers outside the compiled set declining to
// the eager walk; per-shape plan caching and the slots a cache's plans
// share; and the zero-steady-state-allocation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
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

// TinyYolo's eager walk: the backbone, then the head conv.
Tensor yolo_walk(models::TinyYolo& model, const Tensor& x) {
  return model.head().forward(model.backbone().forward(x, false), false);
}

TEST(PlanBitIdentity, TinyYoloAcrossTiersWorkersBatches) {
  Rng rng(7);
  models::TinyYolo model({}, rng);
  model.calibrate(random_batches(2, 2, 3, 48, 48, 70));  // enables int8
  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kInt8};
  for (GemmPrecision tier : tiers) {
    for (int batch : {1, 3, 8}) {
      Rng xr(100 + batch);
      const Tensor x = Tensor::rand({batch, 3, 48, 48}, xr);
      // Oracle: the eager walk under the same scopes, single-threaded.
      Tensor eager;
      {
        ScopedMaxWorkers workers(1);
        InferenceModeScope inference;
        PrecisionScope scope(tier);
        eager = yolo_walk(model, x);
        ASSERT_NE(model.compile_plan(batch), nullptr)
            << precision_name(tier) << ", batch " << batch;
      }
      // The walk outside the scope, which keeps the backward caches and
      // always runs fp32, gives the same bits at fp32.
      if (tier == GemmPrecision::kFp32) {
        ScopedMaxWorkers workers(1);
        EXPECT_TRUE(bitwise_equal(yolo_walk(model, x), eager))
            << "scoped vs unscoped walk, batch " << batch;
      }
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        InferenceModeScope inference;
        PrecisionScope scope(tier);
        Tensor planned = model.forward_raw(x, /*train=*/false);
        EXPECT_TRUE(bitwise_equal(planned, eager))
            << "plan vs walk: tier " << precision_name(tier) << ", batch "
            << batch << ", workers " << workers;
      }
    }
  }
}

TEST(PlanBitIdentity, DistNetPredictAcrossTiersWorkersBatches) {
  Rng rng(8);
  models::DistNet model({}, rng);
  model.calibrate(random_batches(2, 2, 3, 48, 96, 80));
  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kInt8};
  for (GemmPrecision tier : tiers) {
    for (int batch : {1, 3, 8}) {
      Rng xr(200 + batch);
      const Tensor x = Tensor::rand({batch, 3, 48, 96}, xr);
      // Oracle: the eager walk's logits, mapped to meters as predict()
      // maps them.
      std::vector<float> eager;
      {
        ScopedMaxWorkers workers(1);
        InferenceModeScope inference;
        ThreadPrecisionScope scope(tier);
        const Tensor logits = model.net().forward(x, /*train=*/false);
        for (int i = 0; i < batch; ++i)
          eager.push_back(std::clamp(logits.at(i, 0), 0.f, 1.5f) *
                          model.config().distance_scale);
        ASSERT_NE(model.compile_plan(batch), nullptr)
            << precision_name(tier) << ", batch " << batch;
      }
      for (int workers : {1, 4}) {
        ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
        ThreadPrecisionScope scope(tier);
        const std::vector<float> planned = model.predict(x);
        ASSERT_EQ(planned.size(), eager.size());
        for (std::size_t i = 0; i < eager.size(); ++i)
          EXPECT_EQ(planned[i], eager[i])
              << "item " << i << ": tier " << precision_name(tier)
              << ", batch " << batch << ", workers " << workers;
      }
    }
  }
}

// ExecPlan compiles what DistNet and TinyYolo contain and nothing else.
// Any other layer declines the compile: plan_for returns null, so the
// forward takes the eager walk, and the cache remembers the declined key
// (one compile attempt however many forwards follow) until a weight-
// generation bump earns it one more.
TEST(PlanCacheTest, OtherLayersDeclineOnceAndRetryAfterABump) {
  auto compile_attempts = [] {
    for (const obs::SpanStats& span : obs::span_snapshot())
      if (span.path == "plan_compile") return span.calls;
    return std::uint64_t{0};
  };
  Rng rng(9);
  Rng xr(90);
  const Tensor x = Tensor::rand({3, 3, 16, 16}, xr);
  const char* tails[] = {"upsample", "relu", "pool+batchnorm", "pool+silu"};
  for (int tail = 0; tail < 4; ++tail) {
    SCOPED_TRACE(tails[tail]);
    Sequential net;
    net.emplace<Conv2d>(3, 8, 3, 1, 1, rng);
    switch (tail) {
      case 0:
        net.emplace<Upsample2x>();
        break;
      case 1:
        net.emplace<ReLU>();
        break;
      case 2:
        net.emplace<MaxPool2x2>();
        net.emplace<BatchNorm2d>(8);
        break;
      case 3:
        net.emplace<MaxPool2x2>();
        net.emplace<SiLU>();
        break;
    }
    std::vector<Module*> layers;
    for (std::size_t i = 0; i < net.size(); ++i)
      layers.push_back(&net.child(i));
    PlanCache cache("declined");
    InferenceModeScope inference;
    obs::enable();
    obs::reset();
    EXPECT_EQ(cache.plan_for(layers, x), nullptr);
    EXPECT_EQ(cache.plan_for(layers, x), nullptr);
    EXPECT_EQ(compile_attempts(), 1u);
    bump_weight_generation();
    EXPECT_EQ(cache.plan_for(layers, x), nullptr);
    EXPECT_EQ(cache.plan_for(layers, x), nullptr);
    EXPECT_EQ(compile_attempts(), 2u);
    EXPECT_EQ(cache.size(), 0u);
    obs::enable(false);
    obs::reset();
  }
}

// A plan that fits the slots of a larger plan of its PlanCache runs on
// them: once the largest batch is compiled, smaller ones allocate no
// activation memory. Slots are never reallocated under a plan, and every
// plan, on shared slots or its own, gives the bits of a plan compiled
// alone, whatever order they execute in.
TEST(PlanCacheTest, SmallerPlansRunOnTheLargestPlansSlots) {
  Rng rng(15);
  Sequential net;
  net.emplace<Conv2d>(3, 8, 3, 1, 1, rng);
  net.emplace<BatchNorm2d>(8);
  net.emplace<SiLU>();
  net.emplace<MaxPool2x2>();
  net.emplace<Conv2d>(8, 8, 3, 1, 1, rng);
  net.emplace<SiLU>();
  net.emplace<MaxPool2x2>();
  net.emplace<Flatten>();
  net.emplace<Linear>(8 * 4 * 4, 4, rng);
  std::vector<Module*> layers;
  for (std::size_t i = 0; i < net.size(); ++i) layers.push_back(&net.child(i));
  auto shape = [](int batch) { return std::vector<int>{batch, 3, 16, 16}; };
  const GemmPrecision fp32 = GemmPrecision::kFp32;
  // Slot bytes allocated by compiles since the last obs::reset().
  auto allocated = [] {
    return obs::counter_value(obs::Counter::kPlanArenaBytes);
  };
  std::vector<std::pair<int, ExecPlan*>> plans;
  auto compile = [&](PlanCache& cache, int batch) {
    ExecPlan* plan = cache.compile_now(layers, shape(batch), fp32);
    if (plan) plans.emplace_back(batch, plan);
    return plan;
  };

  obs::enable();
  obs::reset();
  PlanCache largest_first("largest_first");
  const ExecPlan* eight = compile(largest_first, 8);
  ASSERT_NE(eight, nullptr);
  const std::size_t full = eight->arena_bytes();
  EXPECT_GT(full, 0u);
  EXPECT_EQ(allocated(), full);
  for (int batch : {1, 3, 5, 7}) {
    const ExecPlan* plan = compile(largest_first, batch);
    ASSERT_NE(plan, nullptr);
    EXPECT_LT(plan->arena_bytes(), full);
    EXPECT_EQ(plan->slots(), eight->slots()) << "batch " << batch;
  }
  EXPECT_EQ(allocated(), full) << "a smaller plan allocated slots";

  // Smallest first: the larger plan gets slots of its own, leaving the
  // smaller plan's in place, and later plans share the larger ones.
  obs::reset();
  PlanCache smallest_first("smallest_first");
  const ExecPlan* one = compile(smallest_first, 1);
  ASSERT_NE(one, nullptr);
  const std::size_t small = one->arena_bytes();
  EXPECT_EQ(allocated(), small);
  const ExecPlan* big = compile(smallest_first, 8);
  ASSERT_NE(big, nullptr);
  EXPECT_NE(big->slots(), one->slots());
  const ExecPlan* five = compile(smallest_first, 5);
  ASSERT_NE(five, nullptr);
  EXPECT_EQ(five->slots(), big->slots());
  EXPECT_EQ(allocated(), small + full);
  obs::enable(false);
  obs::reset();

  for (int round = 0; round < 2; ++round)
    for (std::size_t i = 0; i < plans.size(); ++i) {
      // Alternate the two caches and mix the batch sizes.
      const auto& [batch, plan] = plans[(i * 5 + round) % plans.size()];
      Rng xr(300 + 10 * round + static_cast<std::uint64_t>(batch));
      const Tensor x = Tensor::rand(shape(batch), xr);
      ExecPlan alone;
      ASSERT_TRUE(alone.compile(layers, shape(batch), fp32));
      const Tensor expected = alone.execute(x);
      EXPECT_TRUE(bitwise_equal(plan->execute(x), expected))
          << "batch " << batch << ", round " << round;
    }
}

TEST(PlanCacheTest, RecompilesAfterGenerationBumpAndTracksShapes) {
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
  // eager walk on them).
  model.params()[0]->value *= 1.25f;
  bump_weight_generation();
  Tensor eager;
  {
    ScopedMaxWorkers workers(1);
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    eager = yolo_walk(model, x2);
  }
  {
    InferenceModeScope inference;
    PrecisionScope fp32(GemmPrecision::kFp32);
    const std::uint64_t compiles_before =
        obs::counter_value(obs::Counter::kPlanCompiles);
    Tensor planned = model.forward_raw(x2, false);
    EXPECT_GT(obs::counter_value(obs::Counter::kPlanCompiles),
              compiles_before);
    EXPECT_TRUE(bitwise_equal(planned, eager));
  }
  obs::enable(false);
  obs::reset();
}

TEST(PlanCacheTest, WarmExecutionPerformsZeroSteadyAllocations) {
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

// The white-box attack oracles run eval-mode forwards *without* an
// InferenceModeScope so the layer backward caches stay populated; the
// plan gate must leave those on the eager path or every gradient-based
// attack breaks.
TEST(PlanGateTest, BackwardPathStaysEager) {
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
