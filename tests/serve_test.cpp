// advp::serve — registry semantics, batched-vs-serial bit-identity across
// precision tiers and worker counts, batching policy (deadline, degenerate
// configs), shutdown draining, tenant isolation, stats accounting, and the
// ThreadPrecisionScope / weight-generation concurrency regressions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <iterator>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "models/zoo.h"
#include "nn/precision.h"
#include "serve/serve.h"
#include "tensor/gemm.h"

namespace advp::serve {
namespace {

using models::Detection;
using models::DistNet;
using models::TinyYolo;

// Small geometries keep each forward ~100us so the concurrency suites can
// push hundreds of requests; the numerics contract is size-independent.
models::TinyYoloConfig small_yolo_cfg() {
  models::TinyYoloConfig cfg;
  cfg.img_size = 16;
  cfg.grid = 2;
  return cfg;
}

models::DistNetConfig small_dist_cfg() {
  models::DistNetConfig cfg;
  cfg.width = 32;
  cfg.height = 16;
  return cfg;
}

std::vector<Tensor> frames_for(const models::TinyYoloConfig& cfg, int n,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int i = 0; i < n; ++i)
    out.push_back(Tensor::rand({1, 3, cfg.img_size, cfg.img_size}, rng));
  return out;
}

std::vector<Tensor> frames_for(const models::DistNetConfig& cfg, int n,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int i = 0; i < n; ++i)
    out.push_back(Tensor::rand({1, 3, cfg.height, cfg.width}, rng));
  return out;
}

void calibrate_yolo(TinyYolo& m, std::uint64_t seed) {
  const auto& c = m.config();
  Rng rng(seed);
  std::vector<Tensor> batches{
      Tensor::rand({2, 3, c.img_size, c.img_size}, rng),
      Tensor::rand({2, 3, c.img_size, c.img_size}, rng)};
  m.calibrate(batches);
}

void calibrate_dist(DistNet& m, std::uint64_t seed) {
  const auto& c = m.config();
  Rng rng(seed);
  std::vector<Tensor> batches{Tensor::rand({2, 3, c.height, c.width}, rng),
                              Tensor::rand({2, 3, c.height, c.width}, rng)};
  m.calibrate(batches);
}

// Serial per-frame reference at a pinned tier on a private clone — the
// bit-identity baseline every batched result must reproduce exactly.
std::vector<std::vector<Detection>> serial_detect(
    TinyYolo& src, const std::vector<Tensor>& frames, GemmPrecision tier,
    float conf = -1.f) {
  TinyYolo clone = models::clone_detector(src);
  nn::ThreadPrecisionScope scope(tier);
  std::vector<std::vector<Detection>> out;
  for (const Tensor& f : frames) out.push_back(clone.detect(f, conf)[0]);
  return out;
}

std::vector<float> serial_predict(DistNet& src,
                                  const std::vector<Tensor>& frames,
                                  GemmPrecision tier) {
  DistNet clone = models::clone_distnet(src);
  nn::ThreadPrecisionScope scope(tier);
  std::vector<float> out;
  for (const Tensor& f : frames) out.push_back(clone.predict(f)[0]);
  return out;
}

void expect_same_detections(const std::vector<Detection>& a,
                            const std::vector<Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].score, b[i].score);  // bitwise float equality
    EXPECT_EQ(a[i].box.x, b[i].box.x);
    EXPECT_EQ(a[i].box.y, b[i].box.y);
    EXPECT_EQ(a[i].box.w, b[i].box.w);
    EXPECT_EQ(a[i].box.h, b[i].box.h);
  }
}

TEST(ModelRegistryTest, RegistersLooksUpAndRejectsDuplicates) {
  Rng rng(11);
  TinyYolo yolo(small_yolo_cfg(), rng);
  DistNet dist(small_dist_cfg(), rng);
  calibrate_dist(dist, 103);  // an int8 tenant needs recorded ranges

  ModelRegistry reg;
  EXPECT_EQ(reg.size(), 0u);
  reg.add_detector("det", yolo, GemmPrecision::kFp32);
  reg.add_distnet("dist", dist, GemmPrecision::kInt8);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.has("det"));
  EXPECT_TRUE(reg.has("dist"));
  EXPECT_FALSE(reg.has("nope"));
  EXPECT_EQ(reg.kind("det"), ModelKind::kDetector);
  EXPECT_EQ(reg.kind("dist"), ModelKind::kDistNet);
  EXPECT_EQ(reg.tier("det"), GemmPrecision::kFp32);
  EXPECT_EQ(reg.tier("dist"), GemmPrecision::kInt8);
  EXPECT_THROW(reg.add_detector("det", yolo, GemmPrecision::kFp32),
               CheckError);
  EXPECT_THROW(reg.kind("nope"), CheckError);
}

TEST(ModelRegistryTest, Int8TenantRequiresCalibration) {
  Rng rng(12);
  TinyYolo yolo(small_yolo_cfg(), rng);
  DistNet dist(small_dist_cfg(), rng);

  ModelRegistry reg;
  EXPECT_THROW(reg.add_detector("y8", yolo, GemmPrecision::kInt8),
               CheckError);
  EXPECT_THROW(reg.add_distnet("d8", dist, GemmPrecision::kInt8), CheckError);

  calibrate_yolo(yolo, 5);
  calibrate_dist(dist, 6);
  reg.add_detector("y8", yolo, GemmPrecision::kInt8);
  reg.add_distnet("d8", dist, GemmPrecision::kInt8);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ModelRegistryTest, FreezesUnderALiveServer) {
  Rng rng(13);
  TinyYolo yolo(small_yolo_cfg(), rng);
  ModelRegistry reg;
  reg.add_detector("det", yolo, GemmPrecision::kFp32);
  BatchServer server(reg, ServeConfig{});
  EXPECT_THROW(reg.add_detector("late", yolo, GemmPrecision::kFp32),
               CheckError);
}

TEST(BatchServerTest, RejectsInvalidConfigsAndSubmissions) {
  Rng rng(14);
  TinyYolo yolo(small_yolo_cfg(), rng);
  DistNet dist(small_dist_cfg(), rng);
  ModelRegistry reg;
  reg.add_detector("det", yolo, GemmPrecision::kFp32);
  reg.add_distnet("dist", dist, GemmPrecision::kFp32);

  {
    ModelRegistry empty;
    EXPECT_THROW(BatchServer(empty, ServeConfig{}), CheckError);
  }
  EXPECT_THROW(BatchServer(reg, ServeConfig{0, 100, 1}), CheckError);
  EXPECT_THROW(BatchServer(reg, ServeConfig{8, -1, 1}), CheckError);
  EXPECT_THROW(BatchServer(reg, ServeConfig{8, 100, 0}), CheckError);

  BatchServer server(reg, ServeConfig{});
  const Tensor good = frames_for(small_yolo_cfg(), 1, 9)[0];
  EXPECT_THROW(server.submit_detect("nope", good), CheckError);
  EXPECT_THROW(server.submit_detect("dist", good), CheckError);   // wrong kind
  EXPECT_THROW(server.submit_predict("det", good), CheckError);   // wrong kind
  Rng frng(15);
  const Tensor wrong_shape = Tensor::rand({1, 3, 8, 8}, frng);
  EXPECT_THROW(server.submit_detect("det", wrong_shape), CheckError);
}

TEST(BatchServerTest, BatchedMatchesSerialAcrossTiers) {
  Rng rng(21);
  TinyYolo yolo(small_yolo_cfg(), rng);
  DistNet dist(small_dist_cfg(), rng);
  calibrate_yolo(yolo, 101);
  calibrate_dist(dist, 102);
  // A permissive threshold so detections actually survive on random inputs.
  const float conf = 0.05f;

  const auto yolo_frames = frames_for(small_yolo_cfg(), 12, 31);
  const auto dist_frames = frames_for(small_dist_cfg(), 12, 32);

  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kInt8};
  for (GemmPrecision tier : tiers) {
    SCOPED_TRACE(static_cast<int>(tier));
    const auto det_ref = serial_detect(yolo, yolo_frames, tier, conf);
    const auto dist_ref = serial_predict(dist, dist_frames, tier);

    ModelRegistry reg;
    reg.add_detector("det", yolo, tier, conf);
    reg.add_distnet("dist", dist, tier);
    BatchServer server(reg, ServeConfig{4, 1000, 2});

    std::vector<std::future<std::vector<Detection>>> det_futs;
    std::vector<std::future<float>> dist_futs;
    for (const Tensor& f : yolo_frames)
      det_futs.push_back(server.submit_detect("det", f));
    for (const Tensor& f : dist_frames)
      dist_futs.push_back(server.submit_predict("dist", f));

    for (std::size_t i = 0; i < det_futs.size(); ++i)
      expect_same_detections(det_futs[i].get(), det_ref[i]);
    for (std::size_t i = 0; i < dist_futs.size(); ++i)
      EXPECT_EQ(dist_futs[i].get(), dist_ref[i]);  // bitwise
  }
}

TEST(BatchServerTest, ResultsInvariantAcrossWorkerAndBatchConfigs) {
  Rng rng(22);
  TinyYolo yolo(small_yolo_cfg(), rng);
  const auto frames = frames_for(small_yolo_cfg(), 10, 41);
  const auto ref = serial_detect(yolo, frames, GemmPrecision::kFp32, 0.05f);

  const ServeConfig configs[] = {
      {1, 0, 1},      // no coalescing, no waiting
      {4, 0, 3},      // zero deadline, several workers
      {8, 500, 2},    // bigger batches
      {16, 2000, 4},  // batch larger than the request count
  };
  for (const ServeConfig& cfg : configs) {
    SCOPED_TRACE(cfg.max_batch_size);
    ModelRegistry reg;
    reg.add_detector("det", yolo, GemmPrecision::kFp32, 0.05f);
    BatchServer server(reg, cfg);
    std::vector<std::future<std::vector<Detection>>> futs;
    for (const Tensor& f : frames)
      futs.push_back(server.submit_detect("det", f));
    for (std::size_t i = 0; i < futs.size(); ++i)
      expect_same_detections(futs[i].get(), ref[i]);

    server.shutdown();
    const ServeStats s = server.stats();
    EXPECT_EQ(s.requests, frames.size());
    EXPECT_EQ(s.completed, frames.size());
    EXPECT_EQ(s.batch_items, frames.size());
    EXPECT_EQ(s.queue_depth, 0);
    if (cfg.max_batch_size == 1) {
      EXPECT_EQ(s.batches, frames.size());
      EXPECT_DOUBLE_EQ(s.coalesce_ratio(), 1.0);
    }
  }
}

TEST(BatchServerTest, MaxWaitDeadlineFiresAPartialBatch) {
  Rng rng(23);
  TinyYolo yolo(small_yolo_cfg(), rng);
  ModelRegistry reg;
  reg.add_detector("det", yolo, GemmPrecision::kFp32);
  // Batch of 8 will never fill: one request must ride the 2ms deadline.
  BatchServer server(reg, ServeConfig{8, 2000, 1});

  const Tensor frame = frames_for(small_yolo_cfg(), 1, 51)[0];
  auto fut = server.submit_detect("det", frame);
  // Generous bound (deadline 2ms + one tiny forward); anything near it
  // means the deadline path never fired and we'd hang until shutdown.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  fut.get();
  const ServeStats s = server.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batch_items, 1u);
  ASSERT_GT(s.batch_size_hist.size(), 1u);
  EXPECT_EQ(s.batch_size_hist[1], 1u);
  EXPECT_EQ(s.full_batches, 0u);
}

TEST(BatchServerTest, ShutdownDrainsInFlightRequests) {
  Rng rng(24);
  TinyYolo yolo(small_yolo_cfg(), rng);
  const auto frames = frames_for(small_yolo_cfg(), 16, 61);
  const auto ref = serial_detect(yolo, frames, GemmPrecision::kFp32, 0.05f);

  ModelRegistry reg;
  reg.add_detector("det", yolo, GemmPrecision::kFp32, 0.05f);
  // A long deadline the drain must override: shutdown() fires queued
  // requests immediately instead of waiting out 500ms each.
  auto server =
      std::make_unique<BatchServer>(reg, ServeConfig{4, 500000, 1});
  std::vector<std::future<std::vector<Detection>>> futs;
  for (const Tensor& f : frames)
    futs.push_back(server->submit_detect("det", f));

  server->shutdown();
  EXPECT_TRUE(server->shutting_down());
  EXPECT_THROW(server->submit_detect("det", frames[0]), CheckError);
  for (std::size_t i = 0; i < futs.size(); ++i)
    expect_same_detections(futs[i].get(), ref[i]);
  const ServeStats s = server->stats();
  EXPECT_EQ(s.completed, frames.size());
  EXPECT_EQ(s.queue_depth, 0);
  server->shutdown();  // idempotent
  server.reset();      // destructor after explicit shutdown is a no-op
}

TEST(BatchServerTest, TenantsAreIsolatedClones) {
  Rng rng(25);
  TinyYolo yolo(small_yolo_cfg(), rng);
  calibrate_yolo(yolo, 103);
  const auto frames = frames_for(small_yolo_cfg(), 8, 71);
  const float conf = 0.05f;
  const auto ref_fp32 = serial_detect(yolo, frames, GemmPrecision::kFp32,
                                      conf);
  const auto ref_int8 = serial_detect(yolo, frames, GemmPrecision::kInt8,
                                      conf);

  ModelRegistry reg;
  reg.add_detector("fp32", yolo, GemmPrecision::kFp32, conf);
  reg.add_detector("int8", yolo, GemmPrecision::kInt8, conf);

  // Mutating the source *after* registration must not reach the tenants:
  // registration cloned weights and calibration.
  calibrate_yolo(yolo, 999);
  for (nn::Param* p : yolo.params())
    for (std::size_t i = 0; i < p->value.numel(); ++i)
      p->value.data()[i] = 0.f;

  BatchServer server(reg, ServeConfig{4, 200, 2});
  std::vector<std::future<std::vector<Detection>>> f32, f8;
  for (const Tensor& f : frames) {
    f32.push_back(server.submit_detect("fp32", f));
    f8.push_back(server.submit_detect("int8", f));
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    expect_same_detections(f32[i].get(), ref_fp32[i]);
    expect_same_detections(f8[i].get(), ref_int8[i]);
  }

  server.shutdown();
  const ServeStats sf = server.tenant_stats("fp32");
  const ServeStats si = server.tenant_stats("int8");
  EXPECT_EQ(sf.requests, frames.size());
  EXPECT_EQ(si.requests, frames.size());
  EXPECT_THROW(server.tenant_stats("nope"), CheckError);
}

TEST(BatchServerTest, StatsAccountingIsConsistent) {
  Rng rng(26);
  TinyYolo yolo(small_yolo_cfg(), rng);
  ModelRegistry reg;
  reg.add_detector("det", yolo, GemmPrecision::kFp32);
  BatchServer server(reg, ServeConfig{4, 100, 2});
  const auto frames = frames_for(small_yolo_cfg(), 23, 81);
  std::vector<std::future<std::vector<Detection>>> futs;
  for (const Tensor& f : frames)
    futs.push_back(server.submit_detect("det", f));
  for (auto& f : futs) f.get();
  server.shutdown();

  const ServeStats s = server.stats();
  EXPECT_EQ(s.requests, 23u);
  EXPECT_EQ(s.completed, 23u);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_GE(s.batches, 6u);  // 23 requests, batches of <= 4
  std::uint64_t hist_batches = 0, hist_items = 0;
  for (std::size_t sz = 0; sz < s.batch_size_hist.size(); ++sz) {
    hist_batches += s.batch_size_hist[sz];
    hist_items += sz * s.batch_size_hist[sz];
  }
  EXPECT_EQ(hist_batches, s.batches);
  EXPECT_EQ(hist_items, s.batch_items);
  EXPECT_EQ(s.batch_items, 23u);
  EXPECT_EQ(s.batch_size_hist[0], 0u);
  EXPECT_GT(s.coalesce_ratio(), 0.99);
}

TEST(BatchServerTest, ObsCountersTrackRequestsAndBatches) {
  if (obs::trace_disabled()) GTEST_SKIP() << "ADVP_TRACE=0";
  Rng rng(27);
  TinyYolo yolo(small_yolo_cfg(), rng);
  ModelRegistry reg;
  reg.add_detector("det", yolo, GemmPrecision::kFp32);

  obs::reset();
  obs::enable(true);
  {
    BatchServer server(reg, ServeConfig{4, 100, 1});
    const auto frames = frames_for(small_yolo_cfg(), 9, 91);
    std::vector<std::future<std::vector<Detection>>> futs;
    for (const Tensor& f : frames)
      futs.push_back(server.submit_detect("det", f));
    for (auto& f : futs) f.get();
    server.shutdown();
    EXPECT_EQ(obs::counter_value(obs::Counter::kServeRequests), 9u);
    EXPECT_EQ(obs::counter_value(obs::Counter::kServeBatchItems), 9u);
    EXPECT_EQ(obs::counter_value(obs::Counter::kServeBatches),
              server.stats().batches);
    bool saw_span = false;
    for (const auto& span : obs::span_snapshot())
      if (span.path == "serve_batch") saw_span = true;
    EXPECT_TRUE(saw_span);
  }
  obs::enable(false);
  obs::reset();
}

// ---- concurrency regressions (ThreadPrecisionScope, generation bumps) ------

TEST(PrecisionConcurrencyTest, ThreadScopesPinIndependentTiers) {
  Rng rng(28);
  TinyYolo yolo(small_yolo_cfg(), rng);
  calibrate_yolo(yolo, 104);
  const auto frames = frames_for(small_yolo_cfg(), 6, 111);
  const float conf = 0.05f;

  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kInt8};
  std::vector<std::vector<std::vector<Detection>>> refs;
  for (GemmPrecision tier : tiers)
    refs.push_back(serial_detect(yolo, frames, tier, conf));

  // One thread per tier, each pinning its tier on its own clone, all
  // running concurrently. With the old process-global PrecisionScope this
  // cross-talks; per-thread overrides must reproduce each serial
  // reference bit-for-bit.
  const int n_tiers = static_cast<int>(std::size(tiers));
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<std::vector<Detection>>> got(n_tiers);
    std::vector<std::thread> threads;
    for (int t = 0; t < n_tiers; ++t)
      threads.emplace_back([&, t] {
        TinyYolo clone = models::clone_detector(yolo);
        nn::ThreadPrecisionScope scope(tiers[t]);
        for (const Tensor& f : frames)
          got[t].push_back(clone.detect(f, conf)[0]);
      });
    for (auto& th : threads) th.join();
    for (int t = 0; t < n_tiers; ++t) {
      SCOPED_TRACE(t);
      ASSERT_EQ(got[t].size(), frames.size());
      for (std::size_t i = 0; i < frames.size(); ++i)
        expect_same_detections(got[t][i], refs[t][i]);
    }
  }
}

TEST(PrecisionConcurrencyTest, ThreadScopeShadowsGlobalAndRestores) {
  nn::PrecisionScope global(GemmPrecision::kInt8);
  EXPECT_EQ(nn::PrecisionScope::active(), GemmPrecision::kInt8);
  {
    nn::ThreadPrecisionScope local(GemmPrecision::kFp32);
    EXPECT_EQ(nn::PrecisionScope::active(), GemmPrecision::kFp32);
    // Another thread sees the global, not this thread's override.
    GemmPrecision other = GemmPrecision::kFp32;
    std::thread([&] { other = nn::PrecisionScope::active(); }).join();
    EXPECT_EQ(other, GemmPrecision::kInt8);
  }
  EXPECT_EQ(nn::PrecisionScope::active(), GemmPrecision::kInt8);
}

TEST(PrecisionConcurrencyTest, GenerationBumpsDuringConcurrentForwards) {
  Rng rng(29);
  TinyYolo yolo(small_yolo_cfg(), rng);
  const auto frames = frames_for(small_yolo_cfg(), 4, 121);
  const float conf = 0.05f;
  const auto ref = serial_detect(yolo, frames, GemmPrecision::kFp32, conf);

  // Two eval threads forward repeatedly while a third keeps invalidating
  // the pack cache. A bump only forces deterministic repacks (same source
  // weights -> same panels), so results must stay bit-identical; this
  // guards the GemmCacheSlot generation protocol under concurrency.
  std::atomic<bool> stop{false};
  std::thread bumper([&] {
    while (!stop.load()) {
      bump_weight_generation();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> evals;
  std::vector<int> mismatches(2, 0);
  for (int t = 0; t < 2; ++t)
    evals.emplace_back([&, t] {
      TinyYolo clone = models::clone_detector(yolo);
      nn::ThreadPrecisionScope scope(GemmPrecision::kFp32);
      for (int iter = 0; iter < 10; ++iter)
        for (std::size_t i = 0; i < frames.size(); ++i) {
          const auto got = clone.detect(frames[i], conf)[0];
          if (got.size() != ref[i].size()) {
            ++mismatches[t];
            continue;
          }
          for (std::size_t d = 0; d < got.size(); ++d)
            if (got[d].score != ref[i][d].score ||
                got[d].box.x != ref[i][d].box.x ||
                got[d].box.y != ref[i][d].box.y ||
                got[d].box.w != ref[i][d].box.w ||
                got[d].box.h != ref[i][d].box.h)
              ++mismatches[t];
        }
    });
  for (auto& th : evals) th.join();
  stop.store(true);
  bumper.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

}  // namespace
}  // namespace advp::serve
