// advp::serve under load: many client threads with jittered arrivals
// hammering a multi-tenant BatchServer. Checks the service invariants the
// unit suite can't: no lost or duplicated responses, deterministic
// per-request results regardless of batch composition, queue depth
// returning to zero after drain, and shutdown racing live submitters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "models/zoo.h"
#include "nn/precision.h"
#include "serve/serve.h"

namespace advp::serve {
namespace {

using models::Detection;
using models::DistNet;
using models::TinyYolo;

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

bool same_detections(const std::vector<Detection>& a,
                     const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].score != b[i].score || a[i].box.x != b[i].box.x ||
        a[i].box.y != b[i].box.y || a[i].box.w != b[i].box.w ||
        a[i].box.h != b[i].box.h)
      return false;
  return true;
}

TEST(ServeStressTest, ManyClientsJitteredArrivalsNoLostResponses) {
  // Oversubscribe the kernel pool relative to the host so serve workers'
  // batched forwards genuinely dispatch parallel_for chunks while client
  // threads hammer the queues (the TSAN leg relies on this interplay).
  ScopedMaxWorkers pool(4);
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 30;
  constexpr int kFramePool = 6;
  const float conf = 0.05f;

  Rng rng(41);
  TinyYolo yolo(small_yolo_cfg(), rng);
  DistNet dist(small_dist_cfg(), rng);

  // Shared frame pool with precomputed serial references: any client may
  // submit any frame at any time, and its answer is known in advance —
  // under load, batch composition varies run to run, results must not.
  std::vector<Tensor> yolo_frames, dist_frames;
  {
    Rng frng(42);
    for (int i = 0; i < kFramePool; ++i) {
      yolo_frames.push_back(Tensor::rand({1, 3, 16, 16}, frng));
      dist_frames.push_back(Tensor::rand({1, 3, 16, 32}, frng));
    }
  }
  std::vector<std::vector<Detection>> yolo_ref;
  std::vector<float> dist_ref;
  {
    TinyYolo yclone = models::clone_detector(yolo);
    DistNet dclone = models::clone_distnet(dist);
    nn::ThreadPrecisionScope scope(GemmPrecision::kFp32);
    for (int i = 0; i < kFramePool; ++i) {
      yolo_ref.push_back(yclone.detect(yolo_frames[i], conf)[0]);
      dist_ref.push_back(dclone.predict(dist_frames[i])[0]);
    }
  }

  ModelRegistry reg;
  reg.add_detector("det", yolo, GemmPrecision::kFp32, conf);
  reg.add_distnet("dist", dist, GemmPrecision::kFp32);
  BatchServer server(reg, ServeConfig{8, 200, 3});

  std::atomic<int> wrong{0};
  std::atomic<int> delivered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      std::mt19937 jitter(static_cast<unsigned>(1000 + c));
      std::uniform_int_distribution<int> frame_pick(0, kFramePool - 1);
      std::uniform_int_distribution<int> sleep_us(0, 200);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(sleep_us(jitter)));
        const int f = frame_pick(jitter);
        if (c % 2 == 0) {
          auto fut = server.submit_detect("det", yolo_frames[f]);
          if (!same_detections(fut.get(), yolo_ref[f])) ++wrong;
        } else {
          auto fut = server.submit_predict("dist", dist_frames[f]);
          if (fut.get() != dist_ref[f]) ++wrong;
        }
        ++delivered;
      }
    });
  for (auto& t : clients) t.join();
  server.shutdown();

  const int total = kClients * kRequestsPerClient;
  EXPECT_EQ(delivered.load(), total);  // every future produced a value
  EXPECT_EQ(wrong.load(), 0);          // ...and the right one

  const ServeStats s = server.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(total));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(total));
  EXPECT_EQ(s.batch_items, static_cast<std::uint64_t>(total));
  EXPECT_EQ(s.queue_depth, 0);
  std::uint64_t hist_items = 0;
  for (std::size_t sz = 0; sz < s.batch_size_hist.size(); ++sz)
    hist_items += sz * s.batch_size_hist[sz];
  EXPECT_EQ(hist_items, s.batch_items);  // no duplicated/dropped items
}

TEST(ServeStressTest, BurstSubmissionCoalescesIntoLargeBatches) {
  Rng rng(43);
  TinyYolo yolo(small_yolo_cfg(), rng);
  ModelRegistry reg;
  reg.add_detector("det", yolo, GemmPrecision::kFp32, 0.05f);
  // One worker and a comfortable deadline: a burst enqueued while the
  // worker chews the first batch must coalesce into full batches after it.
  BatchServer server(reg, ServeConfig{8, 5000, 1});

  Rng frng(44);
  const Tensor frame = Tensor::rand({1, 3, 16, 16}, frng);
  std::vector<std::future<std::vector<Detection>>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(server.submit_detect("det", frame));
  for (auto& f : futs) f.get();
  server.shutdown();

  const ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 64u);
  // 64 requests in <= 8-sized batches needs >= 8 batches; a burst against
  // one busy worker should get close to that, and far under 64.
  EXPECT_GE(s.batches, 8u);
  EXPECT_LE(s.batches, 24u);
  EXPECT_GE(s.coalesce_ratio(), 2.0);
  EXPECT_GE(s.full_batches, 1u);
}

TEST(ServeStressTest, ShutdownRacesLiveSubmitters) {
  Rng rng(45);
  TinyYolo yolo(small_yolo_cfg(), rng);
  const float conf = 0.05f;
  Rng frng(46);
  const Tensor frame = Tensor::rand({1, 3, 16, 16}, frng);
  std::vector<Detection> ref;
  {
    TinyYolo clone = models::clone_detector(yolo);
    nn::ThreadPrecisionScope scope(GemmPrecision::kFp32);
    ref = clone.detect(frame, conf)[0];
  }

  for (int round = 0; round < 3; ++round) {
    ModelRegistry reg;
    reg.add_detector("det", yolo, GemmPrecision::kFp32, conf);
    BatchServer server(reg, ServeConfig{4, 100, 2});

    std::atomic<int> admitted{0}, rejected{0}, wrong{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c)
      clients.emplace_back([&] {
        for (int r = 0; r < 50; ++r) {
          try {
            auto fut = server.submit_detect("det", frame);
            ++admitted;
            // Admitted before (or during) shutdown -> the drain must
            // still deliver the correct result.
            if (!same_detections(fut.get(), ref)) ++wrong;
          } catch (const CheckError&) {
            ++rejected;
            break;  // server is shutting down; stop submitting
          }
        }
      });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    server.shutdown();
    for (auto& t : clients) t.join();

    EXPECT_EQ(wrong.load(), 0);
    const ServeStats s = server.stats();
    EXPECT_EQ(s.requests, static_cast<std::uint64_t>(admitted.load()));
    EXPECT_EQ(s.completed, static_cast<std::uint64_t>(admitted.load()));
    EXPECT_EQ(s.queue_depth, 0);
  }
}

TEST(ServeStressTest, ConcurrentMultiTierTenantsStayBitExact) {
  ScopedMaxWorkers pool(4);  // pool dispatch concurrent with serve workers
  Rng rng(47);
  TinyYolo yolo(small_yolo_cfg(), rng);
  {
    Rng crng(48);
    std::vector<Tensor> batches{Tensor::rand({2, 3, 16, 16}, crng),
                                Tensor::rand({2, 3, 16, 16}, crng)};
    yolo.calibrate(batches);
  }
  const float conf = 0.05f;
  Rng frng(49);
  std::vector<Tensor> frames;
  for (int i = 0; i < 4; ++i)
    frames.push_back(Tensor::rand({1, 3, 16, 16}, frng));

  const GemmPrecision tiers[] = {GemmPrecision::kFp32, GemmPrecision::kInt8};
  const char* names[] = {"fp32", "int8"};
  constexpr int kTiers = 2;
  std::vector<std::vector<std::vector<Detection>>> refs(kTiers);
  for (int t = 0; t < kTiers; ++t) {
    TinyYolo clone = models::clone_detector(yolo);
    nn::ThreadPrecisionScope scope(tiers[t]);
    for (const Tensor& f : frames) refs[t].push_back(clone.detect(f, conf)[0]);
  }

  ModelRegistry reg;
  for (int t = 0; t < kTiers; ++t)
    reg.add_detector(names[t], yolo, tiers[t], conf);
  // One worker per tenant so different-tier batches genuinely overlap in
  // time — the per-thread precision override is what keeps them from
  // cross-talking.
  BatchServer server(reg, ServeConfig{4, 100, kTiers});

  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kTiers; ++t)
    clients.emplace_back([&, t] {
      for (int r = 0; r < 20; ++r)
        for (std::size_t i = 0; i < frames.size(); ++i) {
          auto fut = server.submit_detect(names[t], frames[i]);
          if (!same_detections(fut.get(), refs[t][i])) ++wrong;
        }
    });
  for (auto& c : clients) c.join();
  server.shutdown();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace advp::serve
