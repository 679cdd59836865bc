// Closed-loop load generator for advp::serve — throughput and latency of
// the dynamic batcher versus direct per-frame calls, per (model, tier,
// batch config). Emits a JSON object on stdout:
//
//   {"schema": "advp.serve_bench/1", "max_workers": 1, "clients": 8,
//    "configs": [
//      {"name": "yolo_fp32", "model": "tiny_yolo", "tier": "fp32",
//       "max_batch_size": 8, "max_wait_us": 200, "server_workers": 2,
//       "requests": 192, "serial_rps": ..., "server_b1_rps": ...,
//       "batched_rps": ..., "batched_vs_serial": ...,
//       "coalesce_ratio": ..., "p50_ms": ..., "p95_ms": ..., "p99_ms": ...,
//       "lost": 0, "identical": true}, ...]}
//
// Three measurements per config:
//  - serial_rps: one thread calling TinyYolo::detect / DistNet::predict
//    per frame — the pre-serve status quo and the bit-identity reference;
//  - server_b1_rps: the same load through a BatchServer with
//    max_batch_size=1 — pure router overhead (queue, futures, worker hop);
//  - batched_rps: 8 closed-loop clients against max_batch_size=8,
//    max_wait_us=200, 2 workers — the dynamic-batching configuration the
//    ISSUE gates on.
//
// `identical` asserts every batched response is bit-identical to the
// serial reference for that frame (the determinism contract: batch
// composition never changes a result). `lost` counts futures that never
// resolved — must be 0.
//
// Machine portability: rps is hardware-bound, so tools/check_serve_perf.py
// gates on intra-run ratios (batched_vs_serial, coalesce_ratio) and keys
// the throughput floor on the recorded `max_workers` — coalescing into
// batch-8 forwards buys parallel-utilization throughput on multi-core
// runners (>= 2x at >= 4 workers) but cannot beat the serial loop on a
// single core, where the gate only rejects collapse (see the script).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "models/zoo.h"
#include "nn/precision.h"
#include "serve/serve.h"

namespace {

using namespace advp;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 8;
constexpr int kRequestsPerClient = 24;
constexpr int kFramePool = 16;
constexpr int kSerialRequests = 96;
constexpr float kConf = 0.05f;

struct BenchCase {
  const char* name;
  serve::ModelKind kind;
  GemmPrecision tier;
  const char* tier_name;
};

struct CaseResult {
  double serial_rps = 0, server_b1_rps = 0, batched_rps = 0;
  double coalesce = 0, p50_ms = 0, p95_ms = 0, p99_ms = 0;
  int requests = 0, lost = 0;
  bool identical = true;
};

double pct(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted_ms.size() - 1);
  return sorted_ms[static_cast<std::size_t>(pos + 0.5)];
}

bool same_detections(const std::vector<models::Detection>& a,
                     const std::vector<models::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].score != b[i].score || a[i].box.x != b[i].box.x ||
        a[i].box.y != b[i].box.y || a[i].box.w != b[i].box.w ||
        a[i].box.h != b[i].box.h)
      return false;
  return true;
}

// One serving measurement: `clients` closed-loop threads, each submitting
// `per_client` requests drawn round-robin from the frame pool, checking
// every response against the serial reference. Returns requests/second
// over the whole window and fills latencies (ms, sorted).
template <typename SubmitFn, typename CheckFn>
double run_clients(int clients, int per_client, SubmitFn submit,
                   CheckFn check, std::vector<double>* latencies_ms,
                   int* wrong) {
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<int> bad(static_cast<std::size_t>(clients), 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      for (int r = 0; r < per_client; ++r) {
        const int f = (c * per_client + r) % kFramePool;
        const auto s = Clock::now();
        auto fut = submit(f);
        if (!check(fut.get(), f)) ++bad[static_cast<std::size_t>(c)];
        lat[static_cast<std::size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - s)
                .count());
      }
    });
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& l : lat)
    latencies_ms->insert(latencies_ms->end(), l.begin(), l.end());
  std::sort(latencies_ms->begin(), latencies_ms->end());
  for (int b : bad) *wrong += b;
  return static_cast<double>(clients * per_client) / secs;
}

CaseResult run_case(const BenchCase& bc, models::TinyYolo& yolo,
                    models::DistNet& dist) {
  CaseResult res;
  const bool is_det = bc.kind == serve::ModelKind::kDetector;

  Rng frng(97);
  std::vector<Tensor> frames;
  for (int i = 0; i < kFramePool; ++i)
    frames.push_back(
        is_det ? Tensor::rand({1, 3, yolo.config().img_size,
                               yolo.config().img_size},
                              frng)
               : Tensor::rand({1, 3, dist.config().height,
                               dist.config().width},
                              frng));

  // Serial reference + throughput: one thread, direct per-frame calls on a
  // private clone pinned at the tier (warmed so the pack cache is hot,
  // matching the server's steady state).
  std::vector<std::vector<models::Detection>> det_ref(kFramePool);
  std::vector<float> dist_ref(kFramePool, 0.f);
  {
    models::TinyYolo yclone = models::clone_detector(yolo);
    models::DistNet dclone = models::clone_distnet(dist);
    nn::ThreadPrecisionScope scope(bc.tier);
    for (int i = 0; i < kFramePool; ++i) {
      if (is_det)
        det_ref[static_cast<std::size_t>(i)] =
            yclone.detect(frames[static_cast<std::size_t>(i)], kConf)[0];
      else
        dist_ref[static_cast<std::size_t>(i)] =
            dclone.predict(frames[static_cast<std::size_t>(i)])[0];
    }
    const auto t0 = Clock::now();
    for (int r = 0; r < kSerialRequests; ++r) {
      const Tensor& f = frames[static_cast<std::size_t>(r % kFramePool)];
      if (is_det)
        yclone.detect(f, kConf);
      else
        dclone.predict(f);
    }
    res.serial_rps =
        kSerialRequests /
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  const auto serve_run = [&](serve::ServeConfig cfg, int clients,
                             int per_client, std::vector<double>* lat,
                             double* coalesce, int* lost,
                             bool* identical) -> double {
    serve::ModelRegistry reg;
    if (is_det)
      reg.add_detector("m", yolo, bc.tier, kConf);
    else
      reg.add_distnet("m", dist, bc.tier);
    serve::BatchServer server(reg, cfg);
    // Warm the tenant's pack cache (and page in its weights) off-clock.
    for (int i = 0; i < 2; ++i) {
      if (is_det)
        server.submit_detect("m", frames[0]).get();
      else
        server.submit_predict("m", frames[0]).get();
    }
    const serve::ServeStats warm = server.stats();

    int wrong = 0;
    double rps;
    if (is_det)
      rps = run_clients(
          clients, per_client,
          [&](int f) {
            return server.submit_detect(
                "m", frames[static_cast<std::size_t>(f)]);
          },
          [&](const std::vector<models::Detection>& got, int f) {
            return same_detections(got,
                                   det_ref[static_cast<std::size_t>(f)]);
          },
          lat, &wrong);
    else
      rps = run_clients(
          clients, per_client,
          [&](int f) {
            return server.submit_predict(
                "m", frames[static_cast<std::size_t>(f)]);
          },
          [&](float got, int f) {
            return got == dist_ref[static_cast<std::size_t>(f)];
          },
          lat, &wrong);
    server.shutdown();
    const serve::ServeStats s = server.stats();
    const std::uint64_t batches = s.batches - warm.batches;
    const std::uint64_t items = s.batch_items - warm.batch_items;
    if (coalesce)
      *coalesce = batches ? static_cast<double>(items) /
                                static_cast<double>(batches)
                          : 0.0;
    const std::uint64_t submitted =
        static_cast<std::uint64_t>(clients * per_client) + 2;
    if (lost) *lost = static_cast<int>(submitted - s.completed);
    if (identical) *identical = (wrong == 0);
    return rps;
  };

  // Router-overhead config: no coalescing, one worker, zero wait.
  {
    std::vector<double> lat;
    res.server_b1_rps = serve_run(serve::ServeConfig{1, 0, 1}, 1,
                                  kSerialRequests, &lat, nullptr, nullptr,
                                  nullptr);
  }
  // The gated dynamic-batching config.
  {
    std::vector<double> lat;
    bool identical = true;
    res.batched_rps =
        serve_run(serve::ServeConfig{8, 200, 2}, kClients,
                  kRequestsPerClient, &lat, &res.coalesce, &res.lost,
                  &identical);
    res.identical = identical;
    res.requests = kClients * kRequestsPerClient;
    res.p50_ms = pct(lat, 0.50);
    res.p95_ms = pct(lat, 0.95);
    res.p99_ms = pct(lat, 0.99);
  }
  return res;
}

}  // namespace

int main() {
  advp::bench::BenchRun run("serve_throughput");

  Rng rng(4242);
  models::TinyYolo yolo(models::TinyYoloConfig{}, rng);
  models::DistNet dist(models::DistNetConfig{}, rng);
  {
    Rng crng(4243);
    const auto& yc = yolo.config();
    std::vector<Tensor> yb{
        Tensor::rand({2, 3, yc.img_size, yc.img_size}, crng),
        Tensor::rand({2, 3, yc.img_size, yc.img_size}, crng)};
    yolo.calibrate(yb);
    const auto& dc = dist.config();
    std::vector<Tensor> db{Tensor::rand({2, 3, dc.height, dc.width}, crng),
                           Tensor::rand({2, 3, dc.height, dc.width}, crng)};
    dist.calibrate(db);
  }

  const BenchCase cases[] = {
      {"yolo_fp32", serve::ModelKind::kDetector, GemmPrecision::kFp32,
       "fp32"},
      {"yolo_int8", serve::ModelKind::kDetector, GemmPrecision::kInt8,
       "int8"},
      {"dist_fp32", serve::ModelKind::kDistNet, GemmPrecision::kFp32,
       "fp32"},
      {"dist_int8", serve::ModelKind::kDistNet, GemmPrecision::kInt8,
       "int8"},
  };

  std::printf("{\"schema\": \"advp.serve_bench/1\", \"max_workers\": %zu, "
              "\"clients\": %d,\n \"configs\": [\n",
              max_workers(), kClients);
  bool first = true;
  for (const BenchCase& bc : cases) {
    const CaseResult r = run_case(bc, yolo, dist);
    std::printf(
        "%s  {\"name\": \"%s\", \"model\": \"%s\", \"tier\": \"%s\", "
        "\"max_batch_size\": 8, \"max_wait_us\": 200, "
        "\"server_workers\": 2, \"requests\": %d,\n"
        "   \"serial_rps\": %.1f, \"server_b1_rps\": %.1f, "
        "\"batched_rps\": %.1f, \"batched_vs_serial\": %.3f,\n"
        "   \"coalesce_ratio\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"lost\": %d, \"identical\": %s}",
        first ? "" : ",\n", bc.name,
        bc.kind == serve::ModelKind::kDetector ? "tiny_yolo" : "distnet",
        bc.tier_name, r.requests, r.serial_rps, r.server_b1_rps,
        r.batched_rps, r.batched_rps / r.serial_rps, r.coalesce, r.p50_ms,
        r.p95_ms, r.p99_ms, r.lost, r.identical ? "true" : "false");
    first = false;

    run.manifest().set(std::string(bc.name) + "_batched_rps",
                       r.batched_rps);
    run.manifest().set(std::string(bc.name) + "_serial_rps", r.serial_rps);
  }
  std::printf("\n]}\n");
  return 0;
}
