// serve_open: an open loop against the dynamic batcher. One generator
// thread submits a seeded Poisson schedule at a fixed rate (about half the
// saturation rate of this config), alternating a TinyYolo int8 tenant and
// a DistNet fp32 tenant, both loaded from .advp into
// BatchServer{8, 200 us, 2 workers}. Latency runs from each request's due
// time. Completions are read by one thread per tenant in FIFO order (a
// tenant completes in FIFO order), so one tenant's slow batch cannot
// inflate the other's latency. This exercises forward-only batched plans,
// implicit-GEMM conv and the int8 kernels behind the router.
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <sys/prctl.h>

#include "core/rng.h"
#include "data/dataset.h"
#include "harness.h"
#include "models/zoo.h"
#include "nn/precision.h"
#include "serve/serve.h"

namespace e2e {
namespace {

using namespace advp;

constexpr double kRatePerSecond = 500.0;  // also stated in BENCHMARK.json
constexpr int kMinRequests = 1000;        // serve.op_p99_ms needs 1000
constexpr int kWarmupRequests = 200;
constexpr int kSetupReps = 9;
constexpr int kCorpusPerTenant = 64;
constexpr const char* kDetTenant = "yolo_int8";
constexpr const char* kDistTenant = "distnet_fp32";
constexpr auto kUnresolvedAfter = std::chrono::seconds(20);

struct Setup {
  // Declaration order matters: the server must stop before the registry.
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::BatchServer> server;
  std::vector<Tensor> scenes;  // detector inputs [1,3,48,48]
  std::vector<Tensor> frames;  // distnet inputs [1,3,48,96]
};

void tear_down(Setup& s) {
  s.server.reset();
  s.registry.reset();
}

void set_up(const Options& opt, const ModelFiles& in, Setup& s) {
  s.registry = std::make_unique<serve::ModelRegistry>();
  s.registry->add_detector_advp(kDetTenant, in.detector,
                                GemmPrecision::kInt8);
  s.registry->add_distnet_advp(kDistTenant, in.distnet,
                               GemmPrecision::kFp32);
  serve::ServeConfig cfg;
  cfg.max_batch_size = 8;
  cfg.max_wait_us = 200;
  cfg.workers = 2;
  s.server = std::make_unique<serve::BatchServer>(*s.registry, cfg);
  SpanScope span("setup.corpus");
  s.scenes.clear();
  s.frames.clear();
  for (const data::SignScene& sc :
       data::make_sign_dataset(kCorpusPerTenant, Rng::stream_seed(opt.seed, 1))
           .scenes)
    s.scenes.push_back(sc.image.to_batch());
  for (const data::DrivingFrame& f :
       data::make_driving_dataset(kCorpusPerTenant,
                                  Rng::stream_seed(opt.seed, 2))
           .frames)
    s.frames.push_back(f.image.to_batch());
}

struct Request {
  double due_s = 0.0;  ///< offset from schedule start
  bool detector = false;
  std::size_t frame = 0;
};

std::vector<Request> make_schedule(int n, std::uint64_t stream) {
  Rng rng(stream);
  std::vector<Request> out(static_cast<std::size_t>(n));
  double t = 0.0;
  for (int k = 0; k < n; ++k) {
    // Exponential inter-arrival gaps: a Poisson process at kRatePerSecond.
    t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / kRatePerSecond;
    Request& r = out[static_cast<std::size_t>(k)];
    r.due_s = t;
    r.detector = k % 2 == 0;
    r.frame = static_cast<std::size_t>(rng.uniform_int(0, kCorpusPerTenant - 1));
  }
  return out;
}

/// What happened to one request.
struct Outcome {
  double late_ms = 0.0;    ///< generator lateness at submit
  double submit_us = 0.0;  ///< time inside submit_*
  double latency_ms = 0.0; ///< completion minus due time
  Clock::time_point done{};
  bool resolved = false;
  std::string error;
  std::vector<models::Detection> dets;
  float distance = 0.f;
};

/// FIFO hand-off from the generator to one tenant's reader thread.
struct Pending {
  std::size_t index = 0;
  Clock::time_point due;
  std::future<std::vector<models::Detection>> det;
  std::future<float> dist;
};

class ReaderQueue {
 public:
  void push(Pending p) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  /// Next pending request, or nullopt once closed and drained.
  std::optional<Pending> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return std::nullopt;
    Pending p = std::move(q_.front());
    q_.pop_front();
    return p;
  }

 private:
  std::mutex mu_;
  std::deque<Pending> q_;  // guarded by mu_
  bool closed_ = false;    // guarded by mu_
  std::condition_variable cv_;
};

/// Replays `sched` open-loop against the server; returns per-request
/// outcomes and the phase length (first due time to last completion).
double run_schedule(Setup& s, const std::vector<Request>& sched,
                    std::vector<Outcome>& out) {
  out.assign(sched.size(), Outcome{});
  ReaderQueue det_q, dist_q;
  // Timer slack defaults to 50 us; the generator wants its wake-ups exact.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto start = Clock::now();
  // A future still pending this long after the last due time is lost.
  const auto deadline = start +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(sched.back().due_s)) +
                        kUnresolvedAfter;
  auto reader = [&out, deadline](ReaderQueue& q) {
    while (std::optional<Pending> p = q.pop()) {
      Outcome& o = out[p->index];
      try {
        if (p->det.valid()) {
          if (p->det.wait_until(deadline) != std::future_status::ready) {
            o.error = "future unresolved";
            continue;
          }
          o.dets = p->det.get();
        } else {
          if (p->dist.wait_until(deadline) != std::future_status::ready) {
            o.error = "future unresolved";
            continue;
          }
          o.distance = p->dist.get();
        }
        o.done = Clock::now();
        o.latency_ms =
            std::chrono::duration<double, std::milli>(o.done - p->due).count();
        o.resolved = true;
      } catch (const std::exception& e) {
        o.error = std::string("exception: ") + e.what();
      }
    }
  };
  std::thread det_reader(reader, std::ref(det_q));
  std::thread dist_reader(reader, std::ref(dist_q));

  for (std::size_t k = 0; k < sched.size(); ++k) {
    const Request& r = sched[k];
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(r.due_s));
    std::this_thread::sleep_until(due);
    Pending p;
    p.index = k;
    p.due = due;
    spans::set_op(static_cast<int>(k));
    const auto t0 = Clock::now();
    try {
      SpanScope span("serve.submit");
      if (r.detector)
        p.det = s.server->submit_detect(kDetTenant, s.scenes[r.frame]);
      else
        p.dist = s.server->submit_predict(kDistTenant, s.frames[r.frame]);
    } catch (const std::exception& e) {
      out[k].error = std::string("submit: ") + e.what();
    }
    const auto t1 = Clock::now();
    out[k].late_ms = std::chrono::duration<double, std::milli>(t0 - due).count();
    out[k].submit_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (out[k].error.empty()) (r.detector ? det_q : dist_q).push(std::move(p));
  }
  spans::set_op(-1);
  det_q.close();
  dist_q.close();
  det_reader.join();
  dist_reader.join();

  const auto first_due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         sched.front().due_s));
  auto last = first_due;
  for (const Outcome& o : out)
    if (o.resolved) last = std::max(last, o.done);
  return std::chrono::duration<double>(last - first_due).count();
}

bool same_detections(const std::vector<models::Detection>& a,
                     const std::vector<models::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x[5] = {a[i].score, a[i].box.x, a[i].box.y, a[i].box.w,
                        a[i].box.h};
    const float y[5] = {b[i].score, b[i].box.x, b[i].box.y, b[i].box.w,
                        b[i].box.h};
    if (std::memcmp(x, y, sizeof(x)) != 0) return false;
  }
  return true;
}

/// Checks every outcome against a direct detect/predict of the same frame
/// at the tenant's tier. Returns the failure message per request ("" when
/// the response is bit-identical).
std::vector<std::string> check(const Setup& s, const ModelFiles& in,
                               const std::vector<Request>& sched,
                               const std::vector<Outcome>& out, bool fault) {
  auto det = models::make_detector_from_advp(in.detector);
  auto dist = models::make_distnet_from_advp(in.distnet);
  std::vector<std::optional<std::vector<models::Detection>>> det_ref(
      s.scenes.size());
  std::vector<std::optional<float>> dist_ref(s.frames.size());
  std::vector<std::string> errs(sched.size());
  for (std::size_t k = 0; k < sched.size(); ++k) {
    const Request& r = sched[k];
    const Outcome& o = out[k];
    if (!o.resolved) {
      errs[k] = o.error.empty() ? "no response" : o.error;
      continue;
    }
    if (r.detector) {
      if (!det_ref[r.frame]) {
        nn::ThreadPrecisionScope tier(GemmPrecision::kInt8);
        SpanScope span("model.forward");
        det_ref[r.frame] = det->detect(s.scenes[r.frame])[0];
      }
      if (!same_detections(o.dets, *det_ref[r.frame]))
        errs[k] = "detections differ from a direct int8 detect";
    } else {
      if (!dist_ref[r.frame]) {
        nn::ThreadPrecisionScope tier(GemmPrecision::kFp32);
        SpanScope span("model.forward");
        dist_ref[r.frame] = dist->predict(s.frames[r.frame])[0];
        // The self-test's deliberately wrong reference.
        if (fault && k == 1) *dist_ref[r.frame] += 1.f;
      }
      if (std::memcmp(&o.distance, &*dist_ref[r.frame], sizeof(float)) != 0)
        errs[k] = "distance differs from a direct fp32 predict";
    }
  }
  return errs;
}

struct BatchDelta {
  double coalesce = 0.0, full_share = 0.0, batches = 0.0;
};

BatchDelta batch_delta(const serve::ServeStats& a, const serve::ServeStats& b) {
  BatchDelta d;
  d.batches = static_cast<double>(b.batches - a.batches);
  if (d.batches > 0) {
    d.coalesce = static_cast<double>(b.batch_items - a.batch_items) / d.batches;
    d.full_share = static_cast<double>(b.full_batches - a.full_batches) /
                   d.batches;
  }
  return d;
}

}  // namespace

Result run_serve_open(const Options& opt) {
  Result res;
  const ModelFiles in = write_models(opt, true);

  Setup s;
  std::vector<Span> setup_spans;
  const double setup_s =
      median_setup_s(opt, kSetupReps, [&] { tear_down(s); },
                     [&] { set_up(opt, in, s); }, &setup_spans);

  const int n = std::max(
      kMinRequests, static_cast<int>(std::lround(opt.seconds * kRatePerSecond)));
  const std::vector<Request> warm =
      make_schedule(kWarmupRequests, Rng::stream_seed(opt.seed, 4));
  const std::vector<Request> sched = make_schedule(n, Rng::stream_seed(opt.seed, 5));
  std::vector<Outcome> out;
  run_schedule(s, warm, out);

  const double steal0 = host_steal_s();
  const double cpu0 = process_cpu_s();
  const double phase_s = run_schedule(s, sched, out);
  const double cpu_s = process_cpu_s() - cpu0;
  const double steal_s = host_steal_s() - steal0;
  const double rss_mb = peak_rss_mb();
  const std::vector<std::string> errs = check(s, in, sched, out, opt.fault);
  // Failed requests count as missing every latency limit.
  std::vector<double> lat_ms;
  std::size_t completed = 0;
  for (std::size_t k = 0; k < sched.size(); ++k) {
    ++res.attempted;
    if (!errs[k].empty()) {
      res.fail_op("request " + std::to_string(k) + ": " + errs[k]);
      lat_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++completed;
    lat_ms.push_back(out[k].latency_ms);
  }
  const double items_per_s = completed / phase_s;
  res.info.push_back("serve_open: " + std::to_string(n) +
                     " Poisson requests at " +
                     std::to_string(static_cast<int>(kRatePerSecond)) +
                     " req/s after " + std::to_string(kWarmupRequests) +
                     " warm-up requests; one item per request; host steal " +
                     std::to_string(steal_s) + " s");

  const double p50 = windowed_median(
      lat_ms, [](const auto& w) { return percentile(w, 0.5); });
  add_headline(res, opt, {items_per_s, p50, cpu_s * 1e3 / n, setup_s, rss_mb});
  if (!opt.trace) return res;

  // Latency percentiles and generator figures come from the untraced pass
  // above: library tracing takes a process-wide mutex per span.
  std::vector<double> late_ms, submit_us;
  for (const Outcome& o : out) {
    late_ms.push_back(o.late_ms);
    submit_us.push_back(o.submit_us);
  }
  double submit_sum = 0.0;
  for (double v : submit_us) submit_sum += v;
  res.add_layer("serve.submit_us", submit_sum / n, "us");
  res.add_layer("serve.gen_late_p99_ms", percentile(late_ms, 0.99), "ms");
  res.add_layer("serve.op_p90_ms", percentile(lat_ms, 0.90), "ms");
  res.add_layer("serve.op_p99_ms", percentile(lat_ms, 0.99), "ms");

  const serve::ServeStats before = s.server->stats();
  const TracedPhase t =
      run_traced([&] { return run_schedule(s, sched, out); });
  const serve::ServeStats after = s.server->stats();
  // Check the traced responses too; the reference forwards are the
  // benchmark's own model.forward timings.
  spans::enable(true);
  const std::vector<std::string> traced_errs =
      check(s, in, sched, out, false);
  spans::enable(false);
  const std::vector<Span> ref_spans = spans::snapshot();
  spans::clear();
  std::size_t t_completed = 0;
  for (std::size_t k = 0; k < sched.size(); ++k) {
    if (traced_errs[k].empty()) {
      ++t_completed;
      continue;
    }
    res.fail_run("traced request " + std::to_string(k) + ": " +
                 traced_errs[k]);
  }
  add_counter_metrics(res, n, t.seconds);
  add_setup_metrics(res, setup_spans, 0.0);
  const BatchDelta d = batch_delta(before, after);
  const SpanTotals fw = span_totals(ref_spans, "model.forward");
  res.add_layer("models.forward_ms", fw.count ? fw.total_ms / fw.count : 0.0,
                "ms");
  // Each server batch is one batched forward.
  res.add_layer("models.forward_calls_per_op", d.batches / n, "count");
  res.add_layer("serve.coalesce_ratio", d.coalesce, "ratio");
  res.add_layer("serve.full_batch_share", d.full_share, "ratio");
  res.add_layer("trace.items_per_s_ratio",
                (t_completed / t.seconds) / items_per_s, "ratio");
  return res;
}

}  // namespace e2e
