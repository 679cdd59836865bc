#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "core/obs.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "models/zoo.h"
#include "nn/serialize.h"
#include "tensor/gemm.h"

namespace e2e {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- spans -----------------------------------------------------------------

namespace {

std::atomic<bool> g_spans_on{false};
std::mutex g_span_mutex;
std::vector<Span> g_spans;  // guarded by g_span_mutex
thread_local int t_current = -1;
thread_local int t_op = -1;
const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

namespace spans {

void enable(bool on) { g_spans_on.store(on, std::memory_order_relaxed); }
bool enabled() { return g_spans_on.load(std::memory_order_relaxed); }

void clear() {
  std::lock_guard<std::mutex> lk(g_span_mutex);
  g_spans.clear();
}

void set_op(int op) { t_op = op; }

std::vector<Span> snapshot() {
  std::lock_guard<std::mutex> lk(g_span_mutex);
  return g_spans;
}

}  // namespace spans

SpanScope::SpanScope(const char* name) {
  if (!spans::enabled()) return;
  Span s;
  s.name = name;
  s.parent = t_current;
  s.op = t_op;
  std::lock_guard<std::mutex> lk(g_span_mutex);
  id_ = static_cast<int>(g_spans.size());
  s.start_ns = now_ns();
  g_spans.push_back(s);
  t_current = id_;
}

SpanScope::~SpanScope() {
  if (id_ < 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lk(g_span_mutex);
  // clear() may have run while this span was open; then it is dropped.
  if (static_cast<std::size_t>(id_) < g_spans.size()) {
    g_spans[static_cast<std::size_t>(id_)].end_ns = end;
    t_current = g_spans[static_cast<std::size_t>(id_)].parent;
  } else {
    t_current = -1;
  }
}

namespace {

SpanTotals totals_where(const std::vector<Span>& all,
                        const std::function<bool(const char*)>& match) {
  std::vector<double> child_ms(all.size(), 0.0);
  for (const Span& s : all)
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  SpanTotals t;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < 0 || !match(s.name)) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return t;
}

}  // namespace

SpanTotals span_totals(const std::vector<Span>& all, const std::string& name) {
  return totals_where(all, [&](const char* n) { return name == n; });
}

SpanTotals span_totals_prefix(const std::vector<Span>& all,
                              const std::string& prefix) {
  return totals_where(all, [&](const char* n) {
    return std::string(n).rfind(prefix, 0) == 0;
  });
}

// ---- statistics ------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double windowed_median(
    const std::vector<double>& v,
    const std::function<double(const std::vector<double>&)>& stat) {
  std::vector<double> per_window;
  const std::size_t n = v.size();
  for (int w = 0; w < kWindows; ++w) {
    const std::size_t lo = n * static_cast<std::size_t>(w) / kWindows;
    const std::size_t hi = n * static_cast<std::size_t>(w + 1) / kWindows;
    if (hi > lo)
      per_window.push_back(stat(std::vector<double>(v.begin() + lo,
                                                    v.begin() + hi)));
  }
  return median(per_window);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double host_steal_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double field[8] = {};
  f >> cpu;
  for (double& x : field) f >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && hz > 0 ? field[7] / static_cast<double>(hz) : 0.0;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream is(line.substr(6));
    double kb = 0.0;
    is >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

// ---- results ---------------------------------------------------------------

namespace {
constexpr std::size_t kMaxFailureMessages = 8;
}

void Result::fail_op(const std::string& why) {
  ++failed;
  if (failures.size() < kMaxFailureMessages) failures.push_back(why);
}

void Result::fail_run(const std::string& why) { fail_op("run: " + why); }

void Result::add_e2e(const std::string& name, double value,
                     const std::string& unit) {
  e2e.push_back({name, value, unit});
}

void Result::add_layer(const std::string& name, double value,
                       const std::string& unit) {
  layer.push_back({name, value, unit});
}

void add_headline(Result& r, const Options& opt, const Headline& h) {
  if (opt.trace) {
    r.add_layer("items_per_s", h.items_per_s, "1/s");
    r.add_layer("op_p50_ms", h.op_p50_ms, "ms");
    return;
  }
  char line[128];
  std::snprintf(line, sizeof(line), "%-36s %14.6g 1/s", "items_per_s",
                h.items_per_s);
  r.info.push_back(line);
  std::snprintf(line, sizeof(line), "%-36s %14.6g ms", "op_p50_ms",
                h.op_p50_ms);
  r.info.push_back(line);
  r.add_e2e("cpu_ms_per_item", h.cpu_ms_per_item, "ms");
  r.add_e2e("setup_s", h.setup_s, "s");
  r.add_e2e("peak_rss_mb", h.rss_mb, "MB");
}

double ClosedLoopPass::wall_s() const {
  double ms = 0.0;
  for (double v : lat_ms) ms += v;
  return ms * 1e-3;
}

double ClosedLoopPass::op_p50_ms() const { return percentile(lat_ms, 0.5); }

double ClosedLoopPass::items_per_s(double items_per_op) const {
  return 1e3 * items_per_op / op_p50_ms();
}

ClosedLoopPass run_closed_loop(int n, const std::function<std::string(int)>& op,
                               Result* record) {
  ClosedLoopPass pass;
  for (int k = 0; k < n; ++k) {
    spans::set_op(k);
    std::string err;
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    try {
      SpanScope span("op");
      err = op(k);
    } catch (const std::exception& e) {
      err = std::string("exception: ") + e.what();
    }
    pass.lat_ms.push_back(seconds_since(t0) * 1e3);
    pass.cpu_s += process_cpu_s() - c0;
    if (record) {
      ++record->attempted;
      if (!err.empty()) record->fail_op("op " + std::to_string(k) + ": " + err);
    }
  }
  spans::set_op(-1);
  return pass;
}

double median_setup_s(const Options& opt, int reps,
                      const std::function<void()>& teardown,
                      const std::function<void()>& build,
                      std::vector<Span>* setup_spans) {
  spans::clear();
  spans::enable(opt.trace);
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    teardown();
    // A load that adopts packed panels keeps its file mapped for the rest
    // of the process; drop the previous repetition's mappings so repeated
    // set-ups do not pile them up in the measured resident set.
    advp::nn::advp_release_mappings();
    const auto t0 = Clock::now();
    {
      SpanScope span("setup");
      build();
    }
    t.push_back(seconds_since(t0));
  }
  spans::enable(false);
  *setup_spans = spans::snapshot();
  spans::clear();
  return median(t);
}

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string m = line.substr(colon + 1);
    m.erase(0, m.find_first_not_of(' '));
    return m;
  }
  return "unknown";
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

std::string meta_line() {
  std::ostringstream os;
  os << "# meta nproc=" << std::thread::hardware_concurrency()
     << " cpu=\"" << cpu_model() << "\" gemm=" << advp::gemm_backend()
     << " compiler=\"" << E2E_COMPILER << "\" flags=\"" << E2E_CXX_FLAGS
     << "\" workers=" << advp::max_workers();
  return os.str();
}

namespace {

/// Every per-layer metric, in report order. A traced run prints all of
/// them; a layer the workload never calls reads 0.
const Metric kLayerMetrics[] = {
    {"items_per_s", 0, "1/s"},
    {"op_p50_ms", 0, "ms"},
    {"core.pool_dispatches_per_op", 0, "count"},
    {"core.pool_workers_per_dispatch", 0, "count"},
    {"core.scratch_grows_per_op", 0, "count"},
    {"tensor.gemm_gflop_per_op", 0, "GFLOP"},
    {"tensor.achieved_gflops", 0, "GFLOP/s"},
    {"tensor.pack_bytes_per_op", 0, "B"},
    {"tensor.im2col_staged_bytes_per_op", 0, "B"},
    {"tensor.pack_cache_hit_ratio", 0, "ratio"},
    {"nn.plan_compiles_per_op", 0, "count"},
    {"nn.plan_hit_ratio", 0, "ratio"},
    {"nn.plan_steady_allocs", 0, "count"},
    {"models.fwd_bwd_ms", 0, "ms"},
    {"models.fwd_bwd_calls_per_op", 0, "count"},
    {"models.forward_ms", 0, "ms"},
    {"models.forward_calls_per_op", 0, "count"},
    {"attacks.self_ms_per_op", 0, "ms"},
    {"attacks.oracle_calls_per_op", 0, "count"},
    {"defenses.diffpir_ms", 0, "ms"},
    {"defenses.preprocess_ms", 0, "ms"},
    {"defenses.adv_epoch_ms", 0, "ms"},
    {"defenses.contrastive_epoch_ms", 0, "ms"},
    {"defenses.advgen_ms_per_item", 0, "ms"},
    {"data.render_ms", 0, "ms"},
    {"data.corpus_s", 0, "s"},
    {"eval.score_ms", 0, "ms"},
    {"sim.steps_per_s", 0, "1/s"},
    {"sim.cohort_fill", 0, "ratio"},
    {"sim.step_p95_ms", 0, "ms"},
    {"sim.refills_per_scenario", 0, "count"},
    {"serve.coalesce_ratio", 0, "ratio"},
    {"serve.full_batch_share", 0, "ratio"},
    {"serve.submit_us", 0, "us"},
    {"serve.gen_late_p99_ms", 0, "ms"},
    {"serve.op_p90_ms", 0, "ms"},
    {"serve.op_p99_ms", 0, "ms"},
    {"trace.items_per_s_ratio", 0, "ratio"},
};

/// The workload's per-layer metrics laid over kLayerMetrics.
std::vector<Metric> layer_report(const Result& r) {
  std::vector<Metric> out(std::begin(kLayerMetrics), std::end(kLayerMetrics));
  for (const Metric& m : r.layer) {
    auto it = std::find_if(out.begin(), out.end(), [&](const Metric& k) {
      return k.name == m.name;
    });
    if (it == out.end() || it->unit != m.unit)
      throw std::logic_error("e2e: undeclared per-layer metric " + m.name);
    it->value = m.value;
  }
  return out;
}

}  // namespace

int emit(const Options& opt, const Result& r) {
  std::printf("%s\n", meta_line().c_str());
  for (const std::string& s : r.info) std::printf("# %s\n", s.c_str());
  const double share =
      r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::printf("# %-36s %14llu %s\n", "ops_attempted",
              static_cast<unsigned long long>(r.attempted), "count");
  std::printf("# %-36s %14llu %s\n", "ops_failed",
              static_cast<unsigned long long>(r.failed), "count");
  std::printf("# %-36s %14.6g %s\n", "op_fail_share", share, "fraction");
  for (const std::string& f : r.failures)
    std::printf("# FAIL %s\n", f.c_str());
  const std::vector<Metric> shown = opt.trace ? layer_report(r) : r.e2e;
  for (const Metric& m : shown)
    std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());

  std::ostringstream js;
  js << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    if (i) js << ", ";
    js << "\"" << shown[i].name << "\": {\"value\": " << fmt_num(shown[i].value)
       << ", \"unit\": \"" << shown[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

// ---- inputs ----------------------------------------------------------------

ModelFiles write_models(const Options& opt, bool calibrate_detector) {
  advp::Rng rng(opt.seed);
  advp::models::DistNet distnet(advp::models::DistNetConfig{}, rng);
  advp::models::TinyYolo detector(advp::models::TinyYoloConfig{}, rng);
  if (calibrate_detector) {
    std::vector<advp::Tensor> batches;
    for (const advp::data::SignScene& sc :
         advp::data::make_sign_dataset(8, advp::Rng::stream_seed(opt.seed, 9))
             .scenes)
      batches.push_back(sc.image.to_batch());
    detector.calibrate(batches);
  }
  ModelFiles f{opt.tmp_dir + "/distnet.advp", opt.tmp_dir + "/detector.advp"};
  advp::models::save_distnet_advp(distnet, f.distnet);
  advp::models::save_detector_advp(detector, f.detector);
  return f;
}

// ---- shared per-layer metrics ----------------------------------------------

namespace {

double counter(advp::obs::Counter c) {
  return static_cast<double>(advp::obs::counter_value(c));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_counter_metrics(Result& r, double ops, double measured_s) {
  using advp::obs::Counter;
  const double dispatches = counter(Counter::kParallelDispatches);
  r.add_layer("core.pool_dispatches_per_op", ratio(dispatches, ops), "count");
  r.add_layer("core.pool_workers_per_dispatch",
              ratio(counter(Counter::kParallelWorkers), dispatches), "count");
  r.add_layer("core.scratch_grows_per_op",
              ratio(counter(Counter::kScratchGrows), ops), "count");
  const double flops = counter(Counter::kMatmulFlops);
  r.add_layer("tensor.gemm_gflop_per_op", ratio(flops * 1e-9, ops), "GFLOP");
  r.add_layer("tensor.achieved_gflops", ratio(flops * 1e-9, measured_s),
              "GFLOP/s");
  r.add_layer("tensor.pack_bytes_per_op",
              ratio(counter(Counter::kGemmPackBytes), ops), "B");
  r.add_layer("tensor.im2col_staged_bytes_per_op",
              ratio(counter(Counter::kIm2colBytesStaged), ops), "B");
  const double hits = counter(Counter::kPackCacheHits);
  r.add_layer("tensor.pack_cache_hit_ratio",
              ratio(hits, hits + counter(Counter::kPackCacheMisses)), "ratio");
  const double compiles = counter(Counter::kPlanCompiles);
  const double plan_hits = counter(Counter::kPlanCacheHits);
  r.add_layer("nn.plan_compiles_per_op", ratio(compiles, ops), "count");
  r.add_layer("nn.plan_hit_ratio", ratio(plan_hits, plan_hits + compiles),
              "ratio");
  r.add_layer("nn.plan_steady_allocs", counter(Counter::kPlanSteadyAllocs),
              "count");
}

void add_span_metrics(Result& r, const std::vector<Span>& all, double ops) {
  const SpanTotals fb = span_totals(all, "model.fwd_bwd");
  const SpanTotals fw = span_totals(all, "model.forward");
  r.add_layer("models.fwd_bwd_ms", ratio(fb.total_ms, double(fb.count)), "ms");
  r.add_layer("models.fwd_bwd_calls_per_op", ratio(double(fb.count), ops),
              "count");
  r.add_layer("models.forward_ms", ratio(fw.total_ms, double(fw.count)), "ms");
  r.add_layer("models.forward_calls_per_op", ratio(double(fw.count), ops),
              "count");
  const SpanTotals atk = span_totals_prefix(all, "attack.");
  r.add_layer("attacks.self_ms_per_op", ratio(atk.self_ms, ops), "ms");
  // Oracle calls made from inside attack spans: white-box fwd+bwd plus
  // black-box score queries (scoring forwards after an attack excluded).
  std::uint64_t oracle_calls = 0;
  for (const Span& s : all) {
    if (s.parent < 0) continue;
    const std::string pn = all[static_cast<std::size_t>(s.parent)].name;
    if (pn.rfind("attack.", 0) == 0 &&
        (std::string(s.name) == "model.fwd_bwd" ||
         std::string(s.name) == "model.forward"))
      ++oracle_calls;
  }
  r.add_layer("attacks.oracle_calls_per_op", ratio(double(oracle_calls), ops),
              "count");
  const SpanTotals dp = span_totals(all, "defense.diffpir");
  const SpanTotals pre = span_totals(all, "defense.median_blur");
  const SpanTotals adv = span_totals_prefix(all, "defense.adv_train");
  const SpanTotals con = span_totals(all, "defense.contrastive");
  r.add_layer("defenses.diffpir_ms", ratio(dp.total_ms, double(dp.count)),
              "ms");
  r.add_layer("defenses.preprocess_ms", ratio(pre.total_ms, double(pre.count)),
              "ms");
  r.add_layer("defenses.adv_epoch_ms", ratio(adv.total_ms, double(adv.count)),
              "ms");
  r.add_layer("defenses.contrastive_epoch_ms",
              ratio(con.total_ms, double(con.count)), "ms");
  const SpanTotals render = span_totals(all, "data.render");
  r.add_layer("data.render_ms", ratio(render.total_ms, double(render.count)),
              "ms");
  const SpanTotals score = span_totals(all, "eval.score");
  r.add_layer("eval.score_ms", ratio(score.total_ms, double(score.count)),
              "ms");
}

void add_setup_metrics(Result& r, const std::vector<Span>& setup,
                       double advgen_items) {
  const SpanTotals corpus = span_totals(setup, "setup.corpus");
  const SpanTotals runs = span_totals(setup, "setup");
  r.add_layer("data.corpus_s",
              ratio(corpus.total_ms * 1e-3, double(runs.count)), "s");
  const SpanTotals gen = span_totals_prefix(setup, "setup.advgen");
  r.add_layer("defenses.advgen_ms_per_item",
              ratio(gen.total_ms, advgen_items * double(runs.count)), "ms");
}

TracedPhase run_traced(const std::function<double()>& phase) {
  advp::obs::reset();
  advp::obs::enable(true);
  spans::clear();
  spans::enable(true);
  TracedPhase t;
  t.seconds = phase();
  spans::enable(false);
  advp::obs::enable(false);
  t.spans = spans::snapshot();
  spans::clear();
  return t;
}

}  // namespace e2e
