// campaign: CampaignEngine::run_range over one fixed range of
// MatrixSpec::standard() (3 lighting regimes x 5 trajectories x 2 noise
// levels x {none, gaussian, patch}, repeated to fill the run) with cohort
// 8, DistNet loaded from .advp, all in one process. One item (and one op)
// is one scenario. The only workload with the renderer on the hot path,
// along with the ACC stepper and batch-C lockstep forwards. CAP is left out
// (its eager forward+backward fallback would make most of the time
// backward, which attack_cells covers) and so are shard subprocesses (each
// would start its own full-size pool).
//
// Scenario latency runs from the scenario's dispatch to a lane to its
// on_result report. Dispatch is read from CampaignProgress::dispatched at
// every report: index j (dispatched j-th from the start of the range) left
// the queue after the last report that saw dispatched <= j.
#include <algorithm>
#include <cstring>
#include <memory>

#include "attacks/attack.h"
#include "core/check.h"
#include "core/obs.h"
#include "core/rng.h"
#include "harness.h"
#include "models/zoo.h"
#include "sim/campaign.h"

namespace e2e {
namespace {

using namespace advp;
using namespace advp::sim;
using namespace advp::sim::campaign;

constexpr int kCohort = 8;
constexpr double kScenariosPerSecond = 6.0;  // sizes the fixed range
constexpr int kSetupReps = 25;
constexpr int kSliceSize = 8;         // scenarios re-run serially as reference
constexpr std::uint64_t kWarmupScenarios = 32;
constexpr float kWarmupDuration = 1.f;  // s of simulated time per warm-up run
constexpr int kProbeFrames = 64;        // render/forward probes (traced run)

/// Everything on_result reports during one run_range.
struct Recorder {
  struct Report {
    Clock::time_point at;
    std::uint64_t index = 0;
    std::uint64_t dispatched = 0;  ///< progress().dispatched at report time
  };
  const CampaignProgress* progress = nullptr;
  std::vector<Report> reports;
  std::vector<int> seen;
  std::vector<AccResult> results;
  std::vector<ScenarioPoint> points;

  void reset(std::uint64_t n) {
    reports.clear();
    reports.reserve(n);
    seen.assign(n, 0);
    results.assign(n, AccResult{});
    points.assign(n, ScenarioPoint{});
  }
  // Called by the engine under its result mutex.
  void on_result(const ScenarioPoint& p, const AccResult& r) {
    reports.push_back({Clock::now(), p.index,
                       progress->dispatched.load(std::memory_order_relaxed)});
    if (p.index >= seen.size()) return;
    ++seen[p.index];
    results[p.index] = r;
    points[p.index] = p;
  }
};

struct Setup {
  std::unique_ptr<models::DistNet> perception;
  std::unique_ptr<CampaignEngine> engine;
};

MatrixSpec measured_spec(std::uint64_t repeats) {
  MatrixSpec spec = MatrixSpec::standard();
  spec.repeats = repeats;
  return spec;
}

void tear_down(Setup& s) {
  s.engine.reset();
  s.perception.reset();
}

void set_up(const Options& opt, const std::string& path, std::uint64_t repeats,
            Recorder& rec, Setup& s) {
  s.perception = models::make_distnet_from_advp(path);
  ADVP_CHECK_MSG(s.perception, "campaign: .advp load failed");
  s.perception->compile_plan(kCohort);
  CampaignConfig cfg;
  cfg.cohort = kCohort;
  cfg.base_seed = opt.seed;
  cfg.on_result = [&rec](const ScenarioPoint& p, const AccResult& r) {
    rec.on_result(p, r);
  };
  s.engine = std::make_unique<CampaignEngine>(
      *s.perception, data::DrivingSceneGenerator{}, AccParams{},
      measured_spec(repeats), cfg);
  rec.progress = &s.engine->progress();
}

bool same_result(const AccResult& a, const AccResult& b) {
  return a.steps == b.steps && a.collided == b.collided &&
         std::memcmp(&a.min_gap, &b.min_gap, sizeof(float)) == 0 &&
         std::memcmp(&a.min_ttc, &b.min_ttc, sizeof(float)) == 0 &&
         std::memcmp(&a.mean_abs_gap_error, &b.mean_abs_gap_error,
                     sizeof(float)) == 0;
}

/// Per-scenario dispatch-to-report latency (ms), in index order.
std::vector<double> scenario_latency_ms(const Recorder& rec,
                                        Clock::time_point start,
                                        std::uint64_t n) {
  std::vector<double> lat(n, 0.0);
  // Observations of the dispatch counter, in time order (reports are
  // appended under the engine's mutex, so their times are ordered).
  std::vector<std::pair<std::uint64_t, Clock::time_point>> obs;
  obs.push_back({0, start});
  for (const Recorder::Report& r : rec.reports)
    obs.push_back({r.dispatched, r.at});
  for (const Recorder::Report& r : rec.reports) {
    if (r.index >= n) continue;
    // Last observation that saw dispatched <= index.
    auto it = std::upper_bound(
        obs.begin(), obs.end(), r.index,
        [](std::uint64_t j, const auto& o) { return j < o.first; });
    const Clock::time_point dispatched = std::prev(it)->second;
    lat[r.index] =
        std::chrono::duration<double, std::milli>(r.at - dispatched).count();
  }
  return lat;
}

}  // namespace

Result run_campaign(const Options& opt) {
  Result res;
  const std::string path = write_models(opt, false).distnet;
  const std::uint64_t matrix = MatrixSpec::standard().size();
  const std::uint64_t repeats = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(opt.seconds * kScenariosPerSecond / matrix)));
  const std::uint64_t n = matrix * repeats;

  Recorder rec;
  Setup s;
  std::vector<Span> setup_spans;
  const double setup_s = median_setup_s(
      opt, kSetupReps, [&] { tear_down(s); },
      [&] { set_up(opt, path, repeats, rec, s); }, &setup_spans);

  {  // Warm-up: short scenarios on the same model, plans and pool.
    MatrixSpec warm = measured_spec(1);
    for (NamedScenario& t : warm.trajectories)
      t.scenario.duration = kWarmupDuration;
    CampaignConfig cfg;
    cfg.cohort = kCohort;
    cfg.base_seed = Rng::stream_seed(opt.seed, 7);
    CampaignEngine(*s.perception, data::DrivingSceneGenerator{}, AccParams{},
                   warm, cfg)
        .run_range(0, kWarmupScenarios);
  }

  auto measure = [&](CampaignAggregate* agg, std::vector<double>* lat_ms) {
    rec.reset(n);
    const auto t0 = Clock::now();
    {
      SpanScope span("sim.run_range");
      *agg = s.engine->run_range(0, n);
    }
    const double secs = seconds_since(t0);
    *lat_ms = scenario_latency_ms(rec, t0, n);
    return secs;
  };

  CampaignAggregate agg;
  std::vector<double> lat_ms;
  const double steal0 = host_steal_s();
  const double cpu0 = process_cpu_s();
  const double measured_s = measure(&agg, &lat_ms);
  const double cpu_s = process_cpu_s() - cpu0;
  const double steal_s = host_steal_s() - steal0;
  const double rss_mb = peak_rss_mb();

  // Checks: every index reported exactly once; the aggregate equals the
  // fold of the reported results; a fixed slice matches the serial oracle.
  res.attempted = n;
  CampaignAggregate folded(s.engine->spec());
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rec.seen[i] != 1) {
      res.fail_op("scenario " + std::to_string(i) + " reported " +
                  std::to_string(rec.seen[i]) + " times");
      continue;
    }
    folded.add(rec.points[i], rec.results[i]);
  }
  if (folded.to_json() != agg.to_json())
    res.fail_run("run_range aggregate differs from the fold of on_result");
  CampaignAggregate slice_lockstep(s.engine->spec());
  CampaignAggregate slice_serial(s.engine->spec());
  for (int k = 0; k < kSliceSize; ++k) {
    const std::uint64_t i = n * static_cast<std::uint64_t>(k) / kSliceSize;
    AccResult serial = s.engine->run_scenario_serial(i, false);
    // The self-test's deliberately wrong reference.
    if (opt.fault && k == 0) serial.min_gap += 1.f;
    slice_serial.add(s.engine->spec().at(i), serial);
    if (rec.seen[i] != 1) continue;
    slice_lockstep.add(rec.points[i], rec.results[i]);
    if (!same_result(rec.results[i], serial))
      res.fail_op("scenario " + std::to_string(i) +
                  " differs from run_scenario_serial");
  }
  if (slice_lockstep.to_json() != slice_serial.to_json())
    res.fail_run("slice aggregate differs from the serial fold");

  const double items_per_s = n / measured_s;
  res.info.push_back("campaign: run_range over " + std::to_string(n) +
                     " scenarios (" + s.engine->spec().dims_string() +
                     "), cohort " + std::to_string(kCohort) +
                     "; one item per scenario; host steal " +
                     std::to_string(steal_s) + " s");

  const double p50 = windowed_median(
      lat_ms, [](const auto& w) { return percentile(w, 0.5); });
  add_headline(res, opt, {items_per_s, p50, cpu_s * 1e3 / n, setup_s, rss_mb});
  if (!opt.trace) return res;

  CampaignAggregate traced_agg;
  std::vector<double> traced_lat;
  const TracedPhase t =
      run_traced([&] { return measure(&traced_agg, &traced_lat); });
  if (traced_agg.to_json() != agg.to_json())
    res.fail_run("traced run_range aggregate differs from the untraced one");
  using advp::obs::Counter;
  const double sim_steps =
      static_cast<double>(advp::obs::counter_value(Counter::kSimSteps));
  const double scenarios =
      static_cast<double>(advp::obs::counter_value(Counter::kSimScenarios));
  const double refills = static_cast<double>(
      advp::obs::counter_value(Counter::kCampaignCohortRefills));
  add_counter_metrics(res, n, t.seconds);
  add_setup_metrics(res, setup_spans, 0.0);
  const CampaignProgress& pg = s.engine->progress();
  const double predicts = static_cast<double>(pg.batch_predicts.load());
  res.add_layer("sim.steps_per_s", sim_steps / t.seconds, "1/s");
  res.add_layer("sim.cohort_fill",
                predicts > 0 ? pg.steps.load() / (predicts * kCohort) : 0.0,
                "ratio");
  res.add_layer("sim.step_p95_ms", pg.p95_step_ms(), "ms");
  res.add_layer("sim.refills_per_scenario",
                scenarios > 0 ? refills / scenarios : 0.0, "count");
  res.add_layer("models.forward_calls_per_op", predicts / n, "count");

  // Probes: the campaign's own renders and batch-C forwards, timed alone.
  spans::enable(true);
  {
    const MatrixSpec& spec = s.engine->spec();
    Rng rng(Rng::stream_seed(opt.seed, 8));
    std::vector<Tensor> frames;
    for (int k = 0; k < kProbeFrames; ++k) {
      const ScenarioPoint p = spec.at(n * static_cast<std::uint64_t>(k) /
                                      kProbeFrames);
      data::DrivingSceneParams params;
      params.noise_sigma *= spec.noise_scales[static_cast<std::size_t>(p.noise)];
      const data::DrivingSceneGenerator gen(params);
      const data::SceneStyle style = apply_lighting(
          spec.lighting[static_cast<std::size_t>(p.lighting)],
          gen.sample_style(rng));
      const float gap = std::clamp(p.scenario.initial_gap, params.min_distance,
                                   params.max_distance);
      SpanScope span("data.render");
      frames.push_back(gen.render(gap, style, rng).image.to_batch());
    }
    for (int k = 0; k + kCohort <= kProbeFrames; k += kCohort) {
      const Tensor batch = attacks::stack_batch(std::vector<Tensor>(
          frames.begin() + k, frames.begin() + k + kCohort));
      SpanScope span("model.forward");
      s.perception->predict(batch);
    }
  }
  spans::enable(false);
  const std::vector<Span> probes = spans::snapshot();
  spans::clear();
  const SpanTotals render = span_totals(probes, "data.render");
  const SpanTotals fw = span_totals(probes, "model.forward");
  res.add_layer("data.render_ms", render.total_ms / render.count, "ms");
  res.add_layer("models.forward_ms", fw.total_ms / fw.count, "ms");
  res.add_layer("trace.items_per_s_ratio", (n / t.seconds) / items_per_s,
                "ratio");
  return res;
}

}  // namespace e2e
