#include "sim/campaign.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "attacks/cap.h"
#include "attacks/gaussian.h"
#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "models/zoo.h"

namespace advp::sim::campaign {

namespace {

/// Salt separating the attack-noise Rng stream from the scenario stream:
/// the attack hook must not perturb the scene/noise draws or the clean and
/// attacked runs of the same index would diverge in geometry.
constexpr std::uint64_t kAttackSeedSalt = 0x9e3779b97f4a7c15ULL;

/// Deterministic dark "sticker" over the central half of the lead box —
/// the stateless stand-in for a physical patch (RP2-style placement
/// without the per-frame optimization cost).
Tensor static_patch(const Tensor& x, const Box& box) {
  Tensor out = x;
  const int h = x.dim(2), w = x.dim(3);
  const int x0 = std::clamp(static_cast<int>(box.x + 0.25f * box.w), 0, w);
  const int x1 = std::clamp(static_cast<int>(box.x + 0.75f * box.w), 0, w);
  const int y0 = std::clamp(static_cast<int>(box.y + 0.25f * box.h), 0, h);
  const int y1 = std::clamp(static_cast<int>(box.y + 0.75f * box.h), 0, h);
  float* d = out.data();
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  for (int c = 0; c < 3; ++c) {
    const float v = c == 2 ? 0.09f : 0.05f;  // near-black, slightly blue
    for (int yy = y0; yy < y1; ++yy)
      for (int xx = x0; xx < x1; ++xx)
        d[c * plane + static_cast<std::size_t>(yy) * w + xx] = v;
  }
  return out;
}

}  // namespace

// ---- attack families -------------------------------------------------------

const char* attack_family_name(AttackFamily f) {
  switch (f) {
    case AttackFamily::kNone: return "none";
    case AttackFamily::kGaussianNoise: return "gaussian";
    case AttackFamily::kStaticPatch: return "patch";
    case AttackFamily::kCap: return "cap";
  }
  return "?";
}

bool parse_attack_family(const std::string& s, AttackFamily* out) {
  for (AttackFamily f : {AttackFamily::kNone, AttackFamily::kGaussianNoise,
                         AttackFamily::kStaticPatch, AttackFamily::kCap}) {
    if (s == attack_family_name(f)) {
      *out = f;
      return true;
    }
  }
  return false;
}

bool attack_family_stateful(AttackFamily f) {
  return f == AttackFamily::kCap;
}

// ---- scenario matrix -------------------------------------------------------

data::SceneStyle apply_lighting(const LightingRegime& regime,
                                data::SceneStyle style) {
  style.light_gain *= regime.light_gain_scale;
  style.sky_shade = std::clamp(style.sky_shade + regime.sky_shift, 0.f, 1.f);
  style.road_shade =
      std::clamp(style.road_shade + regime.road_shift, 0.f, 1.f);
  return style;
}

MatrixSpec MatrixSpec::standard() {
  MatrixSpec spec;
  spec.lighting = {{"noon", 1.f, 0.f, 0.f},
                   {"dusk", 0.75f, -0.15f, -0.08f},
                   {"night", 0.45f, -0.35f, -0.18f}};
  spec.trajectories = standard_scenarios();
  spec.noise_scales = {1.f, 2.f};
  spec.attacks = {AttackFamily::kNone, AttackFamily::kGaussianNoise,
                  AttackFamily::kStaticPatch};
  return spec;
}

std::uint64_t MatrixSpec::size() const {
  return static_cast<std::uint64_t>(lighting.size()) * trajectories.size() *
         noise_scales.size() * attacks.size() * repeats;
}

ScenarioPoint MatrixSpec::at(std::uint64_t i) const {
  ADVP_CHECK_MSG(i < size(), "MatrixSpec::at: index " << i << " out of "
                                                      << size());
  ScenarioPoint p;
  p.index = i;
  std::uint64_t t = i;
  p.repeat = t % repeats;
  t /= repeats;
  p.attack = static_cast<int>(t % attacks.size());
  t /= attacks.size();
  p.noise = static_cast<int>(t % noise_scales.size());
  t /= noise_scales.size();
  p.trajectory = static_cast<int>(t % trajectories.size());
  t /= trajectories.size();
  p.lighting = static_cast<int>(t % lighting.size());
  p.scenario = trajectories[static_cast<std::size_t>(p.trajectory)].scenario;
  return p;
}

std::string MatrixSpec::dims_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "lighting=%zu x traj=%zu x noise=%zu x attack=%zu x "
                "repeats=%llu",
                lighting.size(), trajectories.size(), noise_scales.size(),
                attacks.size(), static_cast<unsigned long long>(repeats));
  return buf;
}

// ---- streaming aggregation -------------------------------------------------

bool is_hazard(const AccResult& r) {
  if (r.collided || r.min_gap < kHazardMinGap) return true;
  return r.min_ttc < kNoTtcEvent && r.min_ttc < kHazardMinTtc;
}

CampaignAggregate::CampaignAggregate(const MatrixSpec& spec)
    : n_trajectories(static_cast<int>(spec.trajectories.size())),
      n_attacks(static_cast<int>(spec.attacks.size())),
      cells(static_cast<std::size_t>(n_trajectories) * n_attacks) {}

void CampaignAggregate::add(const ScenarioPoint& p, const AccResult& r) {
  ++scenarios;
  steps += static_cast<std::uint64_t>(r.steps);
  const bool hazard = is_hazard(r);
  if (r.collided) ++collisions;
  if (hazard) ++hazards;
  min_gap = std::min(min_gap, r.min_gap);
  const int gb = std::clamp(static_cast<int>(r.min_gap / kGapBinWidth), 0,
                            kGapBins - 1);
  ++gap_hist[static_cast<std::size_t>(gb)];
  if (r.min_ttc >= kNoTtcEvent) {
    // No closing event: the sentinel goes to its own bucket, never into
    // the histogram's top bin.
    ++ttc_no_event;
  } else {
    min_ttc = std::min(min_ttc, r.min_ttc);
    const int tb = static_cast<int>(r.min_ttc / kTtcBinWidth);
    if (tb >= kTtcBins)
      ++ttc_overflow;
    else
      ++ttc_hist[static_cast<std::size_t>(std::max(tb, 0))];
  }
  // Fixed-point (micrometer) sum: int64 addition is exactly associative
  // and commutative, so merge order can never change the aggregate.
  const std::int64_t um = static_cast<std::int64_t>(
      std::llround(static_cast<double>(r.mean_abs_gap_error) * 1e6));
  gap_err_um += um;
  ADVP_CHECK(p.trajectory < n_trajectories && p.attack < n_attacks);
  RegimeCell& cell =
      cells[static_cast<std::size_t>(p.trajectory) * n_attacks + p.attack];
  ++cell.scenarios;
  if (r.collided) ++cell.collisions;
  if (hazard) ++cell.hazards;
  cell.gap_err_um += um;
}

void CampaignAggregate::merge(const CampaignAggregate& other) {
  if (cells.empty() && !other.cells.empty()) {
    n_trajectories = other.n_trajectories;
    n_attacks = other.n_attacks;
    cells.resize(other.cells.size());
  }
  ADVP_CHECK_MSG(other.cells.empty() || (n_trajectories ==
                                             other.n_trajectories &&
                                         n_attacks == other.n_attacks),
                 "CampaignAggregate::merge: mismatched regime grids");
  scenarios += other.scenarios;
  steps += other.steps;
  collisions += other.collisions;
  hazards += other.hazards;
  ttc_no_event += other.ttc_no_event;
  ttc_overflow += other.ttc_overflow;
  min_gap = std::min(min_gap, other.min_gap);
  min_ttc = std::min(min_ttc, other.min_ttc);
  gap_err_um += other.gap_err_um;
  for (int b = 0; b < kGapBins; ++b) gap_hist[b] += other.gap_hist[b];
  for (int b = 0; b < kTtcBins; ++b) ttc_hist[b] += other.ttc_hist[b];
  for (std::size_t c = 0; c < other.cells.size(); ++c) {
    cells[c].scenarios += other.cells[c].scenarios;
    cells[c].collisions += other.cells[c].collisions;
    cells[c].hazards += other.cells[c].hazards;
    cells[c].gap_err_um += other.cells[c].gap_err_um;
  }
}

namespace {

void append_f32(std::string& s, float v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  s += buf;
}

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  s += buf;
}

void append_i64(std::string& s, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  s += buf;
}

/// Positions the cursor after `"key":` in `json`; false when absent.
bool seek_key(const std::string& json, const char* key, const char** cur) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t pos = json.find(pat);
  if (pos == std::string::npos) return false;
  *cur = json.c_str() + pos + pat.size();
  return true;
}

bool parse_u64_field(const std::string& json, const char* key,
                     std::uint64_t* out) {
  const char* cur;
  if (!seek_key(json, key, &cur)) return false;
  char* end;
  *out = std::strtoull(cur, &end, 10);
  return end != cur;
}

bool parse_i64_field(const std::string& json, const char* key,
                     std::int64_t* out) {
  const char* cur;
  if (!seek_key(json, key, &cur)) return false;
  char* end;
  *out = std::strtoll(cur, &end, 10);
  return end != cur;
}

bool parse_f32_field(const std::string& json, const char* key, float* out) {
  const char* cur;
  if (!seek_key(json, key, &cur)) return false;
  char* end;
  *out = std::strtof(cur, &end);
  return end != cur;
}

/// Parses `[n0,n1,...]` at the key into exactly `n` entries.
bool parse_u64_array(const std::string& json, const char* key,
                     std::uint64_t* out, std::size_t n) {
  const char* cur;
  if (!seek_key(json, key, &cur)) return false;
  if (*cur != '[') return false;
  ++cur;
  for (std::size_t i = 0; i < n; ++i) {
    char* end;
    out[i] = std::strtoull(cur, &end, 10);
    if (end == cur) return false;
    cur = end;
    if (*cur == ',') ++cur;
  }
  return *cur == ']';
}

}  // namespace

std::string CampaignAggregate::to_json() const {
  std::string s = "{\"schema\":\"advp.campaign/1\"";
  auto field_u64 = [&s](const char* k, std::uint64_t v) {
    s += ",\"";
    s += k;
    s += "\":";
    append_u64(s, v);
  };
  field_u64("scenarios", scenarios);
  field_u64("steps", steps);
  field_u64("collisions", collisions);
  field_u64("hazards", hazards);
  field_u64("ttc_no_event", ttc_no_event);
  field_u64("ttc_overflow", ttc_overflow);
  s += ",\"min_gap\":";
  append_f32(s, min_gap);
  s += ",\"min_ttc\":";
  append_f32(s, min_ttc);
  s += ",\"gap_err_um\":";
  append_i64(s, gap_err_um);
  field_u64("n_trajectories", static_cast<std::uint64_t>(n_trajectories));
  field_u64("n_attacks", static_cast<std::uint64_t>(n_attacks));
  s += ",\"gap_hist\":[";
  for (int b = 0; b < kGapBins; ++b) {
    if (b) s += ',';
    append_u64(s, gap_hist[b]);
  }
  s += "],\"ttc_hist\":[";
  for (int b = 0; b < kTtcBins; ++b) {
    if (b) s += ',';
    append_u64(s, ttc_hist[b]);
  }
  s += "],\"cells\":[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) s += ',';
    s += '[';
    append_u64(s, cells[c].scenarios);
    s += ',';
    append_u64(s, cells[c].collisions);
    s += ',';
    append_u64(s, cells[c].hazards);
    s += ',';
    append_i64(s, cells[c].gap_err_um);
    s += ']';
  }
  s += "]}";
  return s;
}

bool CampaignAggregate::from_json(const std::string& json,
                                  CampaignAggregate* out) {
  if (json.find("\"advp.campaign/1\"") == std::string::npos) return false;
  CampaignAggregate a;
  std::uint64_t n_traj = 0, n_att = 0;
  if (!parse_u64_field(json, "scenarios", &a.scenarios) ||
      !parse_u64_field(json, "steps", &a.steps) ||
      !parse_u64_field(json, "collisions", &a.collisions) ||
      !parse_u64_field(json, "hazards", &a.hazards) ||
      !parse_u64_field(json, "ttc_no_event", &a.ttc_no_event) ||
      !parse_u64_field(json, "ttc_overflow", &a.ttc_overflow) ||
      !parse_f32_field(json, "min_gap", &a.min_gap) ||
      !parse_f32_field(json, "min_ttc", &a.min_ttc) ||
      !parse_i64_field(json, "gap_err_um", &a.gap_err_um) ||
      !parse_u64_field(json, "n_trajectories", &n_traj) ||
      !parse_u64_field(json, "n_attacks", &n_att))
    return false;
  constexpr std::uint64_t kMaxDim = std::numeric_limits<int>::max();
  if (n_traj > kMaxDim || n_att > kMaxDim) return false;
  a.n_trajectories = static_cast<int>(n_traj);
  a.n_attacks = static_cast<int>(n_att);
  if (!parse_u64_array(json, "gap_hist", a.gap_hist.data(), kGapBins) ||
      !parse_u64_array(json, "ttc_hist", a.ttc_hist.data(), kTtcBins))
    return false;
  const char* cur;
  if (!seek_key(json, "cells", &cur) || *cur != '[') return false;
  ++cur;
  // Both dims fit an int, so the product cannot wrap. Size the table only
  // when the rest of the line can hold that many cells, each at least
  // "[0,0,0,0]": a forged count must not allocate before it fails.
  const std::uint64_t n_cells = n_traj * n_att;
  constexpr std::uint64_t kMinCellBytes = 9;
  const std::size_t left = json.size() - static_cast<std::size_t>(
                                             cur - json.c_str());
  if (n_cells > left / kMinCellBytes) return false;
  a.cells.resize(static_cast<std::size_t>(n_cells));
  for (std::size_t c = 0; c < n_cells; ++c) {
    if (*cur != '[') return false;
    ++cur;
    char* end;
    a.cells[c].scenarios = std::strtoull(cur, &end, 10);
    if (end == cur || *end != ',') return false;
    cur = end + 1;
    a.cells[c].collisions = std::strtoull(cur, &end, 10);
    if (end == cur || *end != ',') return false;
    cur = end + 1;
    a.cells[c].hazards = std::strtoull(cur, &end, 10);
    if (end == cur || *end != ',') return false;
    cur = end + 1;
    a.cells[c].gap_err_um = std::strtoll(cur, &end, 10);
    if (end == cur || *end != ']') return false;
    cur = end + 1;
    if (*cur == ',') ++cur;
  }
  if (*cur != ']') return false;
  *out = std::move(a);
  return true;
}

// ---- progress --------------------------------------------------------------

void CampaignProgress::record_latency_us(std::uint32_t us) {
  const std::uint64_t n = latency_n.fetch_add(1, std::memory_order_relaxed);
  latency_us[n % kLatencyRing].store(us, std::memory_order_relaxed);
}

double CampaignProgress::p95_step_ms() const {
  const std::uint64_t have =
      std::min<std::uint64_t>(latency_n.load(std::memory_order_relaxed),
                              kLatencyRing);
  if (have == 0) return 0.0;
  std::vector<std::uint32_t> v(have);
  for (std::size_t i = 0; i < have; ++i)
    v[i] = latency_us[i].load(std::memory_order_relaxed);
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      std::min<std::size_t>(have - 1, (have * 95) / 100);
  return v[idx] / 1000.0;
}

// ---- engine ----------------------------------------------------------------

struct CampaignEngine::Lane {
  bool active = false;
  ScenarioPoint point;
  Rng rng{0};
  data::DrivingSceneGenerator gen;
  data::SceneStyle style;
  FrameHook hook;
  std::optional<AccStepper> stepper;
};

CampaignEngine::CampaignEngine(models::DistNet& perception,
                               data::DrivingSceneGenerator generator,
                               AccParams acc_params, MatrixSpec spec,
                               CampaignConfig config)
    : perception_(perception),
      generator_(std::move(generator)),
      acc_params_(acc_params),
      spec_(std::move(spec)),
      config_(std::move(config)) {
  ADVP_CHECK_MSG(config_.cohort >= 1, "campaign cohort must be >= 1");
  ADVP_CHECK_MSG(spec_.size() > 0, "campaign matrix is empty");
}

data::DrivingSceneGenerator CampaignEngine::lane_generator(
    const ScenarioPoint& p) const {
  data::DrivingSceneParams params = generator_.params();
  params.noise_sigma *= spec_.noise_scales[static_cast<std::size_t>(p.noise)];
  return data::DrivingSceneGenerator(params);
}

FrameHook CampaignEngine::make_hook(AttackFamily f, std::uint64_t index,
                                    models::DistNet& model) const {
  switch (f) {
    case AttackFamily::kNone:
      return nullptr;
    case AttackFamily::kGaussianNoise: {
      // Lane-local stream, salted so attack noise never perturbs the
      // scene draws of the shared scenario stream.
      auto rng = std::make_shared<Rng>(
          Rng::stream_seed(config_.base_seed ^ kAttackSeedSalt, index));
      attacks::GaussianParams params;
      params.sigma = 0.05f;
      return [rng, params](const Tensor& x, const Box&) {
        return attacks::gaussian_noise_attack(x, params, *rng);
      };
    }
    case AttackFamily::kStaticPatch:
      return [](const Tensor& x, const Box& box) {
        return static_patch(x, box);
      };
    case AttackFamily::kCap: {
      auto cap = std::make_shared<attacks::CapAttack>();
      models::DistNet* m = &model;
      return [cap, m](const Tensor& x, const Box& box) {
        const attacks::GradOracle oracle = [m](const Tensor& frame) {
          m->zero_grad();
          auto r = m->prediction_grad(frame);
          return attacks::LossGrad{r.loss, std::move(r.grad)};
        };
        return cap->attack_frame(x, box, oracle);
      };
    }
  }
  return nullptr;
}

AccResult CampaignEngine::simulate(models::DistNet& model,
                                   const ScenarioPoint& p,
                                   bool record_trace) {
  data::DrivingSceneGenerator gen = lane_generator(p);
  AccSimulator sim(model, gen, acc_params_);
  Rng rng(Rng::stream_seed(config_.base_seed, p.index));
  const FrameHook hook = make_hook(
      spec_.attacks[static_cast<std::size_t>(p.attack)], p.index, model);
  AccRunOptions opts;
  opts.record_trace = record_trace;
  const LightingRegime regime =
      spec_.lighting[static_cast<std::size_t>(p.lighting)];
  opts.style_transform = [regime](data::SceneStyle s) {
    return apply_lighting(regime, s);
  };
  return sim.run(p.scenario, rng, hook, opts);
}

AccResult CampaignEngine::run_scenario_serial(std::uint64_t i,
                                              bool record_trace) {
  return simulate(perception_, spec_.at(i), record_trace);
}

void CampaignEngine::run_eager_one(models::DistNet& model,
                                   const ScenarioPoint& p,
                                   CampaignAggregate& agg) {
  const AccResult res = simulate(model, p, config_.record_trace);
  agg.add(p, res);
  progress_.completed.fetch_add(1, std::memory_order_relaxed);
  progress_.steps.fetch_add(static_cast<std::uint64_t>(res.steps),
                            std::memory_order_relaxed);
  if (config_.on_result) {
    std::lock_guard<std::mutex> lk(result_mutex_);
    config_.on_result(p, res);
  }
}

void CampaignEngine::finish_lane(Lane& lane, CampaignAggregate& agg) {
  const AccResult res = lane.stepper->finish();
  ADVP_OBS_COUNT(kSimSteps, static_cast<std::uint64_t>(res.steps));
  ADVP_OBS_COUNT(kSimScenarios, 1);
  agg.add(lane.point, res);
  progress_.completed.fetch_add(1, std::memory_order_relaxed);
  if (config_.on_result) {
    std::lock_guard<std::mutex> lk(result_mutex_);
    config_.on_result(lane.point, res);
  }
}

void CampaignEngine::run_runner(models::DistNet& model,
                                std::atomic<std::uint64_t>& next,
                                std::uint64_t hi, CampaignAggregate& local) {
  using Clock = std::chrono::steady_clock;
  const int cohort = config_.cohort;

  // Pulls the next index into `lane`; stateful attack families run eagerly
  // right here (they cannot join the cohort) and the pull continues.
  auto pull = [&](Lane& lane) -> bool {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= hi) return false;
      progress_.dispatched.fetch_add(1, std::memory_order_relaxed);
      const ScenarioPoint p = spec_.at(i);
      const AttackFamily fam =
          spec_.attacks[static_cast<std::size_t>(p.attack)];
      if (attack_family_stateful(fam)) {
        run_eager_one(model, p, local);
        continue;
      }
      lane.point = p;
      lane.rng = Rng(Rng::stream_seed(config_.base_seed, i));
      lane.gen = lane_generator(p);
      lane.style =
          apply_lighting(spec_.lighting[static_cast<std::size_t>(p.lighting)],
                         lane.gen.sample_style(lane.rng));
      lane.hook = make_hook(fam, i, model);
      lane.stepper.emplace(p.scenario, acc_params_, config_.record_trace);
      lane.active = true;
      return true;
    }
  };

  std::vector<Lane> lanes(static_cast<std::size_t>(cohort));
  int active_n = 0;
  for (auto& lane : lanes)
    if (pull(lane)) ++active_n;
  if (active_n == 0) return;

  const auto& mc = model.config();
  const std::size_t frame_elems =
      static_cast<std::size_t>(3) * mc.height * mc.width;
  // One batch-C plan per runner, compiled up front: finished lanes keep
  // their stale frame in the batch (outputs ignored, per-item independence
  // guarantees no cross-lane contamination), so the shape — and the plan —
  // never changes even when the cohort goes ragged.
  model.compile_plan(cohort);
  Tensor batch({cohort, 3, mc.height, mc.width});

  while (active_n > 0) {
    const auto t0 = Clock::now();
    int live = 0;
    for (int c = 0; c < cohort; ++c) {
      Lane& lane = lanes[static_cast<std::size_t>(c)];
      if (!lane.active) continue;
      ++live;
      const float render_gap =
          std::clamp(lane.stepper->gap(), lane.gen.params().min_distance,
                     lane.gen.params().max_distance);
      data::DrivingFrame frame =
          lane.gen.render(render_gap, lane.style, lane.rng);
      Tensor x = frame.image.to_batch();
      if (lane.hook) x = lane.hook(x, frame.lead_box);
      std::copy(x.data(), x.data() + frame_elems,
                batch.data() + static_cast<std::size_t>(c) * frame_elems);
    }
    const std::vector<float> preds = model.predict(batch);
    ADVP_OBS_COUNT(kCampaignBatchItems, static_cast<std::uint64_t>(live));
    progress_.batch_predicts.fetch_add(1, std::memory_order_relaxed);
    progress_.steps.fetch_add(static_cast<std::uint64_t>(live),
                              std::memory_order_relaxed);
    for (int c = 0; c < cohort; ++c) {
      Lane& lane = lanes[static_cast<std::size_t>(c)];
      if (!lane.active) continue;
      lane.stepper->step(preds[static_cast<std::size_t>(c)]);
      if (!lane.stepper->done()) continue;
      finish_lane(lane, local);
      if (pull(lane)) {
        ADVP_OBS_COUNT(kCampaignCohortRefills, 1);
      } else {
        lane.active = false;
        --active_n;
      }
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - t0)
                        .count();
    progress_.record_latency_us(static_cast<std::uint32_t>(
        std::min<long long>(us, 0xffffffffLL)));
  }
}

CampaignAggregate CampaignEngine::run_range(std::uint64_t lo,
                                            std::uint64_t hi) {
  ADVP_CHECK_MSG(lo <= hi && hi <= spec_.size(),
                 "CampaignEngine::run_range: bad range [" << lo << ", " << hi
                                                          << ")");
  CampaignAggregate total(spec_);
  progress_.total.store(hi - lo, std::memory_order_relaxed);
  progress_.dispatched.store(0, std::memory_order_relaxed);
  progress_.completed.store(0, std::memory_order_relaxed);
  progress_.steps.store(0, std::memory_order_relaxed);
  progress_.batch_predicts.store(0, std::memory_order_relaxed);
  progress_.latency_n.store(0, std::memory_order_relaxed);
  if (lo == hi) return total;

  ADVP_OBS_SPAN("campaign_range");
  std::atomic<std::uint64_t> next{lo};
  const std::uint64_t n = hi - lo;
  const bool parallel = n >= 2 && max_workers() > 1 && !in_parallel_region();
  const std::size_t runners =
      parallel ? static_cast<std::size_t>(
                     std::min<std::uint64_t>(max_workers(), n))
               : 1;
  // Runner-private perception clones (runner 0 simulates on perception_):
  // forwards cache activations inside the layers, so concurrent runners
  // must not share one DistNet.
  std::vector<models::DistNet> clones;
  clones.reserve(runners - 1);
  for (std::size_t s = 1; s < runners; ++s)
    clones.push_back(models::clone_distnet(perception_));
  std::mutex merge_mutex;
  auto run_one = [&](std::size_t slot) {
    models::DistNet& model = slot == 0 ? perception_ : clones[slot - 1];
    CampaignAggregate local(spec_);
    run_runner(model, next, hi, local);
    std::lock_guard<std::mutex> lk(merge_mutex);
    total.merge(local);
  };
  if (runners <= 1)
    run_one(0);
  else
    parallel_for_slotted(0, runners, runners,
                         [&](std::size_t slot, std::size_t) {
                           run_one(slot);
                         });
  return total;
}

}  // namespace advp::sim::campaign
