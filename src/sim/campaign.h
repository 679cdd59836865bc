// Fleet-scale scenario campaign engine.
//
// The paper's system-level claim (frame-level distance errors become ACC
// hazards, §III-E2) needs statistical weight — Wang et al. (arXiv
// 2308.11894) show frame-level attack success often fails to translate
// into system-level harm, so campaigns sweep *millions* of scenarios, not
// dozens. Three layers make that affordable:
//
//  1. Lockstep cohort execution. A runner owns C scenario "lanes" and
//     advances them together: each lane renders its frame (and applies its
//     per-scenario FrameHook), the frames are stacked into one [C,3,H,W]
//     batch, and a single batch-C DistNet::predict through a precompiled
//     ExecPlan replaces C batch-1 calls. Finished lanes are refilled in
//     place from a shared index counter; until then their rows hold stale
//     frames (predictions ignored), so the batch shape — and therefore the
//     compiled plan — never changes. Stateful attack families (CAP must
//     query perception every frame) fall back to the eager per-scenario
//     path on the same runner.
//
//     Determinism contract: scenario i draws from
//     Rng(Rng::stream_seed(base_seed, i)) exactly as a serial run would,
//     and batched forwards are bit-identical per item to batch-1 forwards
//     (the serve/plan suites' contract) — so lockstep traces are
//     bit-identical to run_scenario_serial(i) at any cohort size, worker
//     count, or shard split.
//
//  2. Procedural scenario matrix + streaming aggregation. MatrixSpec
//     decodes scenario(i) from a mixed-radix regime grid (lighting ×
//     trajectory × sensor-noise × attack family × repeats) so no scenario
//     list is ever materialized, and CampaignAggregate folds results into
//     fixed-size histograms/sums with an associative, commutative merge()
//     — integer counts, int64 fixed-point error sums, float min — keeping
//     memory O(1) in scenario count and the merged result independent of
//     completion order.
//
//  3. Multi-process sharding. tools/advp_campaign splits [0, size()) into
//     contiguous ranges, one shard process each; shards stream heartbeats
//     and a final aggregate over stdout and the coordinator merges them
//     (see docs/campaign.md for the protocol).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "models/distnet.h"
#include "sim/acc_sim.h"
#include "sim/scenarios.h"

namespace advp::sim::campaign {

// ---- attack families -------------------------------------------------------

/// Attack families a campaign can sweep. Stateless families run on the
/// lockstep fast path; stateful ones (CAP keeps a patch and queries the
/// model per frame) take the eager per-scenario fallback.
enum class AttackFamily : int {
  kNone = 0,        ///< clean perception
  kGaussianNoise,   ///< per-frame sensor noise (paper eq. (1))
  kStaticPatch,     ///< fixed dark patch over the lead vehicle
  kCap,             ///< CAP-Attack runtime patch (stateful)
};

/// Stable lowercase name ("none", "gaussian", "patch", "cap").
const char* attack_family_name(AttackFamily f);
/// Parses attack_family_name output; returns false on unknown names.
bool parse_attack_family(const std::string& s, AttackFamily* out);
/// True for families that must query perception frame-by-frame and
/// therefore cannot join a lockstep cohort.
bool attack_family_stateful(AttackFamily f);

// ---- scenario matrix -------------------------------------------------------

/// A deterministic lighting/weather transform of the sampled SceneStyle.
/// Applied *after* style sampling so the RNG stream is untouched and the
/// same scenario index renders the same geometry under every regime.
struct LightingRegime {
  std::string name = "noon";
  float light_gain_scale = 1.f;  ///< multiplies SceneStyle::light_gain
  float sky_shift = 0.f;         ///< added to sky_shade (clamped to [0,1])
  float road_shift = 0.f;        ///< added to road_shade (clamped to [0,1])
};

/// Applies a lighting regime to a sampled style.
data::SceneStyle apply_lighting(const LightingRegime& regime,
                                data::SceneStyle style);

/// One decoded point of the matrix: the scenario to run plus its grid
/// coordinates (used for per-regime aggregation).
struct ScenarioPoint {
  std::uint64_t index = 0;
  AccScenario scenario;
  int lighting = 0;    ///< index into MatrixSpec::lighting
  int trajectory = 0;  ///< index into MatrixSpec::trajectories
  int noise = 0;       ///< index into MatrixSpec::noise_scales
  int attack = 0;      ///< index into MatrixSpec::attacks
  std::uint64_t repeat = 0;
};

/// Indexable procedural scenario grid. scenario(i) is decoded on demand —
/// campaigns never materialize a scenario list, so the matrix can be
/// arbitrarily large. Repeats reuse the same regime cell with a fresh
/// Rng stream (the per-index stream_seed already varies per repeat).
struct MatrixSpec {
  std::vector<LightingRegime> lighting = {{}};
  std::vector<NamedScenario> trajectories = standard_scenarios();
  std::vector<float> noise_scales = {1.f};  ///< noise_sigma multipliers
  std::vector<AttackFamily> attacks = {AttackFamily::kNone};
  std::uint64_t repeats = 1;

  /// The default sweep: 3 lighting regimes x 5 trajectories x 2 noise
  /// levels x {clean, gaussian, patch}.
  static MatrixSpec standard();

  /// Total scenario count (product of all dimensions).
  std::uint64_t size() const;
  /// Decodes index i (repeat fastest, lighting slowest). i < size().
  ScenarioPoint at(std::uint64_t i) const;
  /// Human-readable dims, e.g. "lighting=3 x traj=5 x noise=2 x attack=3
  /// x repeats=1".
  std::string dims_string() const;
};

// ---- streaming aggregation -------------------------------------------------

/// Hazard severity thresholds (beyond outright collision).
inline constexpr float kHazardMinGap = 2.f;  ///< m
inline constexpr float kHazardMinTtc = 1.f;  ///< s

/// True when a run collided, closed under kHazardMinGap, or saw a TTC
/// under kHazardMinTtc. The kNoTtcEvent sentinel is excluded.
bool is_hazard(const AccResult& r);

/// Order-invariant streaming aggregate over campaign results. Every field
/// folds with an associative *and* commutative operation — integer sums,
/// int64 fixed-point sums (micrometers), float min (exact) — so merging
/// per-runner or per-shard partials yields bit-identical results for any
/// partition of the index range and any completion order.
struct CampaignAggregate {
  static constexpr int kGapBins = 25;
  static constexpr float kGapBinWidth = 4.f;   ///< [0, 100) m
  static constexpr int kTtcBins = 20;
  static constexpr float kTtcBinWidth = 0.5f;  ///< [0, 10) s

  std::uint64_t scenarios = 0;
  std::uint64_t steps = 0;
  std::uint64_t collisions = 0;
  std::uint64_t hazards = 0;
  /// Runs whose min_ttc stayed at kNoTtcEvent (never closed on the lead).
  /// Kept out of the histogram so the sentinel cannot pollute the top bin.
  std::uint64_t ttc_no_event = 0;
  std::uint64_t ttc_overflow = 0;  ///< events >= 10 s (benign)
  float min_gap = kNoTtcEvent;     ///< global min over all runs (m)
  float min_ttc = kNoTtcEvent;     ///< global min over TTC *events* (s)
  /// Sum of per-scenario mean |gap error| in micrometers: fixed-point so
  /// the sum is exactly associative (float sums are not).
  std::int64_t gap_err_um = 0;
  std::array<std::uint64_t, kGapBins> gap_hist{};  ///< min_gap per run
  std::array<std::uint64_t, kTtcBins> ttc_hist{};  ///< min_ttc per event

  /// Per-(trajectory x attack) cell, trajectory-major. Attack success per
  /// regime = hazards under an attack family vs hazards under kNone.
  struct RegimeCell {
    std::uint64_t scenarios = 0;
    std::uint64_t collisions = 0;
    std::uint64_t hazards = 0;
    std::int64_t gap_err_um = 0;
  };
  int n_trajectories = 0;
  int n_attacks = 0;
  std::vector<RegimeCell> cells;  ///< [n_trajectories * n_attacks]

  CampaignAggregate() = default;
  /// Sizes the regime-cell table for `spec`.
  explicit CampaignAggregate(const MatrixSpec& spec);

  /// Folds one finished scenario in.
  void add(const ScenarioPoint& point, const AccResult& r);
  /// Merges another partial (same matrix shape) in. Associative and
  /// commutative; ADVP_CHECKs the cell-table shapes match.
  void merge(const CampaignAggregate& other);

  double collision_rate() const {
    return scenarios ? static_cast<double>(collisions) / scenarios : 0.0;
  }
  double hazard_rate() const {
    return scenarios ? static_cast<double>(hazards) / scenarios : 0.0;
  }
  /// Mean |gap error| in meters across all runs.
  double mean_abs_gap_error_m() const {
    return scenarios ? static_cast<double>(gap_err_um) * 1e-6 / scenarios
                     : 0.0;
  }

  /// Single-line JSON (floats printed with "%.9g" so float32 values
  /// round-trip exactly — the shard wire format).
  std::string to_json() const;
  /// Parses to_json() output. Returns false on malformed input, and on a
  /// grid dim above INT_MAX or a cell count the line cannot hold before
  /// the cell table is sized.
  static bool from_json(const std::string& json, CampaignAggregate* out);
};

// ---- engine ----------------------------------------------------------------

struct CampaignConfig {
  int cohort = 8;                  ///< lockstep lanes per runner
  std::uint64_t base_seed = 1234;  ///< scenario i uses stream_seed(seed, i)
  /// Record per-step traces and hand each finished result to on_result
  /// (called under an engine mutex, any runner thread). Off by default:
  /// campaigns aggregate only, keeping memory O(1) in scenario count.
  bool record_trace = false;
  std::function<void(const ScenarioPoint&, const AccResult&)> on_result;
};

/// Shared progress counters, safe to read from a heartbeat thread while
/// run_range is executing.
struct CampaignProgress {
  static constexpr std::size_t kLatencyRing = 512;

  std::atomic<std::uint64_t> total{0};       ///< scenarios in the range
  std::atomic<std::uint64_t> dispatched{0};  ///< indices handed to lanes
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint64_t> batch_predicts{0};
  /// Recent lockstep step latencies (us), lock-free ring.
  std::array<std::atomic<std::uint32_t>, kLatencyRing> latency_us{};
  std::atomic<std::uint64_t> latency_n{0};

  std::uint64_t queue_depth() const {
    const std::uint64_t t = total.load(std::memory_order_relaxed);
    const std::uint64_t d = dispatched.load(std::memory_order_relaxed);
    return d >= t ? 0 : t - d;
  }
  /// p95 over the latency ring (ms); 0 when no samples yet.
  double p95_step_ms() const;
  void record_latency_us(std::uint32_t us);
};

/// Runs matrix ranges against one perception model. Runner threads (one
/// per worker, each on its own DistNet clone) pull scenario indices from a
/// shared counter, so load balances across skewed scenario lengths while
/// every per-scenario result stays bit-identical to a serial run.
class CampaignEngine {
 public:
  CampaignEngine(models::DistNet& perception,
                 data::DrivingSceneGenerator generator, AccParams acc_params,
                 MatrixSpec spec, CampaignConfig config = {});

  /// Runs scenarios [lo, hi) of the matrix and returns their aggregate.
  /// Memory is O(cohort x workers), independent of hi - lo.
  CampaignAggregate run_range(std::uint64_t lo, std::uint64_t hi);
  CampaignAggregate run_all() { return run_range(0, spec_.size()); }

  /// The determinism oracle: runs scenario i exactly as the serial
  /// single-scenario path would (same Rng stream, generator, style
  /// transform, and attack hook as a lockstep lane). Lockstep traces must
  /// be bit-identical to this.
  AccResult run_scenario_serial(std::uint64_t i, bool record_trace = true);

  const MatrixSpec& spec() const { return spec_; }
  const CampaignConfig& config() const { return config_; }
  CampaignProgress& progress() { return progress_; }

 private:
  struct Lane;

  /// Builds the FrameHook for scenario `index` of family `f` (lane-local
  /// RNG streams; CAP binds to `model`). Returns nullptr for kNone.
  FrameHook make_hook(AttackFamily f, std::uint64_t index,
                      models::DistNet& model) const;
  data::DrivingSceneGenerator lane_generator(const ScenarioPoint& p) const;

  void run_runner(models::DistNet& model, std::atomic<std::uint64_t>& next,
                  std::uint64_t hi, CampaignAggregate& local);
  /// Runs scenario `p` alone on `model`: the stream, generator, style
  /// transform and attack hook a lockstep lane would use.
  AccResult simulate(models::DistNet& model, const ScenarioPoint& p,
                     bool record_trace);
  /// simulate() for a stateful family inside a runner, folded into `agg`.
  void run_eager_one(models::DistNet& model, const ScenarioPoint& p,
                     CampaignAggregate& agg);
  void finish_lane(Lane& lane, CampaignAggregate& agg);

  models::DistNet& perception_;
  data::DrivingSceneGenerator generator_;
  AccParams acc_params_;
  MatrixSpec spec_;
  CampaignConfig config_;
  CampaignProgress progress_;
  std::mutex result_mutex_;  ///< serializes config_.on_result calls
};

}  // namespace advp::sim::campaign
