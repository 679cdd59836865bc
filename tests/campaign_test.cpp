// Campaign-engine tests: the determinism and aggregation contracts behind
// fleet-scale sweeps (sim/campaign.h).
//
//  - MatrixSpec: index decode covers the grid exactly, deterministically.
//  - CampaignAggregate: merge is associative/commutative (bit-identical
//    JSON for any partition and fold order), the kNoTtcEvent sentinel gets
//    its own bucket, and to_json round-trips through from_json.
//  - CampaignEngine: aggregates are bit-identical across shard splits
//    (1/2/4 ranges) and worker counts; lockstep traces are bit-identical
//    to the serial oracle across precision tiers x workers x cohort sizes,
//    and so are CAP scenarios, which leave the cohort; cohort refill under
//    scenario-length skew loses nothing.
//  - tools/advp_campaign (via ADVP_CAMPAIGN_BIN): a healthy 2-shard run
//    merges to the single-process aggregate; a chaos-killed shard makes
//    the coordinator report the dead range and fail instead of silently
//    merging partial results; `--cohort 0` exits 2 as a usage error.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/obs.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "models/zoo.h"
#include "nn/precision.h"
#include "sim/campaign.h"

namespace advp::sim::campaign {
namespace {

// ---- matrix ---------------------------------------------------------------

TEST(MatrixSpecTest, SizeIsDimensionProduct) {
  const MatrixSpec spec = MatrixSpec::standard();
  EXPECT_EQ(spec.size(), 3u * 5u * 2u * 3u);
  MatrixSpec rep = spec;
  rep.repeats = 7;
  EXPECT_EQ(rep.size(), spec.size() * 7u);
}

TEST(MatrixSpecTest, IndexDecodeCoversGridExactlyOnce) {
  MatrixSpec spec = MatrixSpec::standard();
  spec.repeats = 2;
  std::map<std::tuple<int, int, int, int, std::uint64_t>, int> seen;
  for (std::uint64_t i = 0; i < spec.size(); ++i) {
    const ScenarioPoint p = spec.at(i);
    EXPECT_EQ(p.index, i);
    ++seen[{p.lighting, p.trajectory, p.noise, p.attack, p.repeat}];
  }
  EXPECT_EQ(seen.size(), spec.size());
  for (const auto& [coords, count] : seen) EXPECT_EQ(count, 1);
}

TEST(MatrixSpecTest, RepeatVariesFastestLightingSlowest) {
  MatrixSpec spec = MatrixSpec::standard();
  spec.repeats = 3;
  EXPECT_EQ(spec.at(0).repeat, 0u);
  EXPECT_EQ(spec.at(1).repeat, 1u);
  EXPECT_EQ(spec.at(2).repeat, 2u);
  EXPECT_EQ(spec.at(3).attack, 1);  // next radix up
  // Lighting only changes once a full inner block is consumed.
  const std::uint64_t block = spec.size() / spec.lighting.size();
  EXPECT_EQ(spec.at(block - 1).lighting, 0);
  EXPECT_EQ(spec.at(block).lighting, 1);
}

TEST(MatrixSpecTest, DecodeIsDeterministic) {
  const MatrixSpec spec = MatrixSpec::standard();
  for (std::uint64_t i : {0ull, 17ull, 89ull}) {
    const ScenarioPoint a = spec.at(i);
    const ScenarioPoint b = spec.at(i);
    EXPECT_EQ(a.lighting, b.lighting);
    EXPECT_EQ(a.trajectory, b.trajectory);
    EXPECT_EQ(a.noise, b.noise);
    EXPECT_EQ(a.attack, b.attack);
    EXPECT_EQ(a.scenario.initial_gap, b.scenario.initial_gap);
    EXPECT_EQ(a.scenario.duration, b.scenario.duration);
  }
}

// ---- aggregation ----------------------------------------------------------

// Deterministic synthetic result for index i: exercises collisions,
// hazards, the TTC sentinel, and every histogram region.
AccResult synthetic_result(std::uint64_t i) {
  AccResult r;
  r.steps = 100 + static_cast<int>(i % 37);
  r.min_gap = 0.5f + 3.7f * static_cast<float>(i % 31);
  r.min_ttc = (i % 5 == 0) ? kNoTtcEvent
                           : 0.3f + 0.9f * static_cast<float>(i % 13);
  r.mean_abs_gap_error = 0.25f + 0.01f * static_cast<float>(i % 17);
  r.collided = (i % 11 == 0);
  return r;
}

TEST(CampaignAggregateTest, MergeIsAssociativeAndCommutative) {
  const MatrixSpec spec = MatrixSpec::standard();
  const std::uint64_t n = spec.size();

  // One-shot fold (the reference)...
  CampaignAggregate whole(spec);
  for (std::uint64_t i = 0; i < n; ++i)
    whole.add(spec.at(i), synthetic_result(i));

  // ...vs three partials merged in every order, including a fold where
  // indices were added to the partials round-robin (completion-order
  // independence, not just partition independence).
  CampaignAggregate a(spec), b(spec), c(spec);
  for (std::uint64_t i = 0; i < n; ++i) {
    CampaignAggregate& part = (i % 3 == 0) ? a : (i % 3 == 1) ? b : c;
    part.add(spec.at(i), synthetic_result(i));
  }
  CampaignAggregate ab = a;
  ab.merge(b);
  CampaignAggregate ab_c = ab;
  ab_c.merge(c);
  CampaignAggregate bc = b;
  bc.merge(c);
  CampaignAggregate a_bc = a;
  a_bc.merge(bc);
  CampaignAggregate cba = c;
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.to_json(), whole.to_json());
  EXPECT_EQ(a_bc.to_json(), whole.to_json());
  EXPECT_EQ(cba.to_json(), whole.to_json());
}

TEST(CampaignAggregateTest, MergeIntoEmptyAdoptsShape) {
  const MatrixSpec spec = MatrixSpec::standard();
  CampaignAggregate part(spec);
  for (std::uint64_t i = 0; i < 10; ++i)
    part.add(spec.at(i), synthetic_result(i));
  CampaignAggregate empty;  // default-constructed, no cell table yet
  empty.merge(part);
  EXPECT_EQ(empty.to_json(), part.to_json());
}

TEST(CampaignAggregateTest, TtcSentinelGetsOwnBucket) {
  const MatrixSpec spec = MatrixSpec::standard();
  CampaignAggregate agg(spec);
  AccResult never_closed;
  never_closed.min_gap = 35.f;
  never_closed.min_ttc = kNoTtcEvent;
  never_closed.steps = 100;
  agg.add(spec.at(0), never_closed);

  EXPECT_EQ(agg.ttc_no_event, 1u);
  EXPECT_EQ(agg.ttc_overflow, 0u);
  for (std::uint64_t bin : agg.ttc_hist) EXPECT_EQ(bin, 0u);
  // The sentinel must not masquerade as a real (huge) TTC observation.
  EXPECT_EQ(agg.min_ttc, kNoTtcEvent);

  AccResult closed = never_closed;
  closed.min_ttc = 3.2f;
  agg.add(spec.at(1), closed);
  EXPECT_EQ(agg.ttc_no_event, 1u);
  EXPECT_EQ(agg.ttc_hist[static_cast<int>(3.2f / 0.5f)], 1u);
  EXPECT_FLOAT_EQ(agg.min_ttc, 3.2f);

  AccResult distant = never_closed;
  distant.min_ttc = 42.f;  // real event beyond the histogram range
  agg.add(spec.at(2), distant);
  EXPECT_EQ(agg.ttc_overflow, 1u);
}

TEST(CampaignAggregateTest, HazardDefinition) {
  AccResult r;
  r.min_gap = 30.f;
  r.min_ttc = kNoTtcEvent;
  EXPECT_FALSE(is_hazard(r));
  r.min_gap = 1.5f;  // under kHazardMinGap
  EXPECT_TRUE(is_hazard(r));
  r.min_gap = 30.f;
  r.min_ttc = 0.8f;  // under kHazardMinTtc
  EXPECT_TRUE(is_hazard(r));
  r.min_ttc = kNoTtcEvent;
  r.collided = true;
  EXPECT_TRUE(is_hazard(r));
}

TEST(CampaignAggregateTest, JsonRoundTripIsExact) {
  const MatrixSpec spec = MatrixSpec::standard();
  CampaignAggregate agg(spec);
  for (std::uint64_t i = 0; i < spec.size(); ++i)
    agg.add(spec.at(i), synthetic_result(i));
  // Exercise a value with no short decimal representation.
  AccResult odd;
  odd.min_gap = 0.1f + 0.2f;
  odd.min_ttc = 1.f / 3.f;
  odd.mean_abs_gap_error = 0.7071067811f;
  odd.steps = 1;
  agg.add(spec.at(0), odd);

  const std::string json = agg.to_json();
  CampaignAggregate parsed;
  ASSERT_TRUE(CampaignAggregate::from_json(json, &parsed));
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.scenarios, agg.scenarios);
  EXPECT_EQ(parsed.min_gap, agg.min_gap);
  EXPECT_EQ(parsed.min_ttc, agg.min_ttc);
  EXPECT_EQ(parsed.gap_err_um, agg.gap_err_um);
}

TEST(CampaignAggregateTest, FromJsonRejectsGarbage) {
  CampaignAggregate out;
  EXPECT_FALSE(CampaignAggregate::from_json("", &out));
  EXPECT_FALSE(CampaignAggregate::from_json("{\"scenarios\": 3}", &out));
  EXPECT_FALSE(CampaignAggregate::from_json("not json at all", &out));

  // An empty aggregate's line with its grid dims and cells swapped out.
  auto with_grid = [](const std::string& dims, const std::string& cells) {
    std::string json = CampaignAggregate().to_json();
    const std::string grid = "\"n_trajectories\":0,\"n_attacks\":0";
    const std::string empty = "\"cells\":[]";
    json.replace(json.find(grid), grid.size(), dims);
    json.replace(json.find(empty), empty.size(), "\"cells\":" + cells);
    return json;
  };
  ASSERT_TRUE(CampaignAggregate::from_json(
      with_grid("\"n_trajectories\":1,\"n_attacks\":1", "[[1,0,0,0]]"),
      &out));
  EXPECT_EQ(out.cells.size(), 1u);
  // 2^40 cells claimed by a one-cell line: rejected before the table is
  // sized, not thrown as bad_alloc.
  EXPECT_FALSE(CampaignAggregate::from_json(
      with_grid("\"n_trajectories\":1048576,\"n_attacks\":1048576",
                "[[1,0,0,0]]"),
      &out));
  // 2^32 x 2^32 wraps to zero cells in 64 bits.
  EXPECT_FALSE(CampaignAggregate::from_json(
      with_grid("\"n_trajectories\":4294967296,\"n_attacks\":4294967296",
                "[]"),
      &out));
  // 2^31 narrows to INT_MIN.
  EXPECT_FALSE(CampaignAggregate::from_json(
      with_grid("\"n_trajectories\":2147483648,\"n_attacks\":0", "[]"),
      &out));
}

// ---- engine ---------------------------------------------------------------

// Short trajectories keep each scenario to ~60-90 control steps so the
// matrix sweeps below stay fast; mixed durations exercise lane refill.
std::vector<NamedScenario> short_trajectories() {
  AccScenario steady;
  steady.initial_gap = 30.f;
  steady.v_ego = 16.f;
  steady.v_lead = 15.f;
  steady.duration = 6.f;
  AccScenario brake;
  brake.initial_gap = 32.f;
  brake.v_ego = 17.f;
  brake.v_lead = 15.f;
  brake.lead_brake_at = 2.f;
  brake.lead_brake = -2.5f;
  brake.lead_brake_until = 4.f;
  brake.duration = 8.f;
  return {{"steady_short", steady}, {"brake_short", brake}};
}

MatrixSpec small_spec() {
  MatrixSpec spec;
  spec.lighting = {{"noon", 1.f, 0.f, 0.f}, {"night", 0.45f, -0.35f, -0.18f}};
  spec.trajectories = short_trajectories();
  spec.noise_scales = {1.f};
  spec.attacks = {AttackFamily::kNone, AttackFamily::kGaussianNoise};
  return spec;  // size 8
}

class CampaignEngineTest : public ::testing::Test {
 protected:
  // Untrained seed-7 DistNet: deterministic weights without a training
  // pass (the campaign contract is about bit-identity, not accuracy).
  static void SetUpTestSuite() {
    Rng rng(7);
    model_ = new models::DistNet(models::DistNetConfig{}, rng);
    Rng crng(8);
    const auto& dc = model_->config();
    model_->calibrate({Tensor::rand({2, 3, dc.height, dc.width}, crng),
                       Tensor::rand({2, 3, dc.height, dc.width}, crng)});
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  CampaignEngine make_engine(MatrixSpec spec, CampaignConfig cfg = {}) {
    return CampaignEngine(*model_, data::DrivingSceneGenerator{}, AccParams{},
                          std::move(spec), std::move(cfg));
  }

  // Runs the whole matrix with traces on, collecting per-index results via
  // on_result (fired under the engine's result mutex, so the plain vector
  // writes are safe), and checks every index completed exactly once.
  std::vector<AccResult> run_collecting(const MatrixSpec& spec,
                                        CampaignConfig cfg) {
    const std::uint64_t n = spec.size();
    std::vector<AccResult> results(n);
    std::vector<int> seen(n, 0);
    cfg.record_trace = true;
    cfg.on_result = [&](const ScenarioPoint& p, const AccResult& r) {
      results[p.index] = r;
      ++seen[p.index];
    };
    CampaignEngine engine = make_engine(spec, cfg);
    engine.run_range(0, n);
    for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << i;
    return results;
  }

  static models::DistNet* model_;
};

models::DistNet* CampaignEngineTest::model_ = nullptr;

TEST_F(CampaignEngineTest, ShardSplitAndWorkerCountInvariance) {
  const MatrixSpec spec = small_spec();
  const std::uint64_t n = spec.size();
  ASSERT_EQ(n, 8u);

  std::string whole_json;
  {
    ScopedMaxWorkers workers(4);
    CampaignEngine engine = make_engine(spec);
    whole_json = engine.run_range(0, n).to_json();
  }
  {
    // 2-way split, merged out of order, at a different worker count.
    ScopedMaxWorkers workers(1);
    CampaignEngine engine = make_engine(spec);
    CampaignAggregate hi = engine.run_range(n / 2, n);
    CampaignAggregate lo = engine.run_range(0, n / 2);
    hi.merge(lo);
    EXPECT_EQ(hi.to_json(), whole_json);
  }
  {
    // 4-way uneven split with a different cohort size.
    ScopedMaxWorkers workers(2);
    CampaignConfig cfg;
    cfg.cohort = 3;
    CampaignEngine engine = make_engine(spec, cfg);
    CampaignAggregate merged = engine.run_range(0, 3);
    merged.merge(engine.run_range(3, 5));
    merged.merge(engine.run_range(5, 6));
    merged.merge(engine.run_range(6, n));
    EXPECT_EQ(merged.to_json(), whole_json);
  }
}

void expect_traces_identical(const AccResult& got, const AccResult& want,
                             std::uint64_t index) {
  ASSERT_EQ(got.trace.size(), want.trace.size()) << "scenario " << index;
  for (std::size_t k = 0; k < got.trace.size(); ++k) {
    const AccStepLog& g = got.trace[k];
    const AccStepLog& w = want.trace[k];
    ASSERT_EQ(g.true_gap, w.true_gap) << "scenario " << index << " step " << k;
    ASSERT_EQ(g.predicted_gap, w.predicted_gap)
        << "scenario " << index << " step " << k;
    ASSERT_EQ(g.v_ego, w.v_ego) << "scenario " << index << " step " << k;
    ASSERT_EQ(g.accel_cmd, w.accel_cmd)
        << "scenario " << index << " step " << k;
  }
  EXPECT_EQ(got.min_gap, want.min_gap);
  EXPECT_EQ(got.min_ttc, want.min_ttc);
  EXPECT_EQ(got.mean_abs_gap_error, want.mean_abs_gap_error);
  EXPECT_EQ(got.collided, want.collided);
}

TEST_F(CampaignEngineTest, LockstepTracesMatchSerialAcrossWorkersAndCohorts) {
  const MatrixSpec spec = small_spec();
  const std::uint64_t n = spec.size();

  // Serial oracle, computed once.
  std::vector<AccResult> oracle;
  {
    CampaignEngine engine = make_engine(spec);
    for (std::uint64_t i = 0; i < n; ++i)
      oracle.push_back(engine.run_scenario_serial(i));
  }

  for (int workers : {1, 4})
    for (int cohort : {1, 4, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " cohort=" + std::to_string(cohort));
      ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
      CampaignConfig cfg;
      cfg.cohort = cohort;
      const std::vector<AccResult> got = run_collecting(spec, cfg);
      for (std::uint64_t i = 0; i < n; ++i)
        expect_traces_identical(got[i], oracle[i], i);
    }
}

TEST_F(CampaignEngineTest, LockstepTracesMatchSerialAcrossPrecisionTiers) {
  const MatrixSpec spec = small_spec();
  const std::uint64_t n = spec.size();

  // The fp32 tier is covered above; this is the int8 pass. Process-global
  // scope: campaign runner threads inherit the tier.
  nn::PrecisionScope scope(GemmPrecision::kInt8);
  std::vector<AccResult> oracle;
  {
    CampaignEngine engine = make_engine(spec);
    for (std::uint64_t i = 0; i < n; ++i)
      oracle.push_back(engine.run_scenario_serial(i));
  }
  ScopedMaxWorkers scoped(4);
  CampaignConfig cfg;
  cfg.cohort = 8;
  const std::vector<AccResult> got = run_collecting(spec, cfg);
  for (std::uint64_t i = 0; i < n; ++i)
    expect_traces_identical(got[i], oracle[i], i);
}

// CAP queries perception every frame, so its scenarios leave the cohort
// and run on the runner's own clone (the eager split in the runner's
// pull). Both halves of a mixed matrix match the serial oracle.
TEST_F(CampaignEngineTest, CapScenariosMatchSerialAcrossWorkers) {
  MatrixSpec spec;
  spec.lighting = {{"noon", 1.f, 0.f, 0.f}};
  spec.trajectories = short_trajectories();
  spec.noise_scales = {1.f};
  spec.attacks = {AttackFamily::kNone, AttackFamily::kCap};
  const std::uint64_t n = spec.size();
  ASSERT_EQ(n, 4u);

  std::vector<AccResult> oracle;
  {
    CampaignEngine engine = make_engine(spec);
    for (std::uint64_t i = 0; i < n; ++i)
      oracle.push_back(engine.run_scenario_serial(i));
  }
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ScopedMaxWorkers scoped(static_cast<std::size_t>(workers));
    const std::vector<AccResult> got = run_collecting(spec, {});
    for (std::uint64_t i = 0; i < n; ++i)
      expect_traces_identical(got[i], oracle[i], i);
  }
}

TEST_F(CampaignEngineTest, CohortRefillUnderLengthSkewLosesNothing) {
  // 3 s vs 12 s trajectories: short lanes finish and refill several times
  // while long lanes are still running.
  AccScenario quick;
  quick.initial_gap = 30.f;
  quick.v_ego = 16.f;
  quick.v_lead = 15.f;
  quick.duration = 3.f;
  AccScenario slow = quick;
  slow.duration = 12.f;
  MatrixSpec spec;
  spec.trajectories = {{"quick", quick}, {"slow", slow}};
  spec.repeats = 4;  // size 8: interleaved quick/slow indices
  const std::uint64_t n = spec.size();

  obs::reset();
  obs::enable(true);
  const std::uint64_t refills_before =
      obs::counter_value(obs::Counter::kCampaignCohortRefills);

  CampaignConfig cfg;
  cfg.cohort = 4;
  ScopedMaxWorkers workers(1);  // one runner: all 8 through one cohort
  const std::vector<AccResult> got = run_collecting(spec, cfg);
  obs::enable(false);

  EXPECT_GT(obs::counter_value(obs::Counter::kCampaignCohortRefills),
            refills_before);
  CampaignEngine oracle_engine = make_engine(spec);
  for (std::uint64_t i = 0; i < n; ++i) {
    const AccResult want = oracle_engine.run_scenario_serial(i);
    expect_traces_identical(got[i], want, i);
  }
}

// ---- the sharding CLI (coordinator + chaos) -------------------------------

#ifdef ADVP_CAMPAIGN_BIN

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Small matrix the CLI can finish quickly: 1 lighting x 5 trajectories x
// 1 noise x {none} = 5 scenarios.
std::string cli_args() {
  return " --lighting 1 --noise 1 --attacks none --seed 99 --cohort 4";
}

TEST(CampaignCliTest, TwoShardRunMergesToSingleProcessAggregate) {
  const std::string out1 = ::testing::TempDir() + "campaign_s1.json";
  const std::string out2 = ::testing::TempDir() + "campaign_s2.json";
  const std::string cmd1 = std::string("ADVP_THREADS=1 " ADVP_CAMPAIGN_BIN) +
                           cli_args() + " --shards 1 --quiet --out " + out1 +
                           " 2> /dev/null";
  const std::string cmd2 = std::string("ADVP_THREADS=1 " ADVP_CAMPAIGN_BIN) +
                           cli_args() + " --shards 2 --quiet --out " + out2 +
                           " 2> /dev/null";
  ASSERT_EQ(std::system(cmd1.c_str()), 0);
  ASSERT_EQ(std::system(cmd2.c_str()), 0);

  const std::string json1 = slurp(out1);
  const std::string json2 = slurp(out2);
  ASSERT_FALSE(json1.empty());
  EXPECT_EQ(json1, json2);

  CampaignAggregate agg;
  ASSERT_TRUE(CampaignAggregate::from_json(json1, &agg));
  EXPECT_EQ(agg.scenarios, 5u);  // zero lost
  std::remove(out1.c_str());
  std::remove(out2.c_str());
}

TEST(CampaignCliTest, KilledShardReportsDeadRangeAndFails) {
  const std::string out = ::testing::TempDir() + "campaign_chaos.json";
  const std::string err = ::testing::TempDir() + "campaign_chaos.err";
  std::remove(out.c_str());
  const std::string cmd =
      std::string("ADVP_THREADS=1 ADVP_CAMPAIGN_CHAOS_ABORT_SHARD=1 "
                  "ADVP_CAMPAIGN_CHAOS_ABORT_AFTER=1 " ADVP_CAMPAIGN_BIN) +
      cli_args() + " --shards 2 --quiet --out " + out + " 2> " + err;
  EXPECT_NE(std::system(cmd.c_str()), 0);

  const std::string stderr_text = slurp(err);
  EXPECT_NE(stderr_text.find("DEAD SHARD 1"), std::string::npos)
      << stderr_text;
  // The coordinator must not write a merged aggregate from partial data.
  EXPECT_TRUE(slurp(out).empty());
  std::remove(err.c_str());
}

// A cohort below 1 is a usage error (exit 2), caught before any engine or
// shard is built, not an exception out of main.
TEST(CampaignCliTest, CohortBelowOneIsAUsageError) {
  const std::string cmd = std::string(ADVP_CAMPAIGN_BIN) +
                          " --cohort 0 --lighting 1 --noise 1 --attacks none"
                          " --quiet 2> /dev/null";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

#endif  // ADVP_CAMPAIGN_BIN

}  // namespace
}  // namespace advp::sim::campaign
