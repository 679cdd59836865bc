// Closed-loop ACC simulation: the system-level substrate behind CAP-Attack
// (paper §III-E2 targets "DNN-based Adaptive Cruise Control systems").
//
// Loop per 0.1 s control step:
//   lead kinematics -> renderer -> (optional attack) -> (optional defense)
//   -> DistNet distance estimate -> OpenPilot-style longitudinal controller
//   -> follower acceleration.
// The controller tracks a desired gap d* = d_min + tau * v_ego and outputs
// clamped acceleration; safety metrics record minimum gap, minimum TTC and
// collisions — showing how frame-level distance errors become hazards.
//
// The step state machine (filters, control law, physics, safety metrics)
// lives in AccStepper so the serial loop here and the campaign engine's
// lockstep lanes (sim/campaign.h) share one implementation and are
// bit-identical by construction.
#pragma once

#include <functional>
#include <vector>

#include "core/rng.h"
#include "data/driving_scene.h"
#include "models/distnet.h"

namespace advp::sim {

/// AccResult::min_ttc when the run never had a closing event (ego faster
/// than lead by > 0.1 m/s): "no TTC" is reported as this sentinel, not as
/// a huge-but-real time. Aggregators must bucket it separately instead of
/// letting it pollute the top histogram bin.
inline constexpr float kNoTtcEvent = 1e9f;

struct AccParams {
  float dt = 0.1f;           ///< control period (s)
  float tau_headway = 1.6f;  ///< desired time headway (s)
  float d_min = 9.f;         ///< standstill gap (m)
  float kp = 0.35f;          ///< gap-error gain -> accel
  float kv = 1.4f;           ///< closing-speed gain -> accel
  float max_accel = 2.f;     ///< m/s^2
  float max_brake = -3.5f;   ///< m/s^2 (AEB-less, like stock OpenPilot ACC)
  float v_des = 20.f;        ///< cruise set-speed (m/s)
  /// First-order lead-track filter (production ACCs Kalman-filter the
  /// lead; raw per-frame CNN outputs are too noisy to differentiate).
  float gap_filter_alpha = 0.45f;      ///< innovation weight on the gap
  float closing_filter_alpha = 0.3f;   ///< innovation weight on d(gap)/dt
};

struct AccScenario {
  float initial_gap = 40.f;   ///< m
  float v_ego = 18.f;         ///< m/s
  float v_lead = 15.f;        ///< m/s
  float lead_brake_at = -1.f; ///< time (s) the lead starts braking; <0 = never
  float lead_brake = -2.f;    ///< lead deceleration when braking (m/s^2)
  float lead_brake_until = 1e9f;  ///< braking stops at this time (s)
  float cut_in_at = -1.f;     ///< time (s) a vehicle cuts in; <0 = never
  float cut_in_gap = 15.f;    ///< gap to the cut-in vehicle (m)
  float cut_out_at = -1.f;    ///< time (s) the lead exits the lane; <0 = never
  float cut_out_gap = 60.f;   ///< gap to the next-ahead vehicle it reveals (m)
  float duration = 12.f;      ///< s
};

/// Hook applied to each rendered frame before the perception model;
/// receives the frame tensor and the true lead box (what CAP tracks).
using FrameHook =
    std::function<Tensor(const Tensor& frame, const Box& lead_box)>;

/// Longitudinal control law: desired-gap tracking bounded by cruise-speed
/// tracking, clamped to actuator limits. Exposed for direct unit testing.
float longitudinal_accel(const AccParams& params, float gap_est, float v_ego,
                         float closing_speed);

struct AccStepLog {
  float time = 0.f;
  float true_gap = 0.f;
  float predicted_gap = 0.f;
  float v_ego = 0.f;
  float v_lead = 0.f;
  float accel_cmd = 0.f;
};

struct AccResult {
  std::vector<AccStepLog> trace;  ///< empty when run with record_trace=false
  float min_gap = 0.f;
  float min_ttc = 0.f;  ///< min time-to-collision (s); kNoTtcEvent = none
  float mean_abs_gap_error = 0.f;
  int steps = 0;  ///< control steps simulated (valid with trace off too)
  bool collided = false;
};

/// Per-run knobs orthogonal to the scenario itself.
struct AccRunOptions {
  /// Record the per-step trace in AccResult::trace. The campaign engine
  /// turns this off so a run costs O(1) memory; min_gap / min_ttc /
  /// mean_abs_gap_error are computed streaming either way.
  bool record_trace = true;
  /// Applied to the sampled SceneStyle before the first frame — campaign
  /// lighting/weather regimes are deterministic transforms of the sampled
  /// style, so the RNG stream stays untouched.
  std::function<data::SceneStyle(data::SceneStyle)> style_transform;
};

/// The per-scenario step state machine: everything between "prediction
/// ready" and "physics advanced" (track filters, control law, trace append,
/// lead maneuvers, kinematics, safety metrics). Rendering and perception
/// stay outside so the campaign engine can batch them across lanes.
///
/// Usage: while (!done()) { pred = perceive(render(gap())); step(pred); }
/// then finish(). Float-op order matches the original AccSimulator::run
/// loop exactly; any change here is a determinism-contract break.
class AccStepper {
 public:
  AccStepper(const AccScenario& scenario, const AccParams& params,
             bool record_trace = true);

  /// True (unclamped) gap to render this step.
  float gap() const { return gap_; }
  /// True once the scenario collided or its duration elapsed.
  bool done() const { return done_; }
  /// Steps consumed so far (== predictions fed in).
  int steps() const { return steps_; }

  /// Consumes one distance prediction: filter update -> control -> trace ->
  /// physics -> safety metrics. Must not be called once done().
  void step(float predicted_gap);

  /// Finalizes mean_abs_gap_error and returns the result (moves the trace
  /// out; the stepper is spent afterwards).
  AccResult finish();

 private:
  AccScenario sc_;
  AccParams params_;
  bool record_trace_;
  AccResult res_;
  float gap_, v_ego_, v_lead_;
  float gap_track_, closing_track_ = 0.f;
  double abs_err_acc_ = 0.0;
  int steps_ = 0;
  int k_ = 0;
  int n_steps_;
  bool done_ = false;
};

/// Per-scenario attack builder for AccSimulator::run_batch: receives the
/// scenario index and the worker's private DistNet (stateful attacks like
/// CAP must query the same instance the simulator perceives with). Return
/// nullptr for a clean run.
using ScenarioAttackFactory =
    std::function<FrameHook(std::size_t index, models::DistNet& perception)>;

class AccSimulator {
 public:
  AccSimulator(models::DistNet& perception,
               data::DrivingSceneGenerator generator, AccParams params = {});

  /// Runs a scenario; `attack` (optional) perturbs each frame in the loop.
  AccResult run(const AccScenario& scenario, Rng& rng,
                const FrameHook& attack = nullptr,
                const AccRunOptions& options = {});

  /// Runs `scenarios` in parallel, one result per scenario. Scenario i
  /// draws from Rng(Rng::stream_seed(base_seed, i)) and every worker
  /// simulates on its own perception clone, so results are bit-identical
  /// to serial run() calls on those streams at any worker count.
  std::vector<AccResult> run_batch(
      const std::vector<AccScenario>& scenarios, std::uint64_t base_seed,
      const ScenarioAttackFactory& attack_factory = nullptr,
      const AccRunOptions& options = {});

  const AccParams& params() const { return params_; }
  const data::DrivingSceneGenerator& generator() const { return generator_; }
  models::DistNet& perception() { return perception_; }

 private:
  models::DistNet& perception_;
  data::DrivingSceneGenerator generator_;
  AccParams params_;
};

}  // namespace advp::sim
