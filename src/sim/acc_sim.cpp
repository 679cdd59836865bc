#include "sim/acc_sim.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "models/zoo.h"

namespace advp::sim {

AccSimulator::AccSimulator(models::DistNet& perception,
                           data::DrivingSceneGenerator generator,
                           AccParams params)
    : perception_(perception),
      generator_(std::move(generator)),
      params_(params) {}

float longitudinal_accel(const AccParams& params, float gap_est, float v_ego,
                         float closing_speed) {
  const float desired_gap = params.d_min + params.tau_headway * v_ego;
  const float gap_error = gap_est - desired_gap;
  // Positive gap error -> speed up (bounded by cruise set-speed tracking).
  float accel = params.kp * gap_error - params.kv * closing_speed;
  const float cruise_accel = 0.5f * (params.v_des - v_ego);
  accel = std::min(accel, cruise_accel);
  return std::clamp(accel, params.max_brake, params.max_accel);
}

AccStepper::AccStepper(const AccScenario& scenario, const AccParams& params,
                       bool record_trace)
    : sc_(scenario),
      params_(params),
      record_trace_(record_trace),
      gap_(scenario.initial_gap),
      v_ego_(scenario.v_ego),
      v_lead_(scenario.v_lead),
      // Filtered lead track (gap + closing speed). Differentiating raw
      // per-frame CNN output would inject meters-scale noise into the
      // closing-speed term.
      gap_track_(scenario.initial_gap),
      n_steps_(static_cast<int>(scenario.duration / params.dt)) {
  ADVP_CHECK(scenario.duration > 0.f && scenario.initial_gap > 0.f);
  res_.min_gap = scenario.initial_gap;
  res_.min_ttc = kNoTtcEvent;
  done_ = n_steps_ <= 0;
}

void AccStepper::step(float pred) {
  ADVP_CHECK(!done_);
  const float t = static_cast<float>(k_) * params_.dt;

  const float prev_gap_track = gap_track_;
  gap_track_ += params_.gap_filter_alpha * (pred - gap_track_);
  const float raw_closing = (prev_gap_track - gap_track_) / params_.dt;
  closing_track_ +=
      params_.closing_filter_alpha * (raw_closing - closing_track_);
  const float accel = longitudinal_accel(params_, gap_track_, v_ego_,
                                         closing_track_);

  if (record_trace_)
    res_.trace.push_back({t, gap_, pred, v_ego_, v_lead_, accel});
  abs_err_acc_ += std::fabs(pred - gap_);
  ++steps_;

  // Advance physics.
  float lead_accel = 0.f;
  if (sc_.lead_brake_at >= 0.f && t >= sc_.lead_brake_at &&
      t < sc_.lead_brake_until)
    lead_accel = sc_.lead_brake;
  // Cut-in: a new, closer lead appears (the track restarts on it).
  if (sc_.cut_in_at >= 0.f && t >= sc_.cut_in_at &&
      t < sc_.cut_in_at + params_.dt) {
    gap_ = std::min(gap_, sc_.cut_in_gap);
    gap_track_ = std::min(gap_track_, sc_.cut_in_gap);
  }
  // Cut-out: the lead exits the lane, revealing the farther next-ahead
  // vehicle. The track is left to converge through the filter, exactly
  // as the perception stack would experience it.
  if (sc_.cut_out_at >= 0.f && t >= sc_.cut_out_at &&
      t < sc_.cut_out_at + params_.dt)
    gap_ = std::max(gap_, sc_.cut_out_gap);
  v_lead_ = std::max(0.f, v_lead_ + lead_accel * params_.dt);
  v_ego_ = std::max(0.f, v_ego_ + accel * params_.dt);
  gap_ += (v_lead_ - v_ego_) * params_.dt;

  res_.min_gap = std::min(res_.min_gap, gap_);
  const float closing_true = v_ego_ - v_lead_;
  if (closing_true > 0.1f)
    res_.min_ttc = std::min(res_.min_ttc, gap_ / closing_true);
  ++k_;
  if (gap_ <= 0.f) {
    res_.collided = true;
    done_ = true;
  } else if (k_ >= n_steps_) {
    done_ = true;
  }
}

AccResult AccStepper::finish() {
  res_.mean_abs_gap_error =
      steps_ > 0 ? static_cast<float>(abs_err_acc_ / steps_) : 0.f;
  res_.steps = steps_;
  return std::move(res_);
}

AccResult AccSimulator::run(const AccScenario& sc, Rng& rng,
                            const FrameHook& attack,
                            const AccRunOptions& options) {
  data::SceneStyle style = generator_.sample_style(rng);
  if (options.style_transform) style = options.style_transform(style);

  AccStepper stepper(sc, params_, options.record_trace);
  while (!stepper.done()) {
    // Render the camera view of the current gap.
    const float render_gap =
        std::clamp(stepper.gap(), generator_.params().min_distance,
                   generator_.params().max_distance);
    data::DrivingFrame frame = generator_.render(render_gap, style, rng);

    Tensor x = frame.image.to_batch();
    if (attack) x = attack(x, frame.lead_box);
    stepper.step(perception_.predict(x)[0]);
  }
  ADVP_OBS_COUNT(kSimSteps, static_cast<std::uint64_t>(stepper.steps()));
  ADVP_OBS_COUNT(kSimScenarios, 1);
  return stepper.finish();
}

std::vector<AccResult> AccSimulator::run_batch(
    const std::vector<AccScenario>& scenarios, std::uint64_t base_seed,
    const ScenarioAttackFactory& attack_factory,
    const AccRunOptions& options) {
  const std::size_t n = scenarios.size();
  std::vector<AccResult> out(n);
  if (n == 0) return out;
  // Worker-private perception clones (slot 0 simulates on perception_):
  // model forwards cache activations inside the layers, so concurrent
  // scenarios must not share one DistNet.
  const bool parallel = n >= 2 && max_workers() > 1 && !in_parallel_region();
  const std::size_t slots = parallel ? std::min(max_workers(), n) : 1;
  std::vector<models::DistNet> clones;
  clones.reserve(slots - 1);
  for (std::size_t s = 1; s < slots; ++s)
    clones.push_back(models::clone_distnet(perception_));
  parallel_for_slotted(0, n, slots, [&](std::size_t slot, std::size_t i) {
    models::DistNet& model = slot == 0 ? perception_ : clones[slot - 1];
    AccSimulator sim(model, generator_, params_);
    Rng rng(Rng::stream_seed(base_seed, i));
    FrameHook hook = attack_factory ? attack_factory(i, model) : FrameHook();
    out[i] = sim.run(scenarios[i], rng, hook, options);
  });
  return out;
}

}  // namespace advp::sim
