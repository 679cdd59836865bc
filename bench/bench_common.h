// Shared plumbing for the table/figure benches: attacked-test-set builders
// and sequence-attack factories on top of the defense module's attack
// registry. Every bench prints the rows of its paper table via eval::Table.
#pragma once

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <vector>

#include "attacks/cap.h"
#include "core/obs.h"
#include "defenses/adv_train.h"
#include "eval/harness.h"
#include "eval/table.h"

namespace advp::bench {

/// Resolves a bench artifact (manifest, PPM, CSV) into the `out/`
/// directory — created on demand — instead of polluting the working
/// directory. ADVP_TRACE=<path> still overrides manifest destinations
/// downstream (RunManifest::write strips the directory part).
inline std::string out_path(const std::string& filename) {
  std::error_code ec;
  std::filesystem::create_directories("out", ec);
  return (std::filesystem::path("out") / filename).string();
}

/// Per-binary observability wrapper. Construct one at the top of main():
/// it turns tracing on (unless ADVP_TRACE=0 force-disabled it) and, on
/// destruction, writes `out/<name>.manifest.json` — phase spans, kernel
/// FLOP counters, cache statistics, and seed/thread/git metadata —
/// resolved against the ADVP_TRACE path override. Echo run parameters into the
/// manifest via `run.manifest().set("seed", ...)`.
class BenchRun {
 public:
  explicit BenchRun(std::string name) : manifest_(std::move(name)) {
    if (!obs::trace_disabled()) obs::enable();
  }
  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  ~BenchRun() {
    if (!obs::enabled()) return;
    const std::string out =
        manifest_.write(out_path(manifest_.name() + ".manifest.json"));
    // stderr: some benches (micro_parallel) emit machine-readable stdout.
    if (!out.empty()) std::fprintf(stderr, "[obs] manifest -> %s\n", out.c_str());
  }

  /// Config echo hook (`run.manifest().set(key, value)`).
  obs::RunManifest& manifest() { return manifest_; }

 private:
  obs::RunManifest manifest_;
};

/// The attack rows of Table I / Table II / Table III.
inline std::vector<defenses::AttackKind> core_attacks() {
  return {defenses::AttackKind::kGaussian, defenses::AttackKind::kFgsm,
          defenses::AttackKind::kAutoPgd, defenses::AttackKind::kCapRp2};
}

/// Fig. 2 / Table IV / Table V add SimBA.
inline std::vector<defenses::AttackKind> all_attacks() {
  auto v = core_attacks();
  v.push_back(defenses::AttackKind::kSimba);
  return v;
}

/// SceneAttack closure for the detection task (white-box vs `victim`).
/// Each scene draws from its own RNG stream (seed x scene index), so the
/// attacked set is independent of evaluation order and worker count.
inline eval::SceneAttack sign_attack(defenses::AttackKind kind,
                                     models::TinyYolo& victim,
                                     std::uint64_t seed,
                                     defenses::SignAttackParams params = {}) {
  return [kind, &victim, seed, params](const data::SignScene& scene,
                                       std::size_t index) {
    Rng rng(Rng::stream_seed(seed, index));
    return defenses::attack_sign_scene(scene, kind, victim, rng, params);
  };
}

/// SequenceAttackFactory for the regression task. CAP gets a fresh patch
/// per sequence and runs frame-to-frame; the others attack frames
/// independently on a per-sequence RNG stream (seed x sequence index).
inline eval::SequenceAttackFactory drive_attack(
    defenses::AttackKind kind, models::DistNet& victim, std::uint64_t seed,
    defenses::DrivingAttackParams params = {}) {
  return [kind, &victim, seed, params](std::size_t seq) -> eval::FrameAttack {
    if (kind == defenses::AttackKind::kCapRp2) {
      attacks::CapParams cp;
      cp.steps_per_frame = 2;  // runtime budget: streaming frames
      auto cap = std::make_shared<attacks::CapAttack>(cp);
      return [&victim, cap](const data::DrivingFrame& f) {
        auto oracle = [&victim](const Tensor& x) {
          victim.zero_grad();
          auto r = victim.prediction_grad(x);
          return attacks::LossGrad{r.loss, std::move(r.grad)};
        };
        Tensor adv = cap->attack_frame(f.image.to_batch(), f.lead_box, oracle);
        return Image::from_batch(adv, 0);
      };
    }
    auto rng = std::make_shared<Rng>(Rng::stream_seed(seed, seq));
    return [kind, &victim, rng, params](const data::DrivingFrame& f) {
      return defenses::attack_driving_frame(f, kind, victim, *rng, params);
    };
  };
}

/// Pre-attacked copy of a sign test set (the paper's fixed adversarial
/// test examples, generated against the base model).
inline data::SignDataset attacked_sign_set(const data::SignDataset& clean,
                                           defenses::AttackKind kind,
                                           models::TinyYolo& victim,
                                           std::uint64_t seed) {
  return defenses::make_adversarial_sign_dataset(clean, kind, victim, seed);
}

/// Formats a signed meter value like the paper tables (two decimals).
inline std::string m2(double v) { return eval::Table::num(v, 2); }
/// Formats a percentage with two decimals.
inline std::string pct(double frac) { return eval::Table::num(100.0 * frac, 2); }

/// Attack results cached per attack kind so the (attack x defense) grids of
/// Tables II/V run each attack once and re-score defenses cheaply.
struct DriveAttackCache {
  std::vector<float> dist;        ///< true distances
  std::vector<Image> attacked;    ///< attacked frames (sequence order)
  std::vector<float> clean_pred;  ///< base-model predictions on clean frames
};

inline DriveAttackCache build_drive_cache(
    eval::Harness& harness, models::DistNet& model,
    const eval::SequenceAttackFactory& factory) {
  DriveAttackCache cache;
  std::size_t seq_index = 0;
  for (const auto& seq : harness.eval_sequences()) {
    eval::FrameAttack attack =
        factory ? factory(seq_index++) : eval::FrameAttack();
    for (const auto& f : seq) {
      cache.dist.push_back(f.distance);
      cache.clean_pred.push_back(model.predict(f.image.to_batch())[0]);
      cache.attacked.push_back(attack ? attack(f) : f.image);
    }
  }
  return cache;
}

/// Scores a (defended) cached attack run against the clean predictions of
/// `model` (which may be a *different*, retrained model for Table III:
/// pass fresh clean predictions in that case via rescore_clean).
inline eval::Harness::DistanceEval eval_drive_cache(
    models::DistNet& model, const DriveAttackCache& cache,
    const eval::ImageTransform& defense) {
  std::vector<float> errors;
  errors.reserve(cache.attacked.size());
  double abs_acc = 0.0;
  for (std::size_t i = 0; i < cache.attacked.size(); ++i) {
    Image img = defense ? defense(cache.attacked[i]) : cache.attacked[i];
    const float pred = model.predict(img.to_batch())[0];
    errors.push_back(pred - cache.clean_pred[i]);
    abs_acc += std::fabs(pred - cache.clean_pred[i]);
  }
  eval::Harness::DistanceEval ev;
  ev.bin_means = eval::binned_mean_error(cache.dist, errors,
                                         eval::paper_distance_bins(),
                                         &ev.bin_counts);
  ev.overall_mean_abs =
      errors.empty() ? 0.f : static_cast<float>(abs_acc / errors.size());
  return ev;
}

/// Replaces the cache's clean predictions with `model`'s own (used when
/// evaluating a retrained model so errors are measured against *its* clean
/// behaviour, as the paper does).
inline void rescore_clean(eval::Harness& harness, models::DistNet& model,
                          DriveAttackCache& cache) {
  std::size_t i = 0;
  for (const auto& seq : harness.eval_sequences())
    for (const auto& f : seq)
      cache.clean_pred[i++] = model.predict(f.image.to_batch())[0];
}

}  // namespace advp::bench
