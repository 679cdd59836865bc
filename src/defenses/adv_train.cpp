#include "defenses/adv_train.h"

#include "attacks/autopgd.h"
#include "attacks/cap.h"
#include "attacks/fgsm.h"
#include "attacks/gaussian.h"
#include "attacks/rp2.h"
#include "attacks/simba.h"
#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "models/zoo.h"
#include "nn/optim.h"

namespace advp::defenses {

std::string attack_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kGaussian: return "Gaussian";
    case AttackKind::kFgsm: return "FGSM";
    case AttackKind::kAutoPgd: return "Auto-PGD";
    case AttackKind::kCapRp2: return "CAP/RP2";
    case AttackKind::kSimba: return "SimBA";
  }
  return "?";
}

namespace {

/// White-box oracle on the detector: detection loss against ground truth.
attacks::GradOracle detection_oracle(models::TinyYolo& victim,
                                     const std::vector<Box>& gt) {
  return [&victim, gt](const Tensor& x) {
    ADVP_OBS_COUNT(kAttackIterations, 1);
    victim.zero_grad();
    auto r = victim.loss_backward(x, {gt}, /*train=*/false);
    return attacks::LossGrad{r.loss, std::move(r.grad)};
  };
}

/// White-box oracle on the regressor: predicted distance (ascending it is
/// the unsafe direction — the follower believes the lead is farther).
attacks::GradOracle distance_oracle(models::DistNet& victim) {
  return [&victim](const Tensor& x) {
    ADVP_OBS_COUNT(kAttackIterations, 1);
    victim.zero_grad();
    auto r = victim.prediction_grad(x);
    return attacks::LossGrad{r.loss, std::move(r.grad)};
  };
}

Tensor union_sign_mask(const data::SignScene& scene) {
  const int h = scene.image.height(), w = scene.image.width();
  Tensor mask({1, 3, h, w});
  for (const Box& b : scene.stop_signs) {
    Tensor one = attacks::make_box_mask(h, w, b);
    for (std::size_t i = 0; i < mask.numel(); ++i)
      mask[i] = std::max(mask[i], one[i]);
  }
  return mask;
}

}  // namespace

Image attack_sign_scene(const data::SignScene& scene, AttackKind kind,
                        models::TinyYolo& victim, Rng& rng,
                        const SignAttackParams& params) {
  Tensor x = scene.image.to_batch();
  auto oracle = detection_oracle(victim, scene.stop_signs);
  switch (kind) {
    case AttackKind::kGaussian: {
      Tensor adv =
          attacks::gaussian_noise_attack(x, {params.gauss_sigma}, rng);
      return Image::from_batch(adv, 0);
    }
    case AttackKind::kFgsm: {
      Tensor adv = attacks::fgsm(x, {params.fgsm_eps}, oracle);
      return Image::from_batch(adv, 0);
    }
    case AttackKind::kAutoPgd: {
      attacks::AutoPgdParams p;
      p.eps = params.apgd_eps;
      p.steps = params.apgd_steps;
      return Image::from_batch(attacks::auto_pgd(x, p, oracle).x_adv, 0);
    }
    case AttackKind::kCapRp2: {
      if (scene.stop_signs.empty()) return scene.image;  // nothing to paste on
      attacks::Rp2Params p;
      p.steps = params.rp2_steps;
      p.n_transforms = params.rp2_transforms;
      p.delta_max = params.rp2_delta_max;
      Tensor mask = union_sign_mask(scene);
      return Image::from_batch(attacks::rp2(x, mask, p, oracle, rng).x_adv, 0);
    }
    case AttackKind::kSimba: {
      // Black-box: descend the summed objectness at the GT cells.
      auto score = [&victim, &scene](const Tensor& xx) {
        return victim.objectness_score(xx, {scene.stop_signs});
      };
      attacks::SimbaParams p;
      p.eps = params.simba_eps;
      p.max_queries = params.simba_queries;
      return Image::from_batch(attacks::simba(x, p, score, rng).x_adv, 0);
    }
  }
  return scene.image;
}

Image attack_driving_frame(const data::DrivingFrame& frame, AttackKind kind,
                           models::DistNet& victim, Rng& rng,
                           const DrivingAttackParams& params) {
  Tensor x = frame.image.to_batch();
  const int h = frame.image.height(), w = frame.image.width();
  Tensor mask = attacks::make_box_mask(h, w, frame.lead_box);
  auto oracle = distance_oracle(victim);
  switch (kind) {
    case AttackKind::kGaussian: {
      Tensor adv =
          attacks::gaussian_noise_attack(x, {params.gauss_sigma}, rng, mask);
      return Image::from_batch(adv, 0);
    }
    case AttackKind::kFgsm: {
      Tensor adv = attacks::fgsm(x, {params.fgsm_eps}, oracle, mask);
      return Image::from_batch(adv, 0);
    }
    case AttackKind::kAutoPgd: {
      attacks::AutoPgdParams p;
      p.eps = params.apgd_eps;
      p.steps = params.apgd_steps;
      return Image::from_batch(attacks::auto_pgd(x, p, oracle, mask).x_adv, 0);
    }
    case AttackKind::kCapRp2: {
      attacks::CapParams p;
      p.steps_per_frame = params.cap_warm_steps;
      attacks::CapAttack cap(p);
      return Image::from_batch(cap.attack_frame(x, frame.lead_box, oracle), 0);
    }
    case AttackKind::kSimba: {
      // Black-box: descend the negated |error| so the prediction drifts.
      const float clean = victim.predict(x)[0];
      auto score = [&victim, clean](const Tensor& xx) {
        return -std::abs(victim.predict(xx)[0] - clean);
      };
      attacks::SimbaParams p;
      p.max_queries = 300;
      return Image::from_batch(
          attacks::simba(x, p, score, rng, mask).x_adv, 0);
    }
  }
  return frame.image;
}

namespace {

// Clones for the parallel attack-generation loops below: white-box oracles
// mutate the victim's gradient/activation caches, so each slot attacks its
// own copy. Per-example RNG streams (Rng::stream_seed) make the generated
// dataset independent of worker count and execution order.
template <typename Model, typename CloneFn>
std::vector<Model> attack_worker_clones(Model& victim, std::size_t items,
                                        CloneFn clone) {
  std::vector<Model> clones;
  if (items < 2 || max_workers() <= 1 || in_parallel_region()) return clones;
  const std::size_t slots = std::min(max_workers(), items);
  clones.reserve(slots - 1);
  for (std::size_t s = 1; s < slots; ++s) clones.push_back(clone(victim));
  return clones;
}

}  // namespace

data::SignDataset make_adversarial_sign_dataset(
    const data::SignDataset& clean, AttackKind kind, models::TinyYolo& victim,
    std::uint64_t seed, const SignAttackParams& params) {
  const std::size_t n = clean.scenes.size();
  ADVP_OBS_SPAN("make_adversarial_sign_dataset");
  ADVP_OBS_COUNT(kImagesProcessed, n);
  data::SignDataset out;
  out.scenes.resize(n);
  auto clones = attack_worker_clones(victim, n, models::clone_detector);
  parallel_for_slotted(
      0, n, clones.size() + 1, [&](std::size_t slot, std::size_t i) {
        models::TinyYolo& v = slot == 0 ? victim : clones[slot - 1];
        Rng rng(Rng::stream_seed(seed, i));
        out.scenes[i] = clean.scenes[i];
        out.scenes[i].image =
            attack_sign_scene(clean.scenes[i], kind, v, rng, params);
      });
  return out;
}

data::DrivingDataset make_adversarial_driving_dataset(
    const data::DrivingDataset& clean, AttackKind kind,
    models::DistNet& victim, std::uint64_t seed,
    const DrivingAttackParams& params) {
  const std::size_t n = clean.frames.size();
  ADVP_OBS_SPAN("make_adversarial_driving_dataset");
  ADVP_OBS_COUNT(kImagesProcessed, n);
  data::DrivingDataset out;
  out.frames.resize(n);
  auto clones = attack_worker_clones(victim, n, models::clone_distnet);
  parallel_for_slotted(
      0, n, clones.size() + 1, [&](std::size_t slot, std::size_t i) {
        models::DistNet& v = slot == 0 ? victim : clones[slot - 1];
        Rng rng(Rng::stream_seed(seed, i));
        out.frames[i] = clean.frames[i];
        out.frames[i].image =
            attack_driving_frame(clean.frames[i], kind, v, rng, params);
      });
  return out;
}

namespace {
std::vector<std::size_t> pick_fraction(std::size_t n, double fraction,
                                       Rng& rng) {
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
  return rng.sample_without_replacement(n, k);
}
}  // namespace

data::SignDataset make_mixed_sign_dataset(
    const std::vector<data::SignDataset>& per_attack, double fraction,
    std::uint64_t seed) {
  ADVP_CHECK(!per_attack.empty());
  Rng rng(seed);
  data::SignDataset out;
  for (const auto& ds : per_attack) {
    for (std::size_t i : pick_fraction(ds.size(), fraction, rng))
      out.scenes.push_back(ds.scenes[i]);
  }
  return out;
}

data::DrivingDataset make_mixed_driving_dataset(
    const std::vector<data::DrivingDataset>& per_attack, double fraction,
    std::uint64_t seed) {
  ADVP_CHECK(!per_attack.empty());
  Rng rng(seed);
  data::DrivingDataset out;
  for (const auto& ds : per_attack) {
    for (std::size_t i : pick_fraction(ds.size(), fraction, rng))
      out.frames.push_back(ds.frames[i]);
  }
  return out;
}

void adversarial_train_detector(models::TinyYolo& model,
                                const data::SignDataset& adv_train,
                                const models::TrainConfig& cfg,
                                const data::SignDataset* clean) {
  data::SignDataset mixed = adv_train;
  if (clean)
    mixed.scenes.insert(mixed.scenes.end(), clean->scenes.begin(),
                        clean->scenes.end());
  models::train_detector(model, mixed, cfg);
}

void adversarial_train_distnet(models::DistNet& model,
                               const data::DrivingDataset& adv_train,
                               const models::TrainConfig& cfg,
                               const data::DrivingDataset* clean) {
  data::DrivingDataset mixed = adv_train;
  if (clean)
    mixed.frames.insert(mixed.frames.end(), clean->frames.begin(),
                        clean->frames.end());
  models::train_distnet(model, mixed, cfg);
}

void distance_weighted_adv_train_distnet(models::DistNet& model,
                                         const data::DrivingDataset& adv_train,
                                         const models::TrainConfig& cfg,
                                         const data::DrivingDataset* clean,
                                         float far_weight,
                                         float max_distance) {
  ADVP_CHECK(far_weight >= 1.f && max_distance > 0.f);
  data::DrivingDataset mixed = adv_train;
  if (clean)
    mixed.frames.insert(mixed.frames.end(), clean->frames.begin(),
                        clean->frames.end());
  ADVP_CHECK(!mixed.frames.empty());

  ADVP_OBS_SPAN("distance_weighted_adv_train");
  Rng rng(cfg.seed);
  nn::Adam opt(model.params(), cfg.lr);
  const std::size_t n = mixed.frames.size();
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    ADVP_OBS_SPAN("epoch");
    ADVP_OBS_COUNT(kTrainEpochs, 1);
    auto order = rng.permutation(n);
    for (std::size_t start = 0; start < n;
         start += static_cast<std::size_t>(cfg.batch_size)) {
      const std::size_t end =
          std::min(n, start + static_cast<std::size_t>(cfg.batch_size));
      std::vector<Image> images;
      std::vector<float> targets, weights;
      for (std::size_t k = start; k < end; ++k) {
        const auto& frame = mixed.frames[order[k]];
        images.push_back(frame.image);
        targets.push_back(frame.distance);
        weights.push_back(
            1.f + (far_weight - 1.f) *
                      std::min(1.f, frame.distance / max_distance));
      }
      Tensor batch = images_to_batch(images);
      opt.zero_grad();
      model.loss_backward(batch, targets, /*train=*/true, weights);
      nn::clip_grad_norm(model.params(), 5.f);
      opt.step();
    }
  }
}

}  // namespace advp::defenses
