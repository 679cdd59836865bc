// Adversarial training (paper §IV-B eq. (8), Table III) plus the attack
// registry shared by every defense bench: one place maps the paper's attack
// rows (Gaussian / FGSM / Auto-PGD / CAP-RP2 / SimBA) to concrete attack
// invocations for each task, with the paper's setup (distance attacks
// confined to the lead-vehicle box; RP2 confined to the sign surface).
#pragma once

#include <string>

#include "core/rng.h"
#include "data/dataset.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "models/zoo.h"

namespace advp::defenses {

/// The paper's attack rows. kCapRp2 means RP2 on the sign task and
/// CAP-Attack on the driving task (the paper pairs them the same way).
enum class AttackKind { kGaussian, kFgsm, kAutoPgd, kCapRp2, kSimba };

/// @brief Display name as it appears in the paper's table rows.
std::string attack_name(AttackKind kind);

/// Per-task attack strengths (paper-order magnitudes; tuned so the clean
/// models degrade the way Fig. 2 / Table I report).
struct SignAttackParams {
  float gauss_sigma = 0.18f;
  float fgsm_eps = 0.01f;
  float apgd_eps = 0.005f;
  int apgd_steps = 10;
  int rp2_steps = 6;
  int rp2_transforms = 3;
  float rp2_delta_max = 0.15f;
  int simba_queries = 100;
  float simba_eps = 0.12f;
};

struct DrivingAttackParams {
  float gauss_sigma = 0.08f;
  float fgsm_eps = 0.10f;
  float apgd_eps = 0.10f;
  int apgd_steps = 20;
  int cap_warm_steps = 3;  ///< CAP steps when attacking an isolated frame
};

/// @brief Attacks one sign scene with `kind` against `victim`.
/// @param scene Scene to attack (ground-truth boxes feed the white-box
///   loss; SimBA queries the objectness score; RP2 is confined to the
///   union of sign boxes).
/// @param victim Model whose gradients/scores the attack consumes; its
///   gradient state is mutated during the attack.
/// @param rng Attack-local randomness; pass a per-scene stream
///   (Rng::stream_seed) for order-independent results.
/// @return The attacked image.
Image attack_sign_scene(const data::SignScene& scene, AttackKind kind,
                        models::TinyYolo& victim, Rng& rng,
                        const SignAttackParams& params = {});

/// @brief Attacks one driving frame; all perturbations are confined to
/// the lead-vehicle box and push the predicted distance up (the unsafe
/// direction).
/// @note kCapRp2 maps to CAP-Attack warmed on the single frame; use
///   attacks::CapAttack directly for temporally-coherent sequences.
Image attack_driving_frame(const data::DrivingFrame& frame, AttackKind kind,
                           models::DistNet& victim, Rng& rng,
                           const DrivingAttackParams& params = {});

/// @brief Whole-dataset attacked copy (labels preserved) — the paper's
/// per-attack adversarial example sets. Scenes are attacked in parallel,
/// each on its own RNG stream derived from `seed`.
data::SignDataset make_adversarial_sign_dataset(
    const data::SignDataset& clean, AttackKind kind, models::TinyYolo& victim,
    std::uint64_t seed, const SignAttackParams& params = {});

data::DrivingDataset make_adversarial_driving_dataset(
    const data::DrivingDataset& clean, AttackKind kind,
    models::DistNet& victim, std::uint64_t seed,
    const DrivingAttackParams& params = {});

/// @brief The paper's mixed set: `fraction` of each per-attack adversarial
/// set, uniformly sampled without replacement (Table III uses 25%).
data::SignDataset make_mixed_sign_dataset(
    const std::vector<data::SignDataset>& per_attack, double fraction,
    std::uint64_t seed);
data::DrivingDataset make_mixed_driving_dataset(
    const std::vector<data::DrivingDataset>& per_attack, double fraction,
    std::uint64_t seed);

/// @brief Eq. (8): fine-tunes the model on adversarial examples (the
/// inner max is the pre-generated attack set; the outer min is this SGD
/// pass).
/// @param clean When non-null, concatenated with the adversarial set —
///   mixing clean data in stabilizes the fine-tune (adversarial-only
///   training drifts the clean predictions the error metric is anchored
///   to).
/// @throws CheckError when the combined training set is empty.
void adversarial_train_detector(models::TinyYolo& model,
                                const data::SignDataset& adv_train,
                                const models::TrainConfig& cfg,
                                const data::SignDataset* clean = nullptr);
void adversarial_train_distnet(models::DistNet& model,
                               const data::DrivingDataset& adv_train,
                               const models::TrainConfig& cfg,
                               const data::DrivingDataset* clean = nullptr);

/// @brief Distance-aware adversarial training (the paper's §V-C2
/// future-work proposal).
/// @param far_weight Per-frame loss weights grow linearly from 1 at
///   distance 0 to this value at `max_distance`, counteracting the
///   far-range over-defense bias that plain mixed adversarial training
///   exhibits (Table III's -43 m cell).
/// @param max_distance Distance (m) at which the weight reaches
///   `far_weight`. Ablated in bench/ablation_future_work.
void distance_weighted_adv_train_distnet(models::DistNet& model,
                                         const data::DrivingDataset& adv_train,
                                         const models::TrainConfig& cfg,
                                         const data::DrivingDataset* clean,
                                         float far_weight = 3.f,
                                         float max_distance = 88.f);

}  // namespace advp::defenses
