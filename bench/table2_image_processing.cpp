// Table II — input-processing defenses (median blurring, randomization,
// bit-depth reduction) crossed with every attack, on both tasks.
//
// Paper shape to reproduce: median blurring helps most against the simple
// attacks; randomization is the best close-range distance defense but
// *hurts* beyond 40 m (negative errors — it erases sparse far-vehicle
// pixels); bit depth gives moderate gains; no method wins everywhere.
// A final subsection re-scores the FGSM row under both inference tiers
// (fp32, and int8 after clean-data calibration): the
// deployment question is whether a quantized perception stack changes the
// attack picture relative to fp32.
#include <memory>

#include "bench_common.h"
#include "defenses/preprocess.h"
#include "nn/precision.h"

int main() {
  using namespace advp;
  using namespace advp::bench;
  std::printf("=== Table II: performance after image processing ===\n");
  BenchRun run("table2_image_processing");
  run.manifest().set("seed", std::uint64_t{700});

  eval::Harness harness;
  models::DistNet& dist = harness.distnet();
  models::TinyYolo& det = harness.detector();
  const auto& sign_test = harness.sign_test();

  auto defense_list = defenses::table2_defenses(/*seed=*/77);

  eval::Table t({"Attack", "Defense", "[0,20]", "[20,40]", "[40,60]",
                 "[60,80]", "mAP50", "Prec.", "Recall"});

  std::uint64_t seed = 700;
  for (auto kind : core_attacks()) {
    // Attack once per kind; defenses re-score the cached results.
    DriveAttackCache drive_cache =
        build_drive_cache(harness, dist, drive_attack(kind, dist, seed));
    data::SignDataset sign_adv =
        attacked_sign_set(sign_test, kind, det, seed + 1);
    seed += 10;

    for (const auto& defense : defense_list) {
      eval::ImageTransform tf = [&defense](const Image& img) {
        return defense->apply(img);
      };
      auto dist_ev = eval_drive_cache(dist, drive_cache, tf);
      auto det_ev = harness.evaluate_sign_task(det, sign_adv, nullptr, tf);
      t.add_row({defenses::attack_name(kind), defense->name(),
                 m2(dist_ev.bin_means[0]), m2(dist_ev.bin_means[1]),
                 m2(dist_ev.bin_means[2]), m2(dist_ev.bin_means[3]),
                 pct(det_ev.map50), pct(det_ev.precision),
                 pct(det_ev.recall)});
    }
  }
  t.print(std::cout);
  std::printf(
      "shape check: randomization best at [0,20] but negative beyond 40 m; "
      "median blur helps the weak attacks most.\n");

  // ---- quantized deployment ------------------------------------------------
  // Calibrate both models on clean data (activation ranges for the int8
  // tier), regenerate the FGSM row, and score it under each precision
  // tier. Clean predictions are re-scored inside the tier, so every row
  // measures the attack's effect as that deployment would experience it —
  // not the attack plus the quantization bias.
  std::vector<Tensor> drive_calib;
  for (const auto& seq : harness.eval_sequences()) {
    if (drive_calib.size() >= 8) break;
    drive_calib.push_back(seq.front().image.to_batch());
  }
  dist.calibrate(drive_calib);
  std::vector<Tensor> sign_calib;
  for (std::size_t i = 0; i < sign_test.scenes.size() && i < 8; ++i)
    sign_calib.push_back(sign_test.scenes[i].image.to_batch());
  det.calibrate(sign_calib);

  DriveAttackCache q_cache = build_drive_cache(
      harness, dist, drive_attack(defenses::AttackKind::kFgsm, dist, 760));
  data::SignDataset q_sign =
      attacked_sign_set(sign_test, defenses::AttackKind::kFgsm, det, 761);

  eval::Table qt({"Precision", "Defense", "[0,20]", "[20,40]", "[40,60]",
                  "[60,80]", "mAP50", "Prec.", "Recall"});
  const defenses::MedianBlurDefense blur;
  for (GemmPrecision tier : {GemmPrecision::kFp32, GemmPrecision::kInt8}) {
    nn::PrecisionScope scope(tier);
    DriveAttackCache tier_cache = q_cache;
    rescore_clean(harness, dist, tier_cache);
    for (int use_blur = 0; use_blur < 2; ++use_blur) {
      eval::ImageTransform tf;
      if (use_blur)
        tf = [&blur](const Image& img) { return blur.apply(img); };
      auto dist_ev = eval_drive_cache(dist, tier_cache, tf);
      auto det_ev = harness.evaluate_sign_task(det, q_sign, nullptr, tf);
      qt.add_row({precision_name(tier), use_blur ? blur.name() : "None",
                  m2(dist_ev.bin_means[0]), m2(dist_ev.bin_means[1]),
                  m2(dist_ev.bin_means[2]), m2(dist_ev.bin_means[3]),
                  pct(det_ev.map50), pct(det_ev.precision),
                  pct(det_ev.recall)});
      run.manifest().set(std::string("fgsm_") + precision_name(tier) +
                             (use_blur ? "_blur" : "_none") + "_map50",
                         det_ev.map50);
    }
  }
  std::printf("\n=== Table II-Q: FGSM under reduced-precision deployment ===\n");
  qt.print(std::cout);
  std::printf(
      "shape check: int8 shifts means by at most a few meters and keeps the "
      "defense ordering.\n");
  return 0;
}
