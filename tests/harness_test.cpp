// Tests for the experiment harness: corpora, sequence construction,
// evaluation plumbing, and weight caching — all with a deliberately tiny
// config so the suite stays fast.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "eval/harness.h"

namespace advp::eval {
namespace {

HarnessConfig tiny_config(const char* tag) {
  HarnessConfig cfg;
  cfg.sign_train = 24;
  cfg.sign_test = 8;
  cfg.detector_epochs = 2;
  cfg.drive_train = 24;
  cfg.distnet_epochs = 2;
  cfg.sequences_per_bin = 1;
  cfg.frames_per_sequence = 4;
  // One directory per tag: ctest runs the cases as parallel processes, and
  // ModelsAreCachedAcrossInstances deletes its directory.
  cfg.cache_dir = ::testing::TempDir() + "/advp_harness_test_" + tag;
  cfg.cache_tag = tag;
  return cfg;
}

TEST(HarnessTest, CorporaHaveConfiguredSizes) {
  Harness h(tiny_config("sizes"));
  EXPECT_EQ(h.sign_train().size(), 24u);
  EXPECT_EQ(h.sign_test().size(), 8u);
  EXPECT_EQ(h.drive_train().size(), 24u);
  EXPECT_EQ(h.eval_sequences().size(), 4u);  // one per starting bin
  EXPECT_EQ(h.drive_test().size(), 16u);     // 4 sequences x 4 frames
}

TEST(HarnessTest, SequencesCoverAllBins) {
  Harness h(tiny_config("bins"));
  std::vector<int> counts(4, 0);
  for (const auto& seq : h.eval_sequences())
    for (const auto& f : seq) {
      const int b = std::min(3, static_cast<int>(f.distance / 20.f));
      ++counts[static_cast<std::size_t>(b)];
    }
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(HarnessTest, ModelsAreCachedAcrossInstances) {
  auto cfg = tiny_config("cache");
  std::filesystem::remove_all(cfg.cache_dir);
  Harness a(cfg);
  a.detector();  // trains + saves
  const auto path =
      cfg.cache_dir + "/base_detector_" + cfg.cache_tag + ".bin";
  EXPECT_TRUE(std::filesystem::exists(path));
  Harness b(cfg);
  b.detector();  // must load, not retrain — verified by identical weights
  auto pa = a.detector().params();
  auto pb = b.detector().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j)
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
}

TEST(HarnessTest, EvaluateSignTaskRunsTransforms) {
  Harness h(tiny_config("signtask"));
  int attack_calls = 0, defense_calls = 0;
  SceneAttack attack = [&](const data::SignScene& s, std::size_t) {
    ++attack_calls;
    return s.image;
  };
  ImageTransform defense = [&](const Image& img) {
    ++defense_calls;
    return img;
  };
  auto m = h.evaluate_sign_task(h.detector(), h.sign_test(), attack, defense);
  EXPECT_EQ(attack_calls, 8);
  EXPECT_EQ(defense_calls, 8);
  EXPECT_GE(m.map50, 0.f);
  EXPECT_LE(m.map50, 1.f);
}

TEST(HarnessTest, EvaluateDistanceTaskBinsAndIdentityIsZero) {
  Harness h(tiny_config("disttask"));
  // Identity attack: error vs clean predictions must be exactly zero.
  auto ev = h.evaluate_distance_task(h.distnet(), nullptr, nullptr);
  ASSERT_EQ(ev.bin_means.size(), 4u);
  for (float m : ev.bin_means) EXPECT_FLOAT_EQ(m, 0.f);
  EXPECT_FLOAT_EQ(ev.overall_mean_abs, 0.f);
  int total = 0;
  for (int c : ev.bin_counts) total += c;
  EXPECT_EQ(total, 16);
}

TEST(HarnessTest, AttackFactoryFreshPerSequence) {
  Harness h(tiny_config("factory"));
  int factories = 0;
  SequenceAttackFactory factory = [&](std::size_t) -> FrameAttack {
    ++factories;
    return [](const data::DrivingFrame& f) { return f.image; };
  };
  h.evaluate_distance_task(h.distnet(), factory, nullptr);
  EXPECT_EQ(factories, 4);  // one per sequence (CAP state isolation)
}

TEST(HarnessTest, DistanceEvalSeesDefenseEffect) {
  Harness h(tiny_config("defeffect"));
  // A "defense" that blanks the image must change predictions somewhere.
  ImageTransform blank = [](const Image& img) {
    return Image(img.width(), img.height(), 0.5f);
  };
  auto ev = h.evaluate_distance_task(h.distnet(), nullptr, blank);
  EXPECT_GT(ev.overall_mean_abs, 0.f);
}

}  // namespace
}  // namespace advp::eval
