// Tests for TinyYolo / DistNet: decode geometry, gradient plumbing, NMS,
// metric integration, and small end-to-end training runs (the detector must
// learn the synthetic task for the attack experiments to mean anything).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "models/zoo.h"

namespace advp::models {
namespace {

TinyYoloConfig small_yolo_cfg() {
  TinyYoloConfig c;
  c.img_size = 48;
  c.grid = 6;
  return c;
}

TEST(TinyYoloTest, RawOutputShape) {
  Rng rng(1);
  TinyYolo model(small_yolo_cfg(), rng);
  Tensor batch({2, 3, 48, 48});
  Tensor raw = model.forward_raw(batch, false);
  EXPECT_EQ(raw.dim(0), 2);
  EXPECT_EQ(raw.dim(1), 5);
  EXPECT_EQ(raw.dim(2), 6);
  EXPECT_EQ(raw.dim(3), 6);
}

TEST(TinyYoloTest, LossGradShapeMatchesInput) {
  Rng rng(2);
  TinyYolo model(small_yolo_cfg(), rng);
  Tensor batch = Tensor::rand({1, 3, 48, 48}, rng);
  auto r = model.loss_backward(batch, {{Box{10, 10, 16, 16}}}, false);
  EXPECT_TRUE(r.grad.same_shape(batch));
  EXPECT_GT(r.loss, 0.f);
}

TEST(TinyYoloTest, InputGradientMatchesNumeric) {
  Rng rng(3);
  TinyYolo model(small_yolo_cfg(), rng);
  Tensor batch = Tensor::rand({1, 3, 48, 48}, rng);
  std::vector<std::vector<Box>> targets = {{Box{12, 12, 14, 14}}};
  auto r = model.loss_backward(batch, targets, false);
  const float h = 2e-3f;
  // A handful of pixels, including ones inside the target box region.
  for (std::size_t i : {100ul, 800ul, 1234ul, 3000ul, 5000ul}) {
    Tensor xp = batch;
    xp[i] += h;
    Tensor xm = batch;
    xm[i] -= h;
    model.zero_grad();
    const float fp = model.loss_backward(xp, targets, false).loss;
    const float fm = model.loss_backward(xm, targets, false).loss;
    const float num = (fp - fm) / (2.f * h);
    EXPECT_NEAR(r.grad[i], num, 5e-2f) << "pixel " << i;
  }
}

TEST(TinyYoloTest, ObjectnessScoreDropsWithLoss) {
  // Score is a probability sum: bounded by the number of target cells.
  Rng rng(4);
  TinyYolo model(small_yolo_cfg(), rng);
  Tensor batch = Tensor::rand({2, 3, 48, 48}, rng);
  std::vector<std::vector<Box>> targets = {{Box{8, 8, 12, 12}},
                                           {Box{30, 30, 10, 10}}};
  const float s = model.objectness_score(batch, targets);
  EXPECT_GE(s, 0.f);
  EXPECT_LE(s, 2.f);
}

TEST(TinyYoloTest, BatchedObjectnessMatchesPerItemScores) {
  Rng rng(5);
  TinyYolo model(small_yolo_cfg(), rng);
  Tensor a = Tensor::rand({1, 3, 48, 48}, rng);
  Tensor b = Tensor::rand({1, 3, 48, 48}, rng);
  const std::vector<Box> targets = {Box{8, 8, 12, 12}, Box{30, 30, 10, 10}};
  const float sa = model.objectness_score(a, {targets});
  const float sb = model.objectness_score(b, {targets});
  Tensor pair({2, 3, 48, 48});
  std::copy(a.data(), a.data() + a.numel(), pair.data());
  std::copy(b.data(), b.data() + b.numel(), pair.data() + a.numel());
  const std::vector<float> s = model.objectness_scores(pair, targets);
  ASSERT_EQ(s.size(), 2u);
  // One batched forward scores each item exactly as a solo forward does.
  EXPECT_EQ(s[0], sa);
  EXPECT_EQ(s[1], sb);
}

TEST(NmsTest, SuppressesOverlapsKeepsDistinct) {
  std::vector<Detection> dets = {
      {Box{0, 0, 10, 10}, 0.9f},
      {Box{1, 1, 10, 10}, 0.8f},   // overlaps the first
      {Box{30, 30, 10, 10}, 0.7f},
  };
  auto kept = nms(dets, 0.45f);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
  EXPECT_FLOAT_EQ(kept[1].score, 0.7f);
}

TEST(NmsTest, KeepsHighestScoreFirst) {
  std::vector<Detection> dets = {
      {Box{0, 0, 10, 10}, 0.3f},
      {Box{0, 0, 10, 10}, 0.95f},
  };
  auto kept = nms(dets, 0.45f);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.95f);
}

TEST(DistNetTest, PredictInRange) {
  Rng rng(5);
  DistNet model(DistNetConfig{}, rng);
  Tensor batch = Tensor::rand({3, 3, 48, 96}, rng);
  auto pred = model.predict(batch);
  ASSERT_EQ(pred.size(), 3u);
  for (float p : pred) {
    EXPECT_GE(p, 0.f);
    EXPECT_LE(p, 150.f);
  }
}

TEST(DistNetTest, PredictionGradMatchesNumeric) {
  Rng rng(6);
  DistNet model(DistNetConfig{}, rng);
  Tensor batch = Tensor::rand({1, 3, 48, 96}, rng);
  auto r = model.prediction_grad(batch);
  EXPECT_TRUE(r.grad.same_shape(batch));
  const float h = 2e-3f;
  for (std::size_t i : {50ul, 700ul, 2222ul, 4000ul}) {
    Tensor xp = batch;
    xp[i] += h;
    Tensor xm = batch;
    xm[i] -= h;
    model.zero_grad();
    const float fp = model.predict(xp)[0];
    const float fm = model.predict(xm)[0];
    const float num = (fp - fm) / (2.f * h);
    EXPECT_NEAR(r.grad[i], num, 0.5f) << "pixel " << i;  // meters-scale
  }
}

TEST(DistNetTest, PredictionGradPerItemMatchesSingleForwards) {
  Rng rng(11);
  DistNet model(DistNetConfig{}, rng);
  Tensor batch = Tensor::rand({3, 3, 48, 96}, rng);
  auto r = model.prediction_grad(batch);
  ASSERT_EQ(r.per_item.size(), 3u);
  float sum = 0.f;
  for (int i = 0; i < 3; ++i) {
    Tensor one({1, 3, 48, 96});
    const std::size_t stride = one.numel();
    std::copy(batch.data() + i * stride, batch.data() + (i + 1) * stride,
              one.data());
    model.zero_grad();
    auto single = model.prediction_grad(one);
    // Batched per-item forwards are bit-identical to single-image runs.
    EXPECT_FLOAT_EQ(r.per_item[static_cast<std::size_t>(i)], single.loss);
    for (std::size_t j : {0ul, 999ul, 5000ul})
      EXPECT_FLOAT_EQ(r.grad[i * stride + j], single.grad[j]);
    sum += r.per_item[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(r.loss, sum, 1e-3f);
}

TEST(DistNetTest, LossBackwardDecreasesWithTraining) {
  Rng rng(7);
  DistNet model(DistNetConfig{}, rng);
  auto ds = data::make_driving_dataset(48, 1001);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  const float first = train_distnet(model, ds, cfg);
  cfg.epochs = 6;
  const float later = train_distnet(model, ds, cfg);
  EXPECT_LT(later, first);
}

// End-to-end: a briefly trained detector must beat an untrained one.
TEST(TrainingIntegrationTest, DetectorLearnsSyntheticTask) {
  Rng rng(8);
  TinyYolo model(small_yolo_cfg(), rng);
  auto train_ds = data::make_sign_dataset(240, 2001);
  auto test_ds = data::make_sign_dataset(40, 2002);

  auto eval = [&](TinyYolo& m) {
    std::vector<eval::DetectionRecord> records;
    for (const auto& scene : test_ds.scenes) {
      eval::DetectionRecord rec;
      rec.ground_truth = scene.stop_signs;
      rec.detections = m.detect(scene.image.to_batch())[0];
      records.push_back(std::move(rec));
    }
    return eval::evaluate_detections(records);
  };

  auto before = eval(model);
  TrainConfig cfg;
  cfg.epochs = 15;
  cfg.batch_size = 16;
  cfg.lr = 2e-3f;
  train_detector(model, train_ds, cfg);
  auto after = eval(model);

  EXPECT_GT(after.map50, before.map50);
  EXPECT_GT(after.map50, 0.5f) << "detector failed to learn the task";
  EXPECT_GT(after.recall, 0.4f);
}

TEST(TrainingIntegrationTest, DistNetLearnsDistance) {
  Rng rng(9);
  DistNet model(DistNetConfig{}, rng);
  auto train_ds = data::make_driving_dataset(160, 3001);
  auto test_ds = data::make_driving_dataset(48, 3002);
  TrainConfig cfg;
  cfg.epochs = 20;
  cfg.batch_size = 16;
  train_distnet(model, train_ds, cfg);

  double abs_err = 0.0;
  for (const auto& f : test_ds.frames) {
    const float pred = model.predict(f.image.to_batch())[0];
    abs_err += std::fabs(pred - f.distance);
  }
  abs_err /= static_cast<double>(test_ds.size());
  EXPECT_LT(abs_err, 10.0) << "mean abs error " << abs_err << " m";
}

TEST(ZooTest, CachedWeightsRoundTrip) {
  Rng rng(10);
  TinyYoloConfig cfg = small_yolo_cfg();
  TinyYolo a(cfg, rng);
  TinyYolo b(cfg, rng);
  const std::string dir = ::testing::TempDir() + "/advp_zoo_test";
  std::remove((dir + "/det_test.bin").c_str());  // idempotent across runs
  int trains = 0;
  auto trainer = [&] { ++trains; };
  EXPECT_FALSE(cached_weights(dir, "det_test", a.params(), trainer));
  EXPECT_EQ(trains, 1);
  EXPECT_TRUE(cached_weights(dir, "det_test", b.params(), trainer));
  EXPECT_EQ(trains, 1);  // second call loaded from disk
}

// ---- metrics ----------------------------------------------------------

TEST(MetricsTest, PerfectDetectionsScorePerfect) {
  eval::DetectionRecord rec;
  rec.ground_truth = {Box{0, 0, 10, 10}};
  rec.detections = {{Box{0, 0, 10, 10}, 0.99f}};
  auto m = eval::evaluate_detections({rec});
  EXPECT_FLOAT_EQ(m.map50, 1.f);
  EXPECT_FLOAT_EQ(m.precision, 1.f);
  EXPECT_FLOAT_EQ(m.recall, 1.f);
}

TEST(MetricsTest, MissedBoxLowersRecall) {
  eval::DetectionRecord rec;
  rec.ground_truth = {Box{0, 0, 10, 10}, Box{30, 30, 10, 10}};
  rec.detections = {{Box{0, 0, 10, 10}, 0.9f}};
  auto m = eval::evaluate_detections({rec});
  EXPECT_FLOAT_EQ(m.recall, 0.5f);
  EXPECT_FLOAT_EQ(m.precision, 1.f);
  EXPECT_NEAR(m.map50, 0.5f, 1e-5f);
}

TEST(MetricsTest, DuplicateDetectionIsFalsePositive) {
  eval::DetectionRecord rec;
  rec.ground_truth = {Box{0, 0, 10, 10}};
  rec.detections = {{Box{0, 0, 10, 10}, 0.9f}, {Box{1, 1, 10, 10}, 0.8f}};
  auto m = eval::evaluate_detections({rec});
  EXPECT_EQ(m.true_positives, 1);
  EXPECT_EQ(m.false_positives, 1);
  EXPECT_FLOAT_EQ(m.precision, 0.5f);
}

TEST(MetricsTest, LowIouDoesNotMatch) {
  eval::DetectionRecord rec;
  rec.ground_truth = {Box{0, 0, 10, 10}};
  rec.detections = {{Box{7, 7, 10, 10}, 0.9f}};  // IoU ~ 0.047
  auto m = eval::evaluate_detections({rec});
  EXPECT_EQ(m.true_positives, 0);
}

TEST(MetricsTest, BinnedErrorsAverageCorrectly) {
  std::vector<float> dist = {5.f, 15.f, 25.f, 70.f};
  std::vector<float> errs = {2.f, 4.f, -6.f, 1.f};
  std::vector<int> counts;
  auto means = eval::binned_mean_error(dist, errs, eval::paper_distance_bins(),
                                       &counts);
  ASSERT_EQ(means.size(), 4u);
  EXPECT_FLOAT_EQ(means[0], 3.f);
  EXPECT_FLOAT_EQ(means[1], -6.f);
  EXPECT_FLOAT_EQ(means[2], 0.f);  // empty bin
  EXPECT_EQ(counts[2], 0);
  EXPECT_FLOAT_EQ(means[3], 1.f);
}

}  // namespace
}  // namespace advp::models
