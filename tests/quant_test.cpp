// int8 inference tier: calibration plumbing, scope selection, int8
// accuracy bounds on the two perception models, quantized-pack cache
// invalidation, and the fp32-only gradient contract.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/check.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "models/zoo.h"
#include "nn/layers.h"
#include "nn/precision.h"
#include "tensor/gemm.h"

namespace advp::nn {
namespace {

std::vector<Tensor> random_batches(int n_batches, int batch, int c, int h,
                                   int w, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int i = 0; i < n_batches; ++i)
    out.push_back(Tensor::rand({batch, c, h, w}, rng));
  return out;
}

TEST(PrecisionScopeTest, NestsAndRestores) {
  // With no scope the tier is fp32.
  EXPECT_EQ(PrecisionScope::active(), GemmPrecision::kFp32);
  {
    PrecisionScope outer(GemmPrecision::kInt8);
    EXPECT_EQ(PrecisionScope::active(), GemmPrecision::kInt8);
    {
      PrecisionScope inner(GemmPrecision::kFp32);
      EXPECT_EQ(PrecisionScope::active(), GemmPrecision::kFp32);
    }
    EXPECT_EQ(PrecisionScope::active(), GemmPrecision::kInt8);
  }
  EXPECT_EQ(PrecisionScope::active(), GemmPrecision::kFp32);
}

TEST(CalibrationTest, RangeIsAbsmaxOrExactPercentile) {
  const float data[] = {0.5f, -3.f, 1.f, -0.25f, 2.f};
  {
    CalibrationScope scope;  // default percentile = 1 -> absmax
    EXPECT_FLOAT_EQ(calibration_range(data, 5), 3.f);
    EXPECT_FLOAT_EQ(calibration_range(data, 0), 0.f);
  }
  {
    CalibrationOptions opts;
    opts.percentile = 0.5f;  // median of |x| = {0.25,0.5,1,2,3} -> 1
    CalibrationScope scope(opts);
    EXPECT_FLOAT_EQ(calibration_range(data, 5), 1.f);
  }
}

TEST(CalibrationTest, RecordsRangesAndIsWorkerCountInvariant) {
  Rng rng(31);
  Sequential net;
  net.emplace<Conv2d>(3, 4, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 8 * 8, 2, rng);
  auto batches = random_batches(3, 2, 3, 8, 8, 77);

  float r1_conv, r1_lin, r8_conv, r8_lin;
  {
    ScopedMaxWorkers workers(1);
    calibrate(net, batches);
    r1_conv = dynamic_cast<Conv2d&>(net.child(0)).calibration_range();
    r1_lin = dynamic_cast<Linear&>(net.child(3)).calibration_range();
  }
  EXPECT_GT(r1_conv, 0.f);
  EXPECT_GT(r1_lin, 0.f);
  {
    ScopedMaxWorkers workers(8);
    calibrate(net, batches);
    r8_conv = dynamic_cast<Conv2d&>(net.child(0)).calibration_range();
    r8_lin = dynamic_cast<Linear&>(net.child(3)).calibration_range();
  }
  // Bit-identical ranges at any worker count (forwards are deterministic
  // and the range reduction is a serial absmax).
  EXPECT_EQ(r1_conv, r8_conv);
  EXPECT_EQ(r1_lin, r8_lin);
}

TEST(CalibrationTest, CopyCalibrationRidesAlongWithClones) {
  Rng rng(32);
  models::DistNet model(models::DistNetConfig{}, rng);
  model.calibrate(random_batches(2, 2, 3, 48, 96, 99));
  models::DistNet clone = models::clone_distnet(model);
  auto& src = dynamic_cast<Conv2d&>(model.net().child(0));
  auto& dst = dynamic_cast<Conv2d&>(clone.net().child(0));
  ASSERT_GT(src.calibration_range(), 0.f);
  EXPECT_EQ(src.calibration_range(), dst.calibration_range());
}

// int8 must track fp32 closely on real model heads. Bounds are loose
// enough to be stable across backends but would catch scale-plumbing
// mistakes (which show up as O(1) relative errors).
TEST(QuantAccuracyTest, DistNetTiersTrackFp32) {
  Rng rng(33);
  models::DistNet model(models::DistNetConfig{}, rng);
  model.calibrate(random_batches(2, 4, 3, 48, 96, 111));
  Rng xrng(34);
  Tensor batch = Tensor::rand({4, 3, 48, 96}, xrng);

  const std::vector<float> fp32 = model.predict(batch);
  std::vector<float> int8;
  {
    PrecisionScope scope(GemmPrecision::kInt8);
    int8 = model.predict(batch);
  }
  for (std::size_t i = 0; i < fp32.size(); ++i) {
    // predict() clamps to [0, 150] m; tolerance in meters.
    EXPECT_NEAR(int8[i], fp32[i], 6.f) << "item " << i;
  }
}

TEST(QuantAccuracyTest, TinyYoloTiersTrackFp32) {
  Rng rng(35);
  models::TinyYolo model(models::TinyYoloConfig{}, rng);
  model.calibrate(random_batches(2, 4, 3, 48, 48, 112));
  Rng xrng(36);
  Tensor batch = Tensor::rand({2, 3, 48, 48}, xrng);

  InferenceModeScope inference;
  const Tensor fp32 = model.forward_raw(batch, false);
  Tensor int8;
  {
    PrecisionScope scope(GemmPrecision::kInt8);
    int8 = model.forward_raw(batch, false);
  }
  const float ref_mag = std::max(1.f, fp32.abs_max());
  float int8_err = 0.f;
  for (std::size_t i = 0; i < fp32.numel(); ++i)
    int8_err = std::max(int8_err, std::fabs(int8[i] - fp32[i]));
  EXPECT_LT(int8_err / ref_mag, 0.25f);
  // And int8 genuinely differs from fp32 (the dispatch is live).
  EXPECT_GT(int8_err, 0.f);
}

TEST(QuantCacheTest, RecalibrationInvalidatesQuantizedPacks) {
  Rng rng(37);
  models::DistNet model(models::DistNetConfig{}, rng);
  auto batches_a = random_batches(1, 2, 3, 48, 96, 113);
  // Wildly larger activations -> a very different activation scale.
  auto batches_b = batches_a;
  for (Tensor& b : batches_b) b *= 40.f;

  Rng xrng(38);
  Tensor x = Tensor::rand({2, 3, 48, 96}, xrng);
  // Compare un-clamped logits (predict()'s [0, 150] m clamp saturates on
  // an untrained model and would hide the numeric shift).
  InferenceModeScope inference;
  model.calibrate(batches_a);
  Tensor before, after, back;
  {
    PrecisionScope scope(GemmPrecision::kInt8);
    before = model.net().forward(x, false);  // warms the int8 weight packs
    model.calibrate(batches_b);
    after = model.net().forward(x, false);
    model.calibrate(batches_a);
    back = model.net().forward(x, false);
  }
  // A 40x activation-scale swing must change the int8 numerics somewhere
  // in the batch — if stale quantized state survived recalibration it
  // could not.
  bool changed = false;
  for (std::size_t i = 0; i < before.numel(); ++i)
    if (after[i] != before[i]) changed = true;
  EXPECT_TRUE(changed);
  // And recalibrating back reproduces the original numerics exactly.
  for (std::size_t i = 0; i < before.numel(); ++i)
    EXPECT_EQ(back[i], before[i]) << "logit " << i;
}

TEST(QuantGradientSafetyTest, LowPrecisionForwardThenBackwardThrows) {
  Rng rng(39);
  Sequential net;
  net.emplace<Conv2d>(3, 4, 3, 1, 1, rng);
  Tensor x = Tensor::rand({1, 3, 6, 6}, rng);
  calibrate(net, {x});  // int8 forwards need a calibrated range
  {
    InferenceModeScope inference;
    PrecisionScope scope(GemmPrecision::kInt8);
    net.forward(x, /*train=*/false);
  }
  // int8 only engages on backward-free inference paths, so no forward
  // cache exists for a backward pass to consume.
  EXPECT_THROW(net.backward(Tensor::ones({1, 4, 6, 6})), CheckError);
}

TEST(QuantGradientSafetyTest, TrainingForwardStaysFp32UnderScope) {
  Rng rng(40);
  Sequential net;
  net.emplace<Conv2d>(3, 4, 3, 1, 1, rng);
  Tensor x = Tensor::rand({2, 3, 6, 6}, rng);
  Tensor ref = net.forward(x, /*train=*/true);
  Tensor scoped;
  {
    PrecisionScope scope(GemmPrecision::kInt8);
    scoped = net.forward(x, /*train=*/true);
  }
  // Training-mode forwards ignore the precision scope entirely.
  for (std::size_t i = 0; i < ref.numel(); ++i)
    ASSERT_EQ(scoped[i], ref[i]) << "element " << i;
  // And backward works, because the fp32 path cached normally.
  Tensor dx = net.backward(Tensor::ones(ref.shape()));
  EXPECT_TRUE(dx.same_shape(x));
}

// Expects `fn` to throw a CheckError whose message names calibrate().
template <typename Fn>
void expect_calibration_error(Fn fn, const char* what) {
  try {
    fn();
    ADD_FAILURE() << what << ": no CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("calibrate()"), std::string::npos)
        << what << ": " << e.what();
  }
}

// int8 quantizes activations with a calibrated scale only: an int8 eval
// forward through a layer without a range (0 counts as none) fails
// loudly instead of picking a scale from the batch at hand.
TEST(QuantGateTest, Int8WithoutCalibrationThrows) {
  Rng rng(43);
  Sequential net;
  net.emplace<Conv2d>(3, 4, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 6 * 6, 2, rng);
  models::DistNet dist(models::DistNetConfig{}, rng);
  models::TinyYolo yolo(models::TinyYoloConfig{}, rng);
  const Tensor x = Tensor::rand({2, 3, 6, 6}, rng);
  const Tensor xd = Tensor::rand({2, 3, 48, 96}, rng);
  const Tensor xy = Tensor::rand({2, 3, 48, 48}, rng);
  {
    InferenceModeScope inference;
    PrecisionScope int8(GemmPrecision::kInt8);
    expect_calibration_error([&] { net.forward(x, /*train=*/false); },
                             "Sequential::forward");
    expect_calibration_error([&] { dist.predict(xd); }, "DistNet::predict");
    expect_calibration_error([&] { yolo.detect(xy); }, "TinyYolo::detect");
  }

  // Calibrated, then one layer's range reset to 0: that layer has no
  // range, whether the forward runs a plan or the eager walk.
  dist.calibrate({xd});
  {
    PrecisionScope int8(GemmPrecision::kInt8);
    EXPECT_NO_THROW(dist.predict(xd));
    Sequential& seq = dist.net();
    auto& head = dynamic_cast<Linear&>(seq.child(seq.size() - 1));
    head.set_calibration_range(0.f);
    expect_calibration_error([&] { dist.predict(xd); },
                             "DistNet::predict, head range 0");
    bump_weight_generation();  // recompile: the plan compiler declines too
    expect_calibration_error([&] { dist.predict(xd); },
                             "DistNet::predict, recompiled");
  }

  // The kernel itself: int8 with act_scale 0.
  const Tensor a = Tensor::rand({4, 8}, rng);
  const Tensor b = Tensor::rand({8, 16}, rng);
  Tensor c({4, 16});
  GemmExtra extra;
  extra.precision = GemmPrecision::kInt8;
  expect_calibration_error(
      [&] {
        gemm(4, 16, 8, a.data(), 8, false, b.data(), 16, false, c.data(), 16,
             /*accumulate=*/false, extra);
      },
      "gemm");
}

TEST(QuantDeterminismTest, TierOutputsWorkerCountInvariant) {
  Rng rng(41);
  models::DistNet model(models::DistNetConfig{}, rng);
  model.calibrate(random_batches(1, 2, 3, 48, 96, 117));
  Rng xrng(42);
  Tensor x = Tensor::rand({3, 3, 48, 96}, xrng);
  PrecisionScope scope(GemmPrecision::kInt8);
  std::vector<float> p1, p8;
  {
    ScopedMaxWorkers workers(1);
    p1 = model.predict(x);
  }
  {
    ScopedMaxWorkers workers(8);
    p8 = model.predict(x);
  }
  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i)
    EXPECT_EQ(p1[i], p8[i]) << "int8 item " << i;
}

}  // namespace
}  // namespace advp::nn
