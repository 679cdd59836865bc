// White-box oracle bit-identity and the eval-backward contract.
//
// The FNV-1a hashes below were recorded with libm's expf and the
// full-gradient eval backward. The in-tree exp_f32 and the input-gradient-
// only backward after eval forwards must reproduce them exactly: DistNet
// prediction_grad and TinyYolo loss_backward(..., false) input gradients,
// a plan forward through the fused Conv+BN+SiLU epilogue, and a train-mode
// parameter gradient, each at batch 1 and 3 and at 1 and 4 workers. The
// weights after one epoch of each trainer were recorded with the plain
// max-pool, col2im and BatchNorm loops and zero-filled outputs. The
// hashes are those of the Release build (-O3 -march=native, where the
// compiler contracts a*b+c into FMAs); other build types compute other,
// equally deterministic, bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "defenses/adv_train.h"
#include "defenses/contrastive.h"
#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "nn/plan.h"
#include "nn/precision.h"
#include "tensor/ops.h"

namespace advp::models {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(const void* p, std::size_t bytes, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(const Tensor& t, std::uint64_t h = kFnvOffset) {
  return fnv1a(t.data(), t.numel() * sizeof(float), h);
}

std::uint64_t fnv1a(float v, std::uint64_t h) {
  return fnv1a(&v, sizeof(v), h);
}

std::uint64_t param_grad_hash(const std::vector<nn::Param*>& params) {
  std::uint64_t h = kFnvOffset;
  for (const nn::Param* p : params) h = fnv1a(p->grad, h);
  return h;
}

bool all_param_grads_zero(const std::vector<nn::Param*>& params) {
  for (const nn::Param* p : params)
    for (std::size_t i = 0; i < p->grad.numel(); ++i)
      if (p->grad[i] != 0.f) return false;
  return true;
}

// One train-mode step moves the BatchNorm running statistics off their
// initial (0, 1), so the eval forwards below fold non-trivial values.
void settle(DistNet& model) {
  Rng xr(22);
  model.loss_backward(Tensor::rand({4, 3, 48, 96}, xr), {12.f, 25.f, 38.f, 51.f},
                      /*train=*/true);
  model.zero_grad();
}

void settle(TinyYolo& model) {
  Rng xr(23);
  model.loss_backward(Tensor::rand({2, 3, 48, 48}, xr),
                      {{Box{10, 10, 14, 14}}, {Box{20, 24, 12, 10}}},
                      /*train=*/true);
  model.zero_grad();
}

std::vector<std::vector<Box>> yolo_targets(int batch) {
  std::vector<std::vector<Box>> t;
  for (int i = 0; i < batch; ++i)
    t.push_back({Box{8.f + 6.f * i, 12.f, 16.f, 14.f}});
  return t;
}

const int kBatches[] = {1, 3};
const std::size_t kWorkers[] = {1, 4};

TEST(OracleHashTest, DistNetPredictionGradMatchesRecordedBits) {
  const std::uint64_t expected[] = {6232591973290683731ull,
                                    15423485882647009849ull};
  Rng rng(21);
  DistNet model(DistNetConfig{}, rng);
  settle(model);
  for (int b = 0; b < 2; ++b) {
    Rng xr(30 + kBatches[b]);
    const Tensor x = Tensor::rand({kBatches[b], 3, 48, 96}, xr);
    for (std::size_t w : kWorkers) {
      ScopedMaxWorkers workers(w);
      const DistLossGrad r = model.prediction_grad(x);
      std::uint64_t h = fnv1a(r.grad);
      h = fnv1a(r.loss, h);
      for (float m : r.per_item) h = fnv1a(m, h);
      EXPECT_EQ(h, expected[b]) << "batch " << kBatches[b] << ", " << w
                                << " workers";
    }
  }
}

TEST(OracleHashTest, TinyYoloEvalLossBackwardMatchesRecordedBits) {
  const std::uint64_t expected[] = {3829636407125535888ull,
                                    7499187774459674688ull};
  Rng rng(24);
  TinyYolo model({}, rng);
  settle(model);
  for (int b = 0; b < 2; ++b) {
    Rng xr(40 + kBatches[b]);
    const Tensor x = Tensor::rand({kBatches[b], 3, 48, 48}, xr);
    for (std::size_t w : kWorkers) {
      ScopedMaxWorkers workers(w);
      const InputLossGrad r =
          model.loss_backward(x, yolo_targets(kBatches[b]), /*train=*/false);
      EXPECT_EQ(fnv1a(r.loss, fnv1a(r.grad)), expected[b])
          << "batch " << kBatches[b] << ", " << w << " workers";
    }
  }
}

// Restores the plan hook to its environment default on scope exit.
struct PlanOn {
  PlanOn() { nn::plan_detail::force_plan(1); }
  ~PlanOn() { nn::plan_detail::force_plan(-1); }
};

TEST(OracleHashTest, SiluEpiloguePlanForwardMatchesRecordedBits) {
  const std::uint64_t expected[] = {266870532067451682ull,
                                    9849824953707355818ull};
  PlanOn plans;
  Rng rng(25);
  TinyYolo model({}, rng);
  settle(model);
  nn::InferenceModeScope inference;
  nn::PrecisionScope fp32(GemmPrecision::kFp32);
  for (int b = 0; b < 2; ++b) {
    Rng xr(50 + kBatches[b]);
    const Tensor x = Tensor::rand({kBatches[b], 3, 48, 48}, xr);
    for (std::size_t w : kWorkers) {
      ScopedMaxWorkers workers(w);
      EXPECT_EQ(fnv1a(model.forward_raw(x, /*train=*/false)), expected[b])
          << "batch " << kBatches[b] << ", " << w << " workers";
    }
  }
}

TEST(TrainGradTest, ParamGradHashMatchesRecordedBits) {
  const std::uint64_t expected_dist[] = {9760331100161277557ull,
                                         6234998873275945099ull};
  const std::uint64_t expected_yolo[] = {1156400944090668738ull,
                                         690606244060761523ull};
  Rng rng(26);
  DistNet dist(DistNetConfig{}, rng);
  TinyYolo yolo({}, rng);
  for (int b = 0; b < 2; ++b) {
    const int n = kBatches[b];
    Rng xr(60 + n);
    const Tensor xd = Tensor::rand({n, 3, 48, 96}, xr);
    const Tensor xy = Tensor::rand({n, 3, 48, 48}, xr);
    std::vector<float> meters;
    for (int i = 0; i < n; ++i) meters.push_back(15.f + 10.f * i);
    for (std::size_t w : kWorkers) {
      ScopedMaxWorkers workers(w);
      dist.zero_grad();
      const DistLossGrad rd = dist.loss_backward(xd, meters, /*train=*/true);
      EXPECT_EQ(fnv1a(rd.grad, param_grad_hash(dist.params())),
                expected_dist[b])
          << "DistNet batch " << n << ", " << w << " workers";
      yolo.zero_grad();
      const InputLossGrad ry =
          yolo.loss_backward(xy, yolo_targets(n), /*train=*/true);
      EXPECT_EQ(fnv1a(ry.grad, param_grad_hash(yolo.params())),
                expected_yolo[b])
          << "TinyYolo batch " << n << ", " << w << " workers";
    }
  }
}

std::uint64_t param_value_hash(const std::vector<nn::Param*>& params) {
  std::uint64_t h = kFnvOffset;
  for (const nn::Param* p : params) h = fnv1a(p->value, h);
  return h;
}

// One epoch of each trainer the defense_train workload runs, from fresh
// weights: batch-16 Adam steps through every train-mode forward and
// backward kernel, the optimizer, the FGSM set generation before it and
// the contrastive head (BatchNorm on [N, D, 1, 1], dropout) after it.
TEST(TrainGradTest, OneEpochOfEachTrainerMatchesRecordedBits) {
  const std::uint64_t expected_dist = 15158469546954557637ull;
  const std::uint64_t expected_yolo_adv = 12292849168832943634ull;
  const std::uint64_t expected_yolo_contrastive = 5761471193835143763ull;
  const data::DrivingDataset frames = data::make_driving_dataset(16, 81);
  const data::SignDataset scenes = data::make_sign_dataset(16, 82);
  std::vector<Image> images;
  for (const data::SignScene& sc : scenes.scenes) images.push_back(sc.image);
  models::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.seed = 83;
  defenses::ContrastiveConfig ccfg;
  ccfg.epochs = 1;
  ccfg.seed = 84;
  for (std::size_t w : kWorkers) {
    ScopedMaxWorkers workers(w);
    Rng rng(29);
    DistNet dist(DistNetConfig{}, rng);
    TinyYolo yolo({}, rng);
    const data::DrivingDataset adv_frames =
        defenses::make_adversarial_driving_dataset(
            frames, defenses::AttackKind::kFgsm, dist, 85);
    const data::SignDataset adv_scenes =
        defenses::make_adversarial_sign_dataset(
            scenes, defenses::AttackKind::kFgsm, yolo, 86);
    defenses::adversarial_train_distnet(dist, adv_frames, cfg, &frames);
    EXPECT_EQ(param_value_hash(dist.params()), expected_dist)
        << w << " workers";
    defenses::adversarial_train_detector(yolo, adv_scenes, cfg, &scenes);
    EXPECT_EQ(param_value_hash(yolo.params()), expected_yolo_adv)
        << w << " workers";
    defenses::contrastive_pretrain(yolo, images, ccfg);
    EXPECT_EQ(param_value_hash(yolo.params()), expected_yolo_contrastive)
        << w << " workers";
  }
}

TEST(EvalBackwardTest, LeavesEveryParamGradAtZero) {
  Rng rng(27);
  DistNet dist(DistNetConfig{}, rng);
  TinyYolo yolo({}, rng);
  settle(dist);
  settle(yolo);
  Rng xr(70);
  const Tensor xd = Tensor::rand({3, 3, 48, 96}, xr);
  const Tensor xy = Tensor::rand({3, 3, 48, 48}, xr);
  for (std::size_t w : kWorkers) {
    ScopedMaxWorkers workers(w);
    dist.prediction_grad(xd);
    dist.loss_backward(xd, {10.f, 20.f, 30.f}, /*train=*/false);
    yolo.loss_backward(xy, yolo_targets(3), /*train=*/false);
    EXPECT_TRUE(all_param_grads_zero(dist.params())) << w << " workers";
    EXPECT_TRUE(all_param_grads_zero(yolo.params())) << w << " workers";
  }
  // A train forward in between does not leak into a later eval backward.
  dist.loss_backward(xd, {10.f, 20.f, 30.f}, /*train=*/true);
  dist.zero_grad();
  dist.prediction_grad(xd);
  EXPECT_TRUE(all_param_grads_zero(dist.params()));
}

TEST(EvalBackwardTest, ConvInputOnlyBackwardMatchesFullBackward) {
  Rng rng(28);
  const Conv2dSpec spec{5, 7, 3, 2, 1};
  const Tensor w = Tensor::randn({7, 5, 3, 3}, rng, 0.3f);
  for (int n : kBatches) {
    const Tensor x = Tensor::randn({n, 5, 11, 9}, rng);
    const Tensor dy = Tensor::randn({n, 7, spec.out_h(11), spec.out_w(9)}, rng);
    for (std::size_t wk : kWorkers) {
      ScopedMaxWorkers workers(wk);
      const Conv2dGrads full = conv2d_backward(x, w, dy, spec);
      const Tensor dx = conv2d_backward_input(x.shape(), w, dy, spec);
      ASSERT_TRUE(dx.same_shape(full.dx));
      EXPECT_EQ(std::memcmp(dx.data(), full.dx.data(),
                            dx.numel() * sizeof(float)),
                0)
          << "batch " << n << ", " << wk << " workers";
    }
  }
}

}  // namespace
}  // namespace advp::models
