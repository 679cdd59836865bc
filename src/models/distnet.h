// DistNet: lead-vehicle relative-distance regressor standing in for the
// distance head of OpenPilot's Supercombo model (paper §V-B1; DESIGN.md §2
// documents the substitution).
//
// Conv+BN+SiLU blocks with pooling, then Flatten + 2-layer MLP with a
// linear head in normalized units (meters / distance_scale). Predictions
// are clamped to [0, 1.5 * distance_scale] at the API boundary; the
// gradient surface attacks see is linear, so attack impact scales with
// the lead-vehicle patch area (the paper's close-range-worst geometry).
#pragma once

#include <memory>
#include <vector>

#include "core/rng.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "nn/precision.h"
#include "tensor/tensor.h"

namespace advp::models {

struct DistNetConfig {
  int width = 96;
  int height = 48;
  int c1 = 12, c2 = 24, c3 = 48;
  int hidden = 48;
  float distance_scale = 100.f;  ///< meters per normalized unit
};

/// Scalar loss + input-batch gradient (same struct as the detector's).
struct DistLossGrad {
  float loss = 0.f;
  Tensor grad;
  /// prediction_grad only: per-image predicted distances (meters). The
  /// oracle's sum decomposes exactly per item (each row's logit gradient
  /// is independent), so batched attack evaluation can score candidates
  /// from one forward.
  std::vector<float> per_item;
};

class DistNet {
 public:
  DistNet(DistNetConfig config, Rng& rng);

  /// Predicted distances (meters), one per batch image. Eval mode.
  std::vector<float> predict(const Tensor& batch);

  /// Smooth-L1 regression loss on normalized distances; returns
  /// d(loss)/d(input) and, with `train`, accumulates parameter gradients
  /// (an eval call computes the input gradient only). Optional per-sample
  /// `weights` rescale each frame's contribution (distance-aware
  /// adversarial training — the paper's §V-C2 future-work direction);
  /// empty means uniform.
  DistLossGrad loss_backward(const Tensor& batch,
                             const std::vector<float>& target_m, bool train,
                             const std::vector<float>& weights = {});

  /// d(sum of predicted distances)/d(input): the white-box oracle for
  /// attacks that push the predicted distance in a chosen direction.
  /// Also fills DistLossGrad::per_item with each image's prediction.
  /// Eval mode: parameter gradients are left untouched.
  DistLossGrad prediction_grad(const Tensor& batch);

  /// Records per-layer activation ranges over `batches` for the int8
  /// inference tier; see nn::calibrate.
  void calibrate(const std::vector<Tensor>& batches,
                 const nn::CalibrationOptions& opts = {});

  const DistNetConfig& config() const { return config_; }
  std::vector<nn::Param*> params();
  void zero_grad();
  nn::Sequential& net() { return *net_; }

  /// Eagerly compiles the execution plan for `batch` images at the active
  /// precision tier (serve calls this at tenant registration / server
  /// start). Returns nullptr when compile fails.
  nn::ExecPlan* compile_plan(int batch);

 private:
  /// Shared forward producing normalized linear outputs [N,1] and caching
  /// for backward.
  Tensor forward_normalized(const Tensor& batch, bool train);
  std::vector<nn::Module*> plan_layers();

  DistNetConfig config_;
  std::unique_ptr<nn::Sequential> net_;  // ends at Linear -> [N,1] logits
  Tensor logit_cache_;
  nn::PlanCache plans_{"distnet"};
};

}  // namespace advp::models
