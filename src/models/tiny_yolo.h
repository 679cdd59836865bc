// TinyYolo: a from-scratch single-class grid detector standing in for
// YOLOv8n configured for stop-sign-only detection (paper §V-B2; DESIGN.md
// §2 documents the substitution).
//
// Architecture: 3 conv+BN+SiLU blocks with 2x2 max-pooling (48->6 grid),
// then a 1x1 conv head emitting 5 channels per cell:
//   [objectness logit, tx, ty, tw, th]
// Box decode per cell (i=row, j=col), all through sigmoids:
//   cx = (j + sig(tx)) * cell_w,  cy = (i + sig(ty)) * cell_h,
//   w  = sig(tw) * img_w,         h  = sig(th) * img_h.
//
// The detector exposes d(loss)/d(input) — the oracle every white-box attack
// in src/attacks consumes.
#pragma once

#include <memory>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "image/image.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "nn/precision.h"

namespace advp::models {

/// One decoded detection.
struct Detection {
  Box box;
  float score = 0.f;  ///< objectness probability in [0,1]
};

struct TinyYoloConfig {
  int img_size = 48;        ///< square input
  int grid = 6;             ///< output grid (img_size / 8)
  int c1 = 16, c2 = 32, c3 = 64;
  float conf_threshold = 0.5f;
  float nms_iou = 0.45f;
  float positive_obj_weight = 5.f;  ///< class-imbalance weight in BCE
  float box_loss_weight = 2.f;
};

/// Scalar loss + gradient w.r.t. the input batch.
struct InputLossGrad {
  float loss = 0.f;
  Tensor grad;  ///< same shape as the input batch
};

class TinyYolo {
 public:
  TinyYolo(TinyYoloConfig config, Rng& rng);

  /// Raw head output [N,5,grid,grid].
  Tensor forward_raw(const Tensor& batch, bool train);

  /// Decoded, NMS-filtered detections for every image in the batch
  /// (eval mode). `conf_threshold` < 0 uses the config default.
  std::vector<std::vector<Detection>> detect(const Tensor& batch,
                                             float conf_threshold = -1.f);

  /// Detection training loss against ground-truth boxes; returns input
  /// gradients and, with `train`, accumulates parameter gradients (an
  /// eval call — the attack oracle — computes the input gradient only).
  /// `targets[i]` are the ground-truth boxes of image i.
  InputLossGrad loss_backward(const Tensor& batch,
                              const std::vector<std::vector<Box>>& targets,
                              bool train);

  /// Sum of objectness probabilities at the cells responsible for the
  /// ground-truth boxes — the black-box score SimBA minimizes to make
  /// signs disappear.
  float objectness_score(const Tensor& batch,
                         const std::vector<std::vector<Box>>& targets);

  /// Per-item objectness scores for a batch sharing one target set: one
  /// forward pass, entry b equal to objectness_score on image b alone.
  /// Lets black-box attacks evaluate several candidates per query round.
  std::vector<float> objectness_scores(const Tensor& batch,
                                       const std::vector<Box>& targets);

  /// Records per-layer activation ranges over `batches` (backbone and head
  /// alike) for the int8 inference tier; see nn::calibrate. Invalidates any
  /// packed/quantized weight panels.
  void calibrate(const std::vector<Tensor>& batches,
                 const nn::CalibrationOptions& opts = {});

  nn::Sequential& backbone() { return *backbone_; }
  nn::Module& head() { return *head_; }
  const TinyYoloConfig& config() const { return config_; }

  std::vector<nn::Param*> params();
  void zero_grad();

  /// Backbone feature map [N,c3,grid,grid] (used by contrastive learning).
  Tensor backbone_features(const Tensor& batch, bool train);
  /// Backprop a gradient through the backbone only (after
  /// backbone_features); returns d/d(input).
  Tensor backbone_backward(const Tensor& dfeat);

  /// Eagerly compiles the execution plan for `batch` images at the active
  /// precision tier (serve calls this at tenant registration / server
  /// start). Returns nullptr when compile fails.
  nn::ExecPlan* compile_plan(int batch);

 private:
  // Backbone children followed by the head conv — the layer list the
  // execution-plan compiler consumes (forward_raw runs exactly this).
  std::vector<nn::Module*> plan_layers();
  // Builds the target/objectness-weight planes for a batch.
  void build_targets(const std::vector<std::vector<Box>>& targets, int n,
                     Tensor* obj_target, Tensor* pos_mask,
                     std::vector<std::vector<std::array<float, 4>>>* box_t)
      const;

  TinyYoloConfig config_;
  std::unique_ptr<nn::Sequential> backbone_;
  std::unique_ptr<nn::Conv2d> head_;
  nn::PlanCache plans_{"tiny_yolo"};
};

/// Greedy non-maximum suppression on score-sorted detections.
std::vector<Detection> nms(std::vector<Detection> dets, float iou_threshold);

}  // namespace advp::models
