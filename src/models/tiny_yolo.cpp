#include "models/tiny_yolo.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/check.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace advp::models {

TinyYolo::TinyYolo(TinyYoloConfig config, Rng& rng) : config_(config) {
  ADVP_CHECK_MSG(config_.img_size == config_.grid * 8,
                 "TinyYolo: img_size must be 8 * grid");
  backbone_ = std::make_unique<nn::Sequential>();
  backbone_->emplace<nn::Conv2d>(3, config_.c1, 3, 1, 1, rng);
  backbone_->emplace<nn::BatchNorm2d>(config_.c1);
  backbone_->emplace<nn::SiLU>();
  backbone_->emplace<nn::MaxPool2x2>();
  backbone_->emplace<nn::Conv2d>(config_.c1, config_.c2, 3, 1, 1, rng);
  backbone_->emplace<nn::BatchNorm2d>(config_.c2);
  backbone_->emplace<nn::SiLU>();
  backbone_->emplace<nn::MaxPool2x2>();
  backbone_->emplace<nn::Conv2d>(config_.c2, config_.c3, 3, 1, 1, rng);
  backbone_->emplace<nn::BatchNorm2d>(config_.c3);
  backbone_->emplace<nn::SiLU>();
  backbone_->emplace<nn::MaxPool2x2>();
  head_ = std::make_unique<nn::Conv2d>(config_.c3, 5, 1, 1, 0, rng);
}

std::vector<nn::Module*> TinyYolo::plan_layers() {
  std::vector<nn::Module*> layers;
  layers.reserve(backbone_->size() + 1);
  for (std::size_t i = 0; i < backbone_->size(); ++i)
    layers.push_back(&backbone_->child(i));
  layers.push_back(head_.get());
  return layers;
}

nn::ExecPlan* TinyYolo::compile_plan(int batch) {
  return plans_.compile_now(
      plan_layers(), {batch, 3, config_.img_size, config_.img_size},
      nn::PrecisionScope::active());
}

Tensor TinyYolo::forward_raw(const Tensor& batch, bool train) {
  ADVP_CHECK(batch.rank() == 4 && batch.dim(1) == 3 &&
             batch.dim(2) == config_.img_size &&
             batch.dim(3) == config_.img_size);
  // Forward-only inference (detect / objectness queries) runs the
  // compiled plan when one is available; plan_for's scope gate keeps
  // loss_backward's scopeless eval forwards on the eager path so the
  // layer backward caches stay intact.
  if (!train) {
    if (nn::ExecPlan* plan = plans_.plan_for(plan_layers(), batch))
      return plan->execute(batch);
  }
  Tensor feat = backbone_->forward(batch, train);
  return head_->forward(feat, train);
}

Tensor TinyYolo::backbone_features(const Tensor& batch, bool train) {
  return backbone_->forward(batch, train);
}

Tensor TinyYolo::backbone_backward(const Tensor& dfeat) {
  return backbone_->backward(dfeat);
}

std::vector<std::vector<Detection>> TinyYolo::detect(const Tensor& batch,
                                                     float conf_threshold) {
  const float thr =
      conf_threshold < 0.f ? config_.conf_threshold : conf_threshold;
  // Forward-only: no backward follows a detect() call, so the layers may
  // skip their caches and the compiled plan may serve it.
  nn::InferenceModeScope inference;
  Tensor raw = forward_raw(batch, /*train=*/false);
  const int n = raw.dim(0), g = config_.grid;
  const float cell = static_cast<float>(config_.img_size) / g;
  std::vector<std::vector<Detection>> out(static_cast<std::size_t>(n));
  for (int b = 0; b < n; ++b) {
    std::vector<Detection> dets;
    for (int i = 0; i < g; ++i)
      for (int j = 0; j < g; ++j) {
        const float conf = sigmoidf(raw.at(b, 0, i, j));
        if (conf < thr) continue;
        const float cx = (static_cast<float>(j) + sigmoidf(raw.at(b, 1, i, j))) * cell;
        const float cy = (static_cast<float>(i) + sigmoidf(raw.at(b, 2, i, j))) * cell;
        const float w = sigmoidf(raw.at(b, 3, i, j)) * config_.img_size;
        const float h = sigmoidf(raw.at(b, 4, i, j)) * config_.img_size;
        dets.push_back({Box{cx - w / 2.f, cy - h / 2.f, w, h}, conf});
      }
    out[static_cast<std::size_t>(b)] = nms(std::move(dets), config_.nms_iou);
  }
  return out;
}

void TinyYolo::build_targets(
    const std::vector<std::vector<Box>>& targets, int n, Tensor* obj_target,
    Tensor* pos_mask,
    std::vector<std::vector<std::array<float, 4>>>* box_t) const {
  const int g = config_.grid;
  const float cell = static_cast<float>(config_.img_size) / g;
  *obj_target = Tensor({n, 1, g, g});
  *pos_mask = Tensor({n, 1, g, g});
  box_t->assign(static_cast<std::size_t>(n),
                std::vector<std::array<float, 4>>(
                    static_cast<std::size_t>(g) * g, {0, 0, 0, 0}));
  for (int b = 0; b < n; ++b) {
    for (const Box& gt : targets[static_cast<std::size_t>(b)]) {
      const int j = std::clamp(static_cast<int>(gt.cx() / cell), 0, g - 1);
      const int i = std::clamp(static_cast<int>(gt.cy() / cell), 0, g - 1);
      obj_target->at(b, 0, i, j) = 1.f;
      pos_mask->at(b, 0, i, j) = 1.f;
      auto& slot = (*box_t)[static_cast<std::size_t>(b)]
                          [static_cast<std::size_t>(i) * g + j];
      slot[0] = std::clamp(gt.cx() / cell - static_cast<float>(j), 1e-4f, 1.f - 1e-4f);
      slot[1] = std::clamp(gt.cy() / cell - static_cast<float>(i), 1e-4f, 1.f - 1e-4f);
      slot[2] = std::clamp(gt.w / config_.img_size, 1e-4f, 1.f - 1e-4f);
      slot[3] = std::clamp(gt.h / config_.img_size, 1e-4f, 1.f - 1e-4f);
    }
  }
}

InputLossGrad TinyYolo::loss_backward(
    const Tensor& batch, const std::vector<std::vector<Box>>& targets,
    bool train) {
  ADVP_CHECK(static_cast<int>(targets.size()) == batch.dim(0));
  const int n = batch.dim(0), g = config_.grid;
  Tensor raw = forward_raw(batch, train);

  Tensor obj_target, pos_mask;
  std::vector<std::vector<std::array<float, 4>>> box_t;
  build_targets(targets, n, &obj_target, &pos_mask, &box_t);

  // Objectness BCE over all cells, positives up-weighted.
  Tensor obj_logits({n, 1, g, g});
  Tensor weights({n, 1, g, g});
  for (int b = 0; b < n; ++b)
    for (int i = 0; i < g; ++i)
      for (int j = 0; j < g; ++j) {
        obj_logits.at(b, 0, i, j) = raw.at(b, 0, i, j);
        weights.at(b, 0, i, j) = pos_mask.at(b, 0, i, j) > 0.f
                                     ? config_.positive_obj_weight
                                     : 1.f;
      }
  nn::LossResult obj_loss =
      nn::bce_with_logits_loss(obj_logits, obj_target, weights);

  // Box regression (MSE in sigmoid space) at positive cells only.
  float box_loss = 0.f;
  Tensor draw({n, 5, g, g});
  int n_pos = 0;
  for (int b = 0; b < n; ++b)
    for (int i = 0; i < g; ++i)
      for (int j = 0; j < g; ++j) {
        draw.at(b, 0, i, j) = obj_loss.grad.at(b, 0, i, j);
        if (pos_mask.at(b, 0, i, j) <= 0.f) continue;
        ++n_pos;
        const auto& t = box_t[static_cast<std::size_t>(b)]
                             [static_cast<std::size_t>(i) * g + j];
        for (int k = 0; k < 4; ++k) {
          const float z = raw.at(b, 1 + k, i, j);
          const float s = sigmoidf(z);
          const float d = s - t[static_cast<std::size_t>(k)];
          box_loss += d * d;
          // d(loss)/dz = 2 d * s(1-s); scaled below.
          draw.at(b, 1 + k, i, j) = 2.f * d * s * (1.f - s);
        }
      }
  const float box_scale =
      n_pos > 0 ? config_.box_loss_weight / static_cast<float>(4 * n_pos) : 0.f;
  box_loss *= box_scale;
  for (int b = 0; b < n; ++b)
    for (int k = 1; k < 5; ++k)
      for (int i = 0; i < g; ++i)
        for (int j = 0; j < g; ++j) draw.at(b, k, i, j) *= (k >= 1 ? box_scale : 1.f);

  InputLossGrad r;
  r.loss = obj_loss.value + box_loss;
  Tensor dfeat = head_->backward(draw);
  r.grad = backbone_->backward(dfeat);
  return r;
}

float TinyYolo::objectness_score(
    const Tensor& batch, const std::vector<std::vector<Box>>& targets) {
  const int n = batch.dim(0), g = config_.grid;
  nn::InferenceModeScope inference;
  // The black-box query surface stays fp32 regardless of any ambient
  // precision tier: SimBA's query-budget goldens are keyed to exact scores.
  nn::PrecisionScope fp32(GemmPrecision::kFp32);
  Tensor raw = forward_raw(batch, /*train=*/false);
  Tensor obj_target, pos_mask;
  std::vector<std::vector<std::array<float, 4>>> box_t;
  build_targets(targets, n, &obj_target, &pos_mask, &box_t);
  float score = 0.f;
  for (int b = 0; b < n; ++b)
    for (int i = 0; i < g; ++i)
      for (int j = 0; j < g; ++j)
        if (pos_mask.at(b, 0, i, j) > 0.f)
          score += sigmoidf(raw.at(b, 0, i, j));
  return score;
}

std::vector<float> TinyYolo::objectness_scores(
    const Tensor& batch, const std::vector<Box>& targets) {
  const int n = batch.dim(0), g = config_.grid;
  nn::InferenceModeScope inference;
  nn::PrecisionScope fp32(GemmPrecision::kFp32);  // see objectness_score
  Tensor raw = forward_raw(batch, /*train=*/false);
  Tensor obj_target, pos_mask;
  std::vector<std::vector<std::array<float, 4>>> box_t;
  build_targets(std::vector<std::vector<Box>>(static_cast<std::size_t>(n),
                                              targets),
                n, &obj_target, &pos_mask, &box_t);
  std::vector<float> scores(static_cast<std::size_t>(n), 0.f);
  for (int b = 0; b < n; ++b)
    for (int i = 0; i < g; ++i)
      for (int j = 0; j < g; ++j)
        if (pos_mask.at(b, 0, i, j) > 0.f)
          scores[static_cast<std::size_t>(b)] += sigmoidf(raw.at(b, 0, i, j));
  return scores;
}

void TinyYolo::calibrate(const std::vector<Tensor>& batches,
                         const nn::CalibrationOptions& opts) {
  // forward_raw walks backbone_ and head_, so one scoped pass records
  // ranges for every Conv2d in the model (the bare head conv included —
  // nn::calibrate only reaches layers inside a Sequential).
  nn::reset_calibration(*backbone_);
  nn::reset_calibration(*head_);
  nn::InferenceModeScope inference;
  nn::CalibrationScope scope(opts);
  for (const Tensor& batch : batches) forward_raw(batch, /*train=*/false);
  bump_weight_generation();
}

std::vector<nn::Param*> TinyYolo::params() {
  std::vector<nn::Param*> out;
  backbone_->collect_params(out);
  head_->collect_params(out);
  return out;
}

void TinyYolo::zero_grad() {
  for (nn::Param* p : params()) p->grad.fill(0.f);
}

std::vector<Detection> nms(std::vector<Detection> dets, float iou_threshold) {
  std::sort(dets.begin(), dets.end(),
            [](const Detection& a, const Detection& b) {
              return a.score > b.score;
            });
  std::vector<Detection> kept;
  for (const Detection& d : dets) {
    bool suppressed = false;
    for (const Detection& k : kept)
      if (iou(d.box, k.box) > iou_threshold) {
        suppressed = true;
        break;
      }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

}  // namespace advp::models
