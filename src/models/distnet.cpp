#include "models/distnet.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "tensor/ops.h"

namespace advp::models {

DistNet::DistNet(DistNetConfig config, Rng& rng) : config_(config) {
  ADVP_CHECK(config_.width % 8 == 0 && config_.height % 8 == 0);
  net_ = std::make_unique<nn::Sequential>();
  net_->emplace<nn::Conv2d>(3, config_.c1, 3, 1, 1, rng);
  net_->emplace<nn::BatchNorm2d>(config_.c1);
  net_->emplace<nn::SiLU>();
  net_->emplace<nn::MaxPool2x2>();
  net_->emplace<nn::Conv2d>(config_.c1, config_.c2, 3, 1, 1, rng);
  net_->emplace<nn::BatchNorm2d>(config_.c2);
  net_->emplace<nn::SiLU>();
  net_->emplace<nn::MaxPool2x2>();
  net_->emplace<nn::Conv2d>(config_.c2, config_.c3, 3, 1, 1, rng);
  net_->emplace<nn::BatchNorm2d>(config_.c3);
  net_->emplace<nn::SiLU>();
  net_->emplace<nn::MaxPool2x2>();
  net_->emplace<nn::Flatten>();
  const int flat = config_.c3 * (config_.height / 8) * (config_.width / 8);
  net_->emplace<nn::Linear>(flat, config_.hidden, rng);
  net_->emplace<nn::ReLU>();
  net_->emplace<nn::Linear>(config_.hidden, 1, rng);
  // Shrink the head init so initial logits sit near 0 (pred ~ 0.5): a
  // saturated sigmoid at init kills the gradient and training collapses
  // to a constant prediction on some seeds.
  auto head_params = net_->params();
  for (std::size_t k = head_params.size() - 2; k < head_params.size(); ++k)
    head_params[k]->value *= 0.1f;
}

std::vector<nn::Module*> DistNet::plan_layers() {
  std::vector<nn::Module*> layers;
  layers.reserve(net_->size());
  for (std::size_t i = 0; i < net_->size(); ++i)
    layers.push_back(&net_->child(i));
  return layers;
}

nn::ExecPlan* DistNet::compile_plan(int batch) {
  return plans_.compile_now(plan_layers(),
                            {batch, 3, config_.height, config_.width},
                            nn::PrecisionScope::active());
}

Tensor DistNet::forward_normalized(const Tensor& batch, bool train) {
  ADVP_CHECK(batch.rank() == 4 && batch.dim(1) == 3 &&
             batch.dim(2) == config_.height && batch.dim(3) == config_.width);
  // predict() opens InferenceModeScope, so plan_for hands out a compiled
  // plan there; loss_backward / prediction_grad call with train=false but
  // no scope, keeping their eager walk (and its backward caches).
  if (!train) {
    if (nn::ExecPlan* plan = plans_.plan_for(plan_layers(), batch)) {
      logit_cache_ = plan->execute(batch);
      return logit_cache_;
    }
  }
  // Linear head in normalized units (distance / distance_scale). A bounded
  // (sigmoid) head makes mid-range pixels the most sensitive (the logistic
  // derivative peaks at 0.5), which inverts the paper's close-range-worst
  // attack geometry; with a linear head, attack impact scales with the
  // lead-vehicle patch area, as in the paper.
  logit_cache_ = net_->forward(batch, train);  // [N,1]
  return logit_cache_;
}

std::vector<float> DistNet::predict(const Tensor& batch) {
  // Forward-only: loss_backward/prediction_grad never route through here,
  // so layers may skip their caches and the compiled plan may serve it.
  nn::InferenceModeScope inference;
  Tensor p = forward_normalized(batch, /*train=*/false);
  std::vector<float> out(static_cast<std::size_t>(p.dim(0)));
  for (int i = 0; i < p.dim(0); ++i)
    out[static_cast<std::size_t>(i)] = std::clamp(
        p.at(i, 0), 0.f, 1.5f) * config_.distance_scale;
  return out;
}

DistLossGrad DistNet::loss_backward(const Tensor& batch,
                                    const std::vector<float>& target_m,
                                    bool train,
                                    const std::vector<float>& weights) {
  const int n = batch.dim(0);
  ADVP_CHECK(static_cast<int>(target_m.size()) == n);
  const bool weighted = !weights.empty();
  if (weighted) ADVP_CHECK(static_cast<int>(weights.size()) == n);
  Tensor p = forward_normalized(batch, train);

  // Smooth-L1 in normalized units (beta tuned for ~2 m transition).
  const float beta = 0.02f;
  DistLossGrad r;
  Tensor dlogit({n, 1});
  double acc = 0.0;
  double wsum = 0.0;
  for (int i = 0; i < n; ++i) {
    const float w = weighted ? weights[static_cast<std::size_t>(i)] : 1.f;
    wsum += w;
    const float t = target_m[static_cast<std::size_t>(i)] / config_.distance_scale;
    const float d = p.at(i, 0) - t;
    const float ad = std::fabs(d);
    float dl;
    if (ad < beta) {
      acc += w * 0.5 * d * d / beta;
      dl = d / beta;
    } else {
      acc += w * (ad - 0.5 * beta);
      dl = d > 0.f ? 1.f : -1.f;
    }
    dlogit.at(i, 0) = dl * w;
  }
  const float inv_w = wsum > 0.0 ? static_cast<float>(1.0 / wsum) : 0.f;
  dlogit *= inv_w;
  r.loss = static_cast<float>(acc) * inv_w;
  r.grad = net_->backward(dlogit);
  return r;
}

DistLossGrad DistNet::prediction_grad(const Tensor& batch) {
  const int n = batch.dim(0);
  Tensor p = forward_normalized(batch, /*train=*/false);
  DistLossGrad r;
  float total = 0.f;
  Tensor dlogit({n, 1});
  r.per_item.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const float meters = p.at(i, 0) * config_.distance_scale;
    r.per_item[static_cast<std::size_t>(i)] = meters;
    total += meters;
    dlogit.at(i, 0) = config_.distance_scale;
  }
  r.loss = total;
  r.grad = net_->backward(dlogit);
  return r;
}

void DistNet::calibrate(const std::vector<Tensor>& batches,
                        const nn::CalibrationOptions& opts) {
  nn::calibrate(*net_, batches, opts);
}

std::vector<nn::Param*> DistNet::params() { return net_->params(); }

void DistNet::zero_grad() { net_->zero_grad(); }

}  // namespace advp::models
