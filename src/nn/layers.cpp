#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"
#include "nn/precision.h"
#include "tensor/gemm.h"

namespace advp::nn {

namespace {
Tensor he_init(std::vector<int> shape, int fan_in, Rng& rng) {
  const float sigma = std::sqrt(2.f / static_cast<float>(fan_in));
  return Tensor::randn(std::move(shape), rng, sigma);
}

// Tier for this forward. Non-fp32 is only legal where no backward can
// follow: eval forwards under an InferenceModeScope (which already skip
// the backward caches) outside a calibration pass (which must observe
// fp32 activations). Everything else — training, attack oracles, gradient
// checks — runs fp32 no matter what scope or ADVP_PRECISION says.
GemmPrecision resolve_precision(bool train) {
  return (!train && InferenceModeScope::active() &&
          !CalibrationScope::active())
             ? PrecisionScope::active()
             : GemmPrecision::kFp32;
}

// Records the input-activation range during a calibration pass (max-merge
// across batches), as the scale source for the int8 tier.
void maybe_record_range(const Tensor& x, float* range) {
  if (CalibrationScope::active())
    *range = std::max(*range, calibration_range(x.data(), x.numel()));
}

// Channels per sweep of the BatchNorm reductions.
constexpr int kBnGroup = 4;

// For G channels from c0 of the [n, c, plane] tensors a and b:
// s[g] = sum of a and s2[g] = sum of a*b over (i, j), in double. One sweep
// over (i, j) advances all 2G chains, so their add latencies overlap; each
// chain still adds its terms in (i, j) order, and a float product is
// exact in double, so a contracted s2 update rounds the same.
template <int G>
void bn_channel_sums(const float* a, const float* b, int n, int c, int c0,
                     std::size_t plane, double* s, double* s2) {
  double acc[G] = {}, acc2[G] = {};
  for (int i = 0; i < n; ++i) {
    const std::size_t base = (static_cast<std::size_t>(i) * c + c0) * plane;
    const float* pa = a + base;
    const float* pb = b + base;
    for (std::size_t j = 0; j < plane; ++j)
      for (int g = 0; g < G; ++g) {
        const float v = pa[g * plane + j];
        acc[g] += v;
        acc2[g] += static_cast<double>(v) * pb[g * plane + j];
      }
  }
  for (int g = 0; g < G; ++g) {
    s[g] = acc[g];
    s2[g] = acc2[g];
  }
}

// bn_channel_sums over every channel: kBnGroup at a time, then singly.
void bn_sums(const float* a, const float* b, int n, int c, std::size_t plane,
             double* s, double* s2) {
  int c0 = 0;
  for (; c0 + kBnGroup <= c; c0 += kBnGroup)
    bn_channel_sums<kBnGroup>(a, b, n, c, c0, plane, s + c0, s2 + c0);
  for (; c0 < c; ++c0)
    bn_channel_sums<1>(a, b, n, c, c0, plane, s + c0, s2 + c0);
}
}  // namespace

// ---- Conv2d ---------------------------------------------------------------

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng)
    : spec_{in_channels, out_channels, kernel, stride, pad},
      w_("conv.w", he_init({out_channels, in_channels, kernel, kernel},
                           in_channels * kernel * kernel, rng)),
      b_("conv.b", Tensor({out_channels})) {}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  maybe_record_range(x, &calib_range_);
  if (train || !InferenceModeScope::active()) {
    x_shape_ = x.shape();
    x_cache_ = train ? x : Tensor();  // only dW reads x itself
  }
  // The weight operand's packing is always served through the layer's
  // cache slot: optimizer steps bump the weight generation, so training
  // repacks exactly when the weights actually changed.
  ConvFusion f;
  f.weight_cache = &wpack_fwd_;
  f.precision = resolve_precision(train);
  f.act_scale = calib_range_ > 0.f ? calib_range_ / 127.f : 0.f;
  return conv2d_forward(x, w_.value, b_.value, spec_, &f);
}

Tensor Conv2d::forward_inference(const Tensor& x, BatchNorm2d* bn, Act act,
                                 float slope) {
  maybe_record_range(x, &calib_range_);
  ConvFusion f;
  f.weight_cache = &wpack_fwd_;
  f.precision = resolve_precision(/*train=*/false);
  f.act_scale = calib_range_ > 0.f ? calib_range_ / 127.f : 0.f;
  std::vector<float> inv_std;
  if (bn) {
    // Eval-mode BN is a per-channel affine fold. inv_std is recomputed
    // with the exact expression BatchNorm2d::forward uses, so the fused
    // output is bit-identical and always reflects the current buffers.
    const Tensor& var = bn->running_var();
    inv_std.resize(static_cast<std::size_t>(spec_.out_channels));
    for (int cc = 0; cc < spec_.out_channels; ++cc)
      inv_std[static_cast<std::size_t>(cc)] =
          1.f / std::sqrt(var[static_cast<std::size_t>(cc)] + bn->eps());
    f.bn_mean = bn->running_mean().data();
    f.bn_inv_std = inv_std.data();
    f.bn_gamma = bn->gamma().data();
    f.bn_beta = bn->beta().data();
  }
  f.act = act;
  f.act_slope = slope;
  return conv2d_forward(x, w_.value, b_.value, spec_, &f);
}

Tensor Conv2d::backward(const Tensor& dy) {
  ADVP_CHECK_MSG(!x_shape_.empty(), "Conv2d::backward before forward");
  if (x_cache_.empty())
    return conv2d_backward_input(x_shape_, w_.value, dy, spec_, &wpack_bwd_);
  Conv2dGrads g = conv2d_backward(x_cache_, w_.value, dy, spec_, &wpack_bwd_);
  w_.grad += g.dw;
  b_.grad += g.db;
  return std::move(g.dx);
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

// ---- Linear ---------------------------------------------------------------

Linear::Linear(int in_features, int out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_("linear.w", he_init({out_features, in_features}, in_features, rng)),
      b_("linear.b", Tensor({out_features})) {}

Tensor Linear::forward(const Tensor& x, bool train) {
  ADVP_CHECK_MSG(x.rank() == 2 && x.dim(1) == in_,
                 "Linear: expected [N," << in_ << "]");
  maybe_record_range(x, &calib_range_);
  if (train || !InferenceModeScope::active()) {
    backward_ready_ = true;
    x_cache_ = train ? x : Tensor();  // only dW reads x itself
  }
  // y = x W^T: the kernel layer reads W transposed while packing, so no
  // transposed copy of the weights is materialized per forward pass. The
  // weights are the GEMM's B operand; their packing persists in the
  // layer's cache slot across calls.
  Tensor y = Tensor::uninitialized({x.dim(0), out_});
  GemmExtra extra;
  extra.b_cache = &wpack_fwd_;
  extra.precision = resolve_precision(train);
  extra.weights_in_a = false;
  extra.act_scale = calib_range_ > 0.f ? calib_range_ / 127.f : 0.f;
  gemm(x.dim(0), out_, in_, x.data(), in_, /*trans_a=*/false,
       w_.value.data(), in_, /*trans_b=*/true, y.data(), out_,
       /*accumulate=*/false, extra);
  for (int i = 0; i < y.dim(0); ++i)
    for (int j = 0; j < out_; ++j) y.at(i, j) += b_.value[static_cast<std::size_t>(j)];
  return y;
}

Tensor Linear::forward_inference(const Tensor& x, Act act, float slope) {
  ADVP_CHECK_MSG(x.rank() == 2 && x.dim(1) == in_,
                 "Linear: expected [N," << in_ << "]");
  maybe_record_range(x, &calib_range_);
  Tensor y({x.dim(0), out_});
  GemmEpilogue ep;
  ep.bias = b_.value.data();
  ep.bias_per_col = true;  // output columns are features
  ep.act = act;
  ep.slope = slope;
  GemmExtra extra;
  extra.b_cache = &wpack_fwd_;
  extra.epilogue = &ep;
  extra.precision = resolve_precision(/*train=*/false);
  extra.weights_in_a = false;
  extra.act_scale = calib_range_ > 0.f ? calib_range_ / 127.f : 0.f;
  gemm(x.dim(0), out_, in_, x.data(), in_, /*trans_a=*/false,
       w_.value.data(), in_, /*trans_b=*/true, y.data(), out_,
       /*accumulate=*/false, extra);
  return y;
}

Tensor Linear::backward(const Tensor& dy) {
  ADVP_CHECK_MSG(backward_ready_, "Linear::backward before forward");
  ADVP_CHECK(dy.rank() == 2 && dy.dim(1) == out_);
  // dW = dy^T x ; db = sum rows dy ; dx = dy W. After an eval forward
  // only dx is computed.
  if (!x_cache_.empty()) {
    Tensor dw({out_, in_});
    gemm(out_, in_, dy.dim(0), dy.data(), out_, /*trans_a=*/true,
         x_cache_.data(), in_, /*trans_b=*/false, dw.data(), in_);
    w_.grad += dw;
    for (int i = 0; i < dy.dim(0); ++i)
      for (int j = 0; j < out_; ++j)
        b_.grad[static_cast<std::size_t>(j)] += dy.at(i, j);
  }
  // dx = dy W — the weights are the dX GEMM's B operand; reuse packing.
  Tensor dx({dy.dim(0), in_});
  GemmExtra extra;
  extra.b_cache = &wpack_bwd_;
  gemm(dy.dim(0), in_, out_, dy.data(), out_, /*trans_a=*/false,
       w_.value.data(), in_, /*trans_b=*/false, dx.data(), in_,
       /*accumulate=*/false, extra);
  return dx;
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

// ---- activations ------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, bool train) {
  if (train || !InferenceModeScope::active()) x_cache_ = x;
  const float s = slope_;
  return x.map([s](float v) { return v > 0.f ? v : s * v; });
}

Tensor ReLU::backward(const Tensor& dy) {
  ADVP_CHECK(dy.same_shape(x_cache_));
  Tensor dx = dy;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (x_cache_[i] <= 0.f) dx[i] *= slope_;
  return dx;
}

Tensor SiLU::forward(const Tensor& x, bool train) {
  if (train || !InferenceModeScope::active()) x_cache_ = x;
  Tensor y = Tensor::uninitialized(x.shape());
  silu(x.data(), y.data(), x.numel());
  return y;
}

Tensor SiLU::backward(const Tensor& dy) {
  ADVP_CHECK(dy.same_shape(x_cache_));
  Tensor dx = dy;
  // sigmoid(x) is recomputed a stack chunk at a time rather than cached by
  // forward, which would hold a second activation-sized tensor per layer.
  constexpr std::size_t kChunk = 256;
  float s[kChunk];
  const float* x = x_cache_.data();
  for (std::size_t i0 = 0; i0 < dx.numel(); i0 += kChunk) {
    const std::size_t len = std::min(kChunk, dx.numel() - i0);
    sigmoid(x + i0, s, len);
    for (std::size_t j = 0; j < len; ++j)
      dx[i0 + j] *= s[j] * (1.f + x[i0 + j] * (1.f - s[j]));
  }
  return dx;
}

// ---- pooling / shape --------------------------------------------------------

Tensor MaxPool2x2::forward(const Tensor& x, bool train) {
  if (!train && InferenceModeScope::active())
    return maxpool2x2_forward(x, nullptr);
  in_shape_ = x.shape();
  return maxpool2x2_forward(x, &argmax_);
}

Tensor MaxPool2x2::backward(const Tensor& dy) {
  return maxpool2x2_backward(dy, argmax_, in_shape_);
}

Tensor Upsample2x::forward(const Tensor& x, bool) {
  return upsample2x_forward(x);
}

Tensor Upsample2x::backward(const Tensor& dy) {
  return upsample2x_backward(dy);
}

Tensor Flatten::forward(const Tensor& x, bool) {
  in_shape_ = x.shape();
  ADVP_CHECK(x.rank() >= 2);
  return x.reshape({x.dim(0), -1});
}

Tensor Flatten::backward(const Tensor& dy) { return dy.reshape(in_shape_); }

Tensor GlobalAvgPool::forward(const Tensor& x, bool) {
  in_shape_ = x.shape();
  return global_avgpool_forward(x);
}

Tensor GlobalAvgPool::backward(const Tensor& dy) {
  return global_avgpool_backward(dy, in_shape_);
}

// ---- BatchNorm2d -------------------------------------------------------------

BatchNorm2d::BatchNorm2d(int channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor::ones({channels})),
      beta_("bn.beta", Tensor({channels})),
      running_mean_("bn.running_mean", Tensor({channels})),
      running_var_("bn.running_var", Tensor::ones({channels})) {}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  ADVP_CHECK(x.rank() == 4 && x.dim(1) == channels_);
  const int n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  Tensor mean({c}), var({c});
  if (train) {
    std::vector<double> s(static_cast<std::size_t>(c)),
        s2(static_cast<std::size_t>(c));
    bn_sums(x.data(), x.data(), n, c, plane, s.data(), s2.data());
    const double cnt = static_cast<double>(n) * static_cast<double>(plane);
    for (int cc = 0; cc < c; ++cc) {
      const std::size_t k = static_cast<std::size_t>(cc);
      const double m = s[k] / cnt;
      mean[k] = static_cast<float>(m);
      var[k] = static_cast<float>(std::max(0.0, s2[k] / cnt - m * m));
    }
    for (int cc = 0; cc < c; ++cc) {
      running_mean_.value[static_cast<std::size_t>(cc)] =
          (1.f - momentum_) * running_mean_.value[static_cast<std::size_t>(cc)] +
          momentum_ * mean[static_cast<std::size_t>(cc)];
      running_var_.value[static_cast<std::size_t>(cc)] =
          (1.f - momentum_) * running_var_.value[static_cast<std::size_t>(cc)] +
          momentum_ * var[static_cast<std::size_t>(cc)];
    }
  } else {
    mean = running_mean_.value;
    var = running_var_.value;
  }

  inv_std_cache_ = Tensor({c});
  for (int cc = 0; cc < c; ++cc)
    inv_std_cache_[static_cast<std::size_t>(cc)] =
        1.f / std::sqrt(var[static_cast<std::size_t>(cc)] + eps_);

  Tensor y = Tensor::uninitialized(x.shape());
  // x-hat is needed only by the train-mode backward; an eval backward is
  // a per-channel scale.
  if (train || !InferenceModeScope::active()) {
    in_shape_ = x.shape();
    train_cached_ = train;
    xhat_cache_ = train ? Tensor::uninitialized(x.shape()) : Tensor();
  }
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc) {
      const float m = mean[static_cast<std::size_t>(cc)];
      const float is = inv_std_cache_[static_cast<std::size_t>(cc)];
      const float g = gamma_.value[static_cast<std::size_t>(cc)];
      const float bt = beta_.value[static_cast<std::size_t>(cc)];
      const std::size_t base = (static_cast<std::size_t>(i) * c + cc) * plane;
      const float* xp = x.data() + base;
      float* yp = y.data() + base;
      if (train) {
        float* xhp = xhat_cache_.data() + base;
        for (std::size_t j = 0; j < plane; ++j) {
          const float xh = (xp[j] - m) * is;
          xhp[j] = xh;
          yp[j] = g * xh + bt;
        }
      } else {
        for (std::size_t j = 0; j < plane; ++j) {
          const float xh = (xp[j] - m) * is;
          yp[j] = g * xh + bt;
        }
      }
    }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& dy) {
  ADVP_CHECK(!in_shape_.empty() && dy.shape() == in_shape_);
  const int n = in_shape_[0], c = channels_, h = in_shape_[2],
            w = in_shape_[3];
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const double cnt = static_cast<double>(n) * static_cast<double>(plane);
  Tensor dx = Tensor::uninitialized(dy.shape());
  std::vector<double> sums_dy, sums_dy_xhat;
  if (train_cached_) {
    sums_dy.resize(static_cast<std::size_t>(c));
    sums_dy_xhat.resize(static_cast<std::size_t>(c));
    bn_sums(dy.data(), xhat_cache_.data(), n, c, plane, sums_dy.data(),
            sums_dy_xhat.data());
  }
  for (int cc = 0; cc < c; ++cc) {
    const float g = gamma_.value[static_cast<std::size_t>(cc)];
    const float is = inv_std_cache_[static_cast<std::size_t>(cc)];
    if (train_cached_) {
      const double sum_dy = sums_dy[static_cast<std::size_t>(cc)];
      const double sum_dy_xhat = sums_dy_xhat[static_cast<std::size_t>(cc)];
      gamma_.grad[static_cast<std::size_t>(cc)] +=
          static_cast<float>(sum_dy_xhat);
      beta_.grad[static_cast<std::size_t>(cc)] += static_cast<float>(sum_dy);
      for (int i = 0; i < n; ++i) {
        const std::size_t base = (static_cast<std::size_t>(i) * c + cc) * plane;
        const float* dyp = dy.data() + base;
        const float* xhp = xhat_cache_.data() + base;
        float* dxp = dx.data() + base;
        for (std::size_t j = 0; j < plane; ++j) {
          const double term =
              cnt * dyp[j] - sum_dy - xhp[j] * sum_dy_xhat;
          dxp[j] = static_cast<float>(g * is * term / cnt);
        }
      }
    } else {
      // Eval mode: statistics are constants, and gamma/beta gradients are
      // not accumulated (see Module::backward).
      for (int i = 0; i < n; ++i) {
        const std::size_t base = (static_cast<std::size_t>(i) * c + cc) * plane;
        const float* dyp = dy.data() + base;
        float* dxp = dx.data() + base;
        for (std::size_t j = 0; j < plane; ++j) dxp[j] = g * is * dyp[j];
      }
    }
  }
  return dx;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

// ---- Dropout ----------------------------------------------------------------

Tensor Dropout::forward(const Tensor& x, bool train) {
  train_cache_ = train && p_ > 0.f;
  if (!train_cache_) return x;
  mask_ = Tensor(x.shape());
  const float keep = 1.f - p_;
  for (std::size_t i = 0; i < mask_.numel(); ++i)
    mask_[i] = rng_.coin(keep) ? 1.f / keep : 0.f;
  Tensor y = x;
  y *= mask_;
  return y;
}

Tensor Dropout::backward(const Tensor& dy) {
  if (!train_cache_) return dy;
  Tensor dx = dy;
  dx *= mask_;
  return dx;
}

// ---- Sequential ---------------------------------------------------------------

Tensor Sequential::forward(const Tensor& x, bool train) {
  if (!train && InferenceModeScope::active()) return forward_fused(x);
  Tensor h = x;
  for (auto& m : children_) h = m->forward(h, train);
  return h;
}

Tensor Sequential::forward_fused(const Tensor& x) {
  Tensor h = x;
  const std::size_t n = children_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (auto* conv = dynamic_cast<Conv2d*>(children_[i].get())) {
      std::size_t next = i + 1;
      BatchNorm2d* bn = next < n
                            ? dynamic_cast<BatchNorm2d*>(children_[next].get())
                            : nullptr;
      if (bn) ++next;
      Act act = Act::kNone;
      float slope = 0.f;
      if (next < n) {
        if (auto* relu = dynamic_cast<ReLU*>(children_[next].get())) {
          act = Act::kReluLeaky;
          slope = relu->slope();
          ++next;
        } else if (dynamic_cast<SiLU*>(children_[next].get())) {
          act = Act::kSilu;
          ++next;
        }
      }
      h = conv->forward_inference(h, bn, act, slope);
      i = next - 1;
      continue;
    }
    if (auto* lin = dynamic_cast<Linear*>(children_[i].get())) {
      Act act = Act::kNone;
      float slope = 0.f;
      if (i + 1 < n) {
        if (auto* relu = dynamic_cast<ReLU*>(children_[i + 1].get())) {
          act = Act::kReluLeaky;
          slope = relu->slope();
          ++i;
        }
      }
      h = lin->forward_inference(h, act, slope);
      continue;
    }
    h = children_[i]->forward(h, /*train=*/false);
  }
  return h;
}

Tensor Sequential::backward(const Tensor& dy) {
  Tensor g = dy;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& m : children_) m->collect_params(out);
}

// ---- concat helpers -------------------------------------------------------------

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  ADVP_CHECK(a.rank() == 4 && b.rank() == 4);
  ADVP_CHECK(a.dim(0) == b.dim(0) && a.dim(2) == b.dim(2) &&
             a.dim(3) == b.dim(3));
  const int n = a.dim(0), ca = a.dim(1), cb = b.dim(1), h = a.dim(2),
            w = a.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  Tensor y({n, ca + cb, h, w});
  // Items write disjoint destination ranges, so the copy order is
  // irrelevant — bit-identical at any worker count.
  auto copy_item = [&](std::size_t i) {
    float* dst = y.data() + i * (ca + cb) * plane;
    const float* pa = a.data() + i * ca * plane;
    const float* pb = b.data() + i * cb * plane;
    std::copy(pa, pa + ca * plane, dst);
    std::copy(pb, pb + cb * plane, dst + ca * plane);
  };
  if (n > 1 && max_workers() > 1 && !in_parallel_region())
    parallel_for(0, static_cast<std::size_t>(n), copy_item);
  else
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
      copy_item(i);
  return y;
}

void split_channels(const Tensor& dy, int c_a, Tensor* da, Tensor* db) {
  ADVP_CHECK(dy.rank() == 4 && dy.dim(1) > c_a);
  const int n = dy.dim(0), c = dy.dim(1), h = dy.dim(2), w = dy.dim(3);
  const int c_b = c - c_a;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  *da = Tensor({n, c_a, h, w});
  *db = Tensor({n, c_b, h, w});
  auto copy_item = [&](std::size_t i) {
    const float* src = dy.data() + i * c * plane;
    std::copy(src, src + c_a * plane, da->data() + i * c_a * plane);
    std::copy(src + c_a * plane, src + c * plane,
              db->data() + i * c_b * plane);
  };
  if (n > 1 && max_workers() > 1 && !in_parallel_region())
    parallel_for(0, static_cast<std::size_t>(n), copy_item);
  else
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
      copy_item(i);
}

}  // namespace advp::nn
