// Concrete layers. All follow the Module contract in module.h.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace advp::nn {

/// 2-D convolution (square kernel). He-initialized.
class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<Param*>& out) override;

  const Conv2dSpec& spec() const { return spec_; }
  Param& weight() { return w_; }
  Param& bias() { return b_; }

  /// Calibrated input-activation range recorded by nn::calibrate (0 until
  /// calibrated). Drives the int8 per-tensor activation scale (range/127);
  /// an int8 forward through a layer with range 0 throws CheckError.
  float calibration_range() const { return calib_range_; }
  void set_calibration_range(float r) { calib_range_ = r; }

  /// @brief Canonical pack descriptor of the forward weight operand: the
  /// conv GEMM runs W as op(A), [Cout x Cin*K*K] row-major, untransposed.
  /// The `.advp` serializer exports and re-adopts panels against this key.
  PackedWeightSpec forward_pack_spec() const {
    const int patch = spec_.in_channels * spec_.kernel * spec_.kernel;
    return {/*is_a=*/true, w_.value.data(), spec_.out_channels, patch,
            patch, /*trans=*/false};
  }
  /// @brief Cache slot the forward GEMM serves weight panels from.
  GemmCacheSlot& forward_pack_slot() { return wpack_fwd_; }

 private:
  Conv2dSpec spec_;
  Param w_, b_;
  std::vector<int> x_shape_;  // input shape of the forward to backprop
  Tensor x_cache_;            // its input, kept only by train forwards
  float calib_range_ = 0.f;
  GemmCacheSlot wpack_fwd_;  // forward weight panels [Cout, patch]
  GemmCacheSlot wpack_bwd_;  // transposed weight panels of the dX GEMM
};

/// Fully-connected layer on rank-2 input [N, in].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<Param*>& out) override;

  Param& weight() { return w_; }
  Param& bias() { return b_; }

  /// See Conv2d::calibration_range.
  float calibration_range() const { return calib_range_; }
  void set_calibration_range(float r) { calib_range_ = r; }

  /// @brief Canonical pack descriptor of the forward weight operand: the
  /// y = x W^T GEMM reads W [out x in] as op(B) transposed (d0 = in,
  /// d1 = out, ld = in). See Conv2d::forward_pack_spec.
  PackedWeightSpec forward_pack_spec() const {
    return {/*is_a=*/false, w_.value.data(), in_, out_, in_, /*trans=*/true};
  }
  /// @brief Cache slot the forward GEMM serves weight panels from.
  GemmCacheSlot& forward_pack_slot() { return wpack_fwd_; }

 private:
  int in_ = 0, out_ = 0;
  Param w_, b_;  // w: [out, in]
  bool backward_ready_ = false;  // a forward a backward may follow ran
  Tensor x_cache_;               // its input, kept only by train forwards
  float calib_range_ = 0.f;
  GemmCacheSlot wpack_fwd_;  // W^T as the forward GEMM's B operand
  GemmCacheSlot wpack_bwd_;  // W as the dX GEMM's B operand
};

/// ReLU (slope 0) or LeakyReLU (slope > 0).
class ReLU : public Module {
 public:
  explicit ReLU(float negative_slope = 0.f) : slope_(negative_slope) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

  float slope() const { return slope_; }

 private:
  float slope_;
  Tensor x_cache_;
};

/// SiLU / swish: x * sigmoid(x). YOLOv8's activation.
class SiLU : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  Tensor x_cache_;
};

/// 2x2 stride-2 max pooling.
class MaxPool2x2 : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::vector<std::uint8_t> argmax_;  // window index per output
  std::vector<int> in_shape_;
};

/// Nearest-neighbour 2x upsampling.
class Upsample2x : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
};

/// [N,C,H,W] -> [N, C*H*W].
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  std::vector<int> in_shape_;
};

/// Per-channel batch normalization over N,H,W with running statistics.
///
/// The running mean/variance are exposed through collect_params so model
/// serialization round-trips eval-mode behaviour. They always carry zero
/// gradients, so every optimizer in this library (used without weight
/// decay) leaves them untouched.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int channels, float momentum = 0.1f,
                       float eps = 1e-5f);
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<Param*>& out) override;

  Tensor& running_mean() { return running_mean_.value; }
  Tensor& running_var() { return running_var_.value; }
  Tensor& gamma() { return gamma_.value; }
  Tensor& beta() { return beta_.value; }
  float eps() const { return eps_; }

 private:
  int channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Param running_mean_, running_var_;  // zero-grad "buffer" params
  // caches for backward
  Tensor xhat_cache_;  // train forwards only
  Tensor inv_std_cache_;  // per channel
  std::vector<int> in_shape_;
  bool train_cached_ = false;
};

/// Inverted dropout; identity in eval mode.
class Dropout : public Module {
 public:
  Dropout(float p, Rng& rng) : p_(p), rng_(rng.split()) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;

 private:
  float p_;
  Rng rng_;
  Tensor mask_;
  bool train_cache_ = false;
};

/// Runs children in order; backward in reverse order.
class Sequential : public Module {
 public:
  Sequential() = default;

  Sequential& add(ModulePtr m) {
    children_.push_back(std::move(m));
    return *this;
  }
  template <typename T, typename... Args>
  Sequential& emplace(Args&&... args) {
    children_.push_back(std::make_unique<T>(std::forward<Args>(args)...));
    return *this;
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& dy) override;
  void collect_params(std::vector<Param*>& out) override;

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_[i]; }

 private:
  std::vector<ModulePtr> children_;
};

// ---- channel concat helpers (for U-Net style skip connections) ------------

/// Concatenates a and b along the channel axis: [N,Ca,H,W]+[N,Cb,H,W].
Tensor concat_channels(const Tensor& a, const Tensor& b);
/// Splits dy of a concat back into the two channel groups.
void split_channels(const Tensor& dy, int c_a, Tensor* da, Tensor* db);

}  // namespace advp::nn
