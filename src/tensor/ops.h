// Dense neural-network primitives over NCHW tensors.
//
// All convolution/pooling routines come in forward/backward pairs; the
// backward functions return gradients with respect to *inputs* as well as
// parameters, because white-box attacks (FGSM, Auto-PGD, RP2, CAP) need
// d(loss)/d(image) all the way back to the pixels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "tensor/vmath.h"

namespace advp {

// ---- matmul --------------------------------------------------------------

/// C = A(mxk) * B(kxn). Inputs must be rank-2.
Tensor matmul(const Tensor& a, const Tensor& b);
/// Rank-2 transpose.
Tensor transpose(const Tensor& a);

// ---- conv2d ---------------------------------------------------------------

/// Geometry of a 2-D convolution; shared by forward and backward.
struct Conv2dSpec {
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 3;
  int stride = 1;
  int pad = 1;

  int out_h(int in_h) const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w(int in_w) const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// Inference fast-path options for conv2d_forward. With `fusion` set the
/// bias scatter moves into the GEMM epilogue (plus an optional eval
/// batch-norm fold and activation — all per out-channel), and the weight
/// operand's packing is reused across calls through `weight_cache`.
/// Results are bit-identical to the separate passes in every case.
struct ConvFusion {
  GemmCacheSlot* weight_cache = nullptr;  ///< pack-once cache for W
  // Eval-mode BatchNorm fold, per out-channel (all four set, or all null).
  const float* bn_mean = nullptr;
  const float* bn_inv_std = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  Act act = Act::kNone;
  float act_slope = 0.f;
  /// Numeric tier for the conv GEMMs (see tensor/gemm.h). Non-fp32 tiers
  /// are only legal on backward-free inference paths; weights quantize per
  /// out-channel into `weight_cache` under kInt8.
  GemmPrecision precision = GemmPrecision::kFp32;
  /// kInt8 only: calibrated per-tensor activation scale (range / 127);
  /// <= 0 falls back to a dynamic per-call absmax.
  float act_scale = 0.f;
};

/// x: [N, Cin, H, W]; w: [Cout, Cin, K, K]; b: [Cout].
/// Returns [N, Cout, Ho, Wo].
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      const Conv2dSpec& spec,
                      const ConvFusion* fusion = nullptr);

/// Lowers one image x [Cin,H,W] to its im2col column matrix: row p of the
/// [Cin*K*K, Ho*Wo] matrix lands at cols[p*cols_ld ...]. This is the exact
/// lowering conv2d_forward uses internally; exposed so a compiled
/// execution plan (nn/plan) can stage the identical GEMM operand into its
/// own scratch and stay bit-identical to the eager conv.
void im2col_lower(const float* x, int c_in, int h, int w,
                  const Conv2dSpec& s, float* cols, std::size_t cols_ld);

struct Conv2dGrads {
  Tensor dx;  ///< gradient w.r.t. input, same shape as x
  Tensor dw;  ///< gradient w.r.t. weights
  Tensor db;  ///< gradient w.r.t. bias
};

/// `wt_cache`, when given, caches the packed transposed-weight operand of
/// the dX GEMM across calls (only used when the per-item loop runs
/// serially — the slot is single-owner).
Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy, const Conv2dSpec& spec,
                            GemmCacheSlot* wt_cache = nullptr);

/// Input gradient only: conv2d_backward(x, ...).dx, bit for bit, from the
/// input's shape alone — just the dX GEMM and col2im, no im2col of x and
/// no weight/bias gradients. The backward of an eval-mode forward.
Tensor conv2d_backward_input(const std::vector<int>& x_shape,
                             const Tensor& w, const Tensor& dy,
                             const Conv2dSpec& spec,
                             GemmCacheSlot* wt_cache = nullptr);

// ---- pooling ---------------------------------------------------------------

/// The one 2x2 stride-2 max-pool kernel, over `planes` contiguous [h, w]
/// planes (h, w even) into [h/2, w/2] planes. Each window's four values
/// are visited in row-major order from -1e30f, and a value is taken only
/// if it is strictly greater: ties keep the first, NaN is never taken,
/// and a window nothing beats outputs -1e30f. `argmax`, when non-null,
/// receives each output's window index (0..3 = 2*dy + dx; 0 when nothing
/// beat -1e30f).
void maxpool2x2(const float* x, std::size_t planes, int h, int w, float* y,
                std::uint8_t* argmax);

/// 2x2 stride-2 max pooling of [N,C,H,W]. `argmax`, when non-null, is
/// resized to the output's element count and receives the window indices
/// for the backward pass.
Tensor maxpool2x2_forward(const Tensor& x, std::vector<std::uint8_t>* argmax);
/// Routes each dy element to its window's recorded element (as 0.f + dy);
/// the other three window elements get 0.f.
Tensor maxpool2x2_backward(const Tensor& dy,
                           const std::vector<std::uint8_t>& argmax,
                           const std::vector<int>& input_shape);

/// Global average pool over H,W: [N,C,H,W] -> [N,C].
Tensor global_avgpool_forward(const Tensor& x);
Tensor global_avgpool_backward(const Tensor& dy,
                               const std::vector<int>& input_shape);

// ---- upsample ---------------------------------------------------------------

/// Nearest-neighbour 2x upsample: [N,C,H,W] -> [N,C,2H,2W].
Tensor upsample2x_forward(const Tensor& x);
Tensor upsample2x_backward(const Tensor& dy);

// ---- activations on logits -------------------------------------------------

/// Softmax over the last dimension of a rank-2 tensor [N, K].
Tensor softmax_rows(const Tensor& logits);

}  // namespace advp
