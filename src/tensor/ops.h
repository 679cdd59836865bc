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

/// x: [N, Cin, H, W]; w: [Cout, Cin, K, K]; b: [Cout].
/// Returns [N, Cout, Ho, Wo]: conv2d_forward_into with the bias as the
/// GEMM epilogue. `extra` carries the caller's weight cache slot
/// (a_cache), tier and int8 activation scale; its epilogue and b_pack are
/// set here.
Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      const Conv2dSpec& spec, const GemmExtra& extra = {});

/// The conv forward loop over `n` items of [c_in, h, w] at x: one
/// implicit-GEMM per item (W as op(A), the item's patches gathered by the
/// B packer, see PackSource), written into y [n, Cout, Ho, Wo] through
/// extra.epilogue. Item 0 runs on the calling thread, so a cold a_cache
/// slot is filled once before the other items fan out over the pool,
/// each GEMM serial inside the region: any worker count gives the same
/// bits.
void conv2d_forward_into(const float* x, int n, int c_in, int h, int w,
                         const float* weights, const Conv2dSpec& spec,
                         float* y, const GemmExtra& extra);

struct Conv2dGrads {
  Tensor dx;  ///< gradient w.r.t. input, same shape as x
  Tensor dw;  ///< gradient w.r.t. weights
  Tensor db;  ///< gradient w.r.t. bias
};

/// dX through W^T and col2im; dW per item as one GEMM whose cols^T operand
/// the packer gathers straight from x (a transposed PackSource), summed in
/// item order. `wt_cache`, when given, caches the packed transposed-weight
/// operand of the dX GEMM across calls (only used when the per-item loop
/// runs serially — the slot is single-owner).
Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy, const Conv2dSpec& spec,
                            GemmCacheSlot* wt_cache = nullptr);

/// Input gradient only: conv2d_backward(x, ...).dx, bit for bit, from the
/// input's shape alone — just the dX GEMM and col2im, no gather of x and
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
