#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/scratch.h"
#include "tensor/gemm.h"

namespace advp {

Tensor matmul(const Tensor& a, const Tensor& b) {
  ADVP_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 required");
  const int m = a.dim(0), k = a.dim(1), k2 = b.dim(0), n = b.dim(1);
  ADVP_CHECK_MSG(k == k2, "matmul: inner dims mismatch " << k << " vs " << k2);
  Tensor c({m, n});
  gemm(m, n, k, a.data(), k, /*trans_a=*/false, b.data(), n,
       /*trans_b=*/false, c.data(), n);
  return c;
}

Tensor transpose(const Tensor& a) {
  ADVP_CHECK_MSG(a.rank() == 2, "transpose: rank-2 required");
  const int m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  transpose_blocked(a.data(), m, n, t.data());
  return t;
}

namespace {

// The implicit-im2col source for item 0 of x [n, c_in, h, w] under spec
// (set base per item).
PackSource conv_pack_source(int c_in, int h, int w, const Conv2dSpec& spec) {
  PackSource ps;
  ps.item_stride = static_cast<std::size_t>(c_in) * h * w;
  ps.c_in = c_in;
  ps.h = h;
  ps.w = w;
  ps.kernel = spec.kernel;
  ps.stride = spec.stride;
  ps.pad = spec.pad;
  ps.out_h = spec.out_h(h);
  ps.out_w = spec.out_w(w);
  return ps;
}

// [lo, hi): the output positions o in [0, n_out) whose tap lands inside
// [0, n_in), i.e. 0 <= o*stride + off < n_in, with off = k - pad.
std::pair<int, int> tap_range(int off, int stride, int n_in, int n_out) {
  return {off >= 0 ? 0 : (-off + stride - 1) / stride,
          off >= n_in ? 0 : std::min(n_out, (n_in - 1 - off) / stride + 1)};
}

// Scatters columns [Cin*K*K, Ho*Wo] back into dx [Cin,H,W] (accumulating).
// Each tap's in-range outputs are clipped once, so the inner loop is a
// plain run over one column row. Every dx element still receives its
// contributions in ascending patch-row order: one per row p at most,
// because a tap's output-to-input map is injective.
void col2im(const float* cols, int c_in, int h, int w, const Conv2dSpec& s,
            float* dx) {
  const int ho = s.out_h(h), wo = s.out_w(w);
  const int patch = c_in * s.kernel * s.kernel;
  for (int p = 0; p < patch; ++p) {
    const int c = p / (s.kernel * s.kernel);
    const int ky = (p / s.kernel) % s.kernel;
    const int kx = p % s.kernel;
    const auto [oy0, oy1] = tap_range(ky - s.pad, s.stride, h, ho);
    const auto [ox0, ox1] = tap_range(kx - s.pad, s.stride, w, wo);
    if (ox0 >= ox1) continue;  // the tap never lands inside the image
    const float* in_row = cols + static_cast<std::size_t>(p) * ho * wo;
    for (int oy = oy0; oy < oy1; ++oy) {
      const int iy = oy * s.stride + ky - s.pad;
      const float* src = in_row + static_cast<std::size_t>(oy) * wo;
      float* dst = dx + (static_cast<std::size_t>(c) * h + iy) * w +
                   (ox0 * s.stride + kx - s.pad);
      if (s.stride == 1) {
        for (int ox = ox0; ox < ox1; ++ox) dst[ox - ox0] += src[ox];
      } else {
        for (int ox = ox0; ox < ox1; ++ox)
          dst[static_cast<std::size_t>(ox - ox0) * s.stride] += src[ox];
      }
    }
  }
}

}  // namespace

void conv2d_forward_into(const float* x, int n, int c_in, int h, int w,
                         const float* weights, const Conv2dSpec& spec,
                         float* y, const GemmExtra& extra) {
  const int ho = spec.out_h(h), wo = spec.out_w(w);
  const int patch = c_in * spec.kernel * spec.kernel;
  const int pixels = ho * wo;
  const std::size_t x_stride = static_cast<std::size_t>(c_in) * h * w;
  const std::size_t y_stride =
      static_cast<std::size_t>(spec.out_channels) * pixels;
  // One MAC per (item, out-channel, patch entry, output pixel); the GEMMs
  // below also land in matmul_flops (documented overlap).
  ADVP_OBS_COUNT(kConv2dFlops, 2ull * n * y_stride * patch);
  const PackSource ps = conv_pack_source(c_in, h, w, spec);
  // Each item's GEMM gathers its patches straight from x inside the panel
  // packer and writes through the epilogue directly into y: no column
  // matrix, no staging buffer, no scatter pass.
  auto run_item = [&](std::size_t i) {
    PackSource item_ps = ps;
    item_ps.base = x + i * x_stride;
    GemmExtra item_extra = extra;
    item_extra.b_pack = &item_ps;
    gemm(spec.out_channels, pixels, patch, weights, patch, /*trans_a=*/false,
         /*b=*/nullptr, pixels, /*trans_b=*/false, y + i * y_stride, pixels,
         /*accumulate=*/false, item_extra);
  };
  // Item 0 warms the weight slot on this thread; the remaining items'
  // slot lookups are pure reads and fan out.
  run_item(0);
  if (n > 1 && max_workers() > 1 && !in_parallel_region())
    parallel_for(1, static_cast<std::size_t>(n), run_item);
  else
    for (std::size_t i = 1; i < static_cast<std::size_t>(n); ++i)
      run_item(i);
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      const Conv2dSpec& spec, const GemmExtra& extra) {
  ADVP_CHECK_MSG(x.rank() == 4, "conv2d: input must be NCHW");
  const int n = x.dim(0), c_in = x.dim(1), h = x.dim(2), wd = x.dim(3);
  ADVP_CHECK_MSG(c_in == spec.in_channels, "conv2d: Cin mismatch");
  ADVP_CHECK(w.rank() == 4 && w.dim(0) == spec.out_channels &&
             w.dim(1) == spec.in_channels && w.dim(2) == spec.kernel &&
             w.dim(3) == spec.kernel);
  ADVP_CHECK(b.rank() == 1 && b.dim(0) == spec.out_channels);
  const int ho = spec.out_h(h), wo = spec.out_w(wd);
  ADVP_CHECK_MSG(ho > 0 && wo > 0, "conv2d: output collapses to zero size");
  // Every GEMM store writes its y elements.
  Tensor y = Tensor::uninitialized({n, spec.out_channels, ho, wo});
  // The bias add is the epilogue: the same float add, on each element
  // right after its full k-accumulation. Rows of the conv GEMM are
  // out-channels; the weight tensor is already the [Cout, patch] op(A).
  GemmEpilogue epi;
  epi.bias = b.data();
  GemmExtra conv_extra = extra;
  conv_extra.epilogue = &epi;
  conv2d_forward_into(x.data(), n, c_in, h, wd, w.data(), spec, y.data(),
                      conv_extra);
  return y;
}

namespace {

// out[g] = the sum of row g of `rows` (G rows of `pixels` floats), one
// double chain per row in ascending order. The G chains are interleaved
// so their adds overlap; each chain's order, and so its bits, is that of
// a plain per-row loop.
template <int G>
void row_sums(const float* rows, int pixels, float* out) {
  double acc[G] = {};
  for (int j = 0; j < pixels; ++j)
    for (int g = 0; g < G; ++g)
      acc[g] += rows[static_cast<std::size_t>(g) * pixels + j];
  for (int g = 0; g < G; ++g) out[g] = static_cast<float>(acc[g]);
}

// Shared body of conv2d_backward and conv2d_backward_input. dX always; dW
// and db only when `x` is given (then `dw`/`db` receive them).
Tensor conv_backward(const std::vector<int>& x_shape, const Tensor* x,
                     const Tensor& w, const Tensor& dy,
                     const Conv2dSpec& spec, GemmCacheSlot* wt_cache,
                     Tensor* dw, Tensor* db) {
  ADVP_CHECK(x_shape.size() == 4);
  const int n = x_shape[0], c_in = x_shape[1], h = x_shape[2],
            wd = x_shape[3];
  const int ho = spec.out_h(h), wo = spec.out_w(wd);
  ADVP_CHECK(dy.rank() == 4 && dy.dim(0) == n &&
             dy.dim(1) == spec.out_channels && dy.dim(2) == ho &&
             dy.dim(3) == wo);
  const int patch = c_in * spec.kernel * spec.kernel;
  const bool param_grads = x != nullptr;

  Tensor dx({n, c_in, h, wd});
  const int pixels = ho * wo;
  const std::size_t x_stride = static_cast<std::size_t>(c_in) * h * wd;
  const std::size_t y_stride =
      static_cast<std::size_t>(spec.out_channels) * pixels;
  // dX and (with parameter gradients) dW each cost one forward-sized GEMM
  // per item.
  ADVP_OBS_COUNT(kConv2dFlops,
                 (param_grads ? 4ull : 2ull) * n * y_stride * patch);
  // Per-item weight/bias partials are computed in parallel (dx planes are
  // disjoint) into one buffer in the caller's scratch arena, then reduced
  // on the caller in index order — the same accumulation order as a plain
  // serial loop, so gradients are bit-identical for any worker count. The
  // transposed operands (cols^T for dW, gathered straight from x through a
  // transposed PackSource; W^T for dcols) are handled by the GEMM packing
  // layer, and the per-item dcols buffers come from the worker's scratch
  // arena — the steady-state loop performs no heap allocations beyond dx
  // and the returned gradient tensors.
  const int cout = spec.out_channels;
  const std::size_t part_floats =
      static_cast<std::size_t>(cout) * patch + cout;  // dW_i, then db_i
  ScratchArena& caller_arena = ScratchArena::local();
  ScratchArena::Frame parts_frame(caller_arena);
  float* parts = param_grads ? caller_arena.alloc_floats(n * part_floats)
                             : nullptr;
  PackSource cols_t = conv_pack_source(c_in, h, wd, spec);
  cols_t.transposed = true;
  // The dX product reads the same transposed weights for every item; its
  // packing is reusable across items and calls through `wt_cache`. Cache
  // slots are single-owner, so the slot is only handed down when the item
  // loop runs serially (the single-image attack hot path).
  const bool items_parallel =
      n > 1 && max_workers() > 1 && !in_parallel_region();
  GemmExtra dx_extra;
  dx_extra.a_cache = items_parallel ? nullptr : wt_cache;
  auto item = [&](std::size_t i) {
    const float* dyp = dy.data() + i * y_stride;
    ScratchArena& arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    if (param_grads) {
      float* dwi = parts + i * part_floats;
      float* dbi = dwi + static_cast<std::size_t>(cout) * patch;
      int oc = 0;
      for (; oc + 4 <= cout; oc += 4)
        row_sums<4>(dyp + static_cast<std::size_t>(oc) * pixels, pixels,
                    dbi + oc);
      for (; oc < cout; ++oc)
        row_sums<1>(dyp + static_cast<std::size_t>(oc) * pixels, pixels,
                    dbi + oc);
      // dW_i = dY_i * cols_i^T  [Cout, patch]
      PackSource item_cols_t = cols_t;
      item_cols_t.base = x->data() + i * x_stride;
      GemmExtra dw_extra;
      dw_extra.b_pack = &item_cols_t;
      gemm(cout, patch, pixels, dyp, pixels, /*trans_a=*/false,
           /*b=*/nullptr, patch, /*trans_b=*/false, dwi, patch,
           /*accumulate=*/false, dw_extra);
    }
    // dcols = W^T * dY_i  [patch, Ho*Wo], then scatter back to dx_i
    float* dcols =
        arena.alloc_floats(static_cast<std::size_t>(patch) * pixels);
    gemm(patch, pixels, cout, w.data(), patch, /*trans_a=*/true, dyp, pixels,
         /*trans_b=*/false, dcols, pixels, /*accumulate=*/false, dx_extra);
    col2im(dcols, c_in, h, wd, spec, dx.data() + i * x_stride);
  };
  if (items_parallel)
    parallel_for(0, static_cast<std::size_t>(n), item);
  else
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) item(i);
  if (param_grads) {
    *dw = Tensor({cout, c_in, spec.kernel, spec.kernel});
    *db = Tensor({cout});
    float* dwp = dw->data();
    float* dbp = db->data();
    const std::size_t dw_floats = static_cast<std::size_t>(cout) * patch;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      const float* dwi = parts + i * part_floats;
      for (std::size_t e = 0; e < dw_floats; ++e) dwp[e] += dwi[e];
      for (int oc = 0; oc < cout; ++oc) dbp[oc] += dwi[dw_floats + oc];
    }
  }
  return dx;
}

}  // namespace

Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy, const Conv2dSpec& spec,
                            GemmCacheSlot* wt_cache) {
  Conv2dGrads g;
  g.dx = conv_backward(x.shape(), &x, w, dy, spec, wt_cache, &g.dw, &g.db);
  return g;
}

Tensor conv2d_backward_input(const std::vector<int>& x_shape,
                             const Tensor& w, const Tensor& dy,
                             const Conv2dSpec& spec,
                             GemmCacheSlot* wt_cache) {
  return conv_backward(x_shape, nullptr, w, dy, spec, wt_cache, nullptr,
                       nullptr);
}

namespace {

// The select chain of maxpool2x2, one [2, w] input row pair per output row.
// Each step takes v only if v > best; the argmax update is mask arithmetic
// so the whole row loop is branch-free and vectorizes.
template <bool kArgmax>
void maxpool2x2_rows(const float* x, std::size_t rows, int w, float* y,
                     std::uint8_t* argmax) {
  const int wo = w / 2;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* r0 = x + 2 * r * static_cast<std::size_t>(w);
    const float* r1 = r0 + w;
    float* yr = y + r * wo;
    for (int ox = 0; ox < wo; ++ox) {
      const float v[4] = {r0[2 * ox], r0[2 * ox + 1], r1[2 * ox],
                          r1[2 * ox + 1]};
      float best = -1e30f;
      std::int32_t k = 0;
      for (std::int32_t q = 0; q < 4; ++q) {
        const std::int32_t take = -static_cast<std::int32_t>(v[q] > best);
        best = v[q] > best ? v[q] : best;
        k = (k & ~take) | (q & take);
      }
      yr[ox] = best;
      if constexpr (kArgmax) argmax[r * wo + ox] = static_cast<std::uint8_t>(k);
    }
  }
}

}  // namespace

void maxpool2x2(const float* x, std::size_t planes, int h, int w, float* y,
                std::uint8_t* argmax) {
  // h is even, so output row r of the stacked planes reads input rows 2r
  // and 2r + 1 of the stacked [planes*h, w] matrix.
  const std::size_t rows = planes * static_cast<std::size_t>(h / 2);
  if (argmax)
    maxpool2x2_rows<true>(x, rows, w, y, argmax);
  else
    maxpool2x2_rows<false>(x, rows, w, y, nullptr);
}

Tensor maxpool2x2_forward(const Tensor& x, std::vector<std::uint8_t>* argmax) {
  ADVP_CHECK(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  ADVP_CHECK_MSG(h % 2 == 0 && w % 2 == 0, "maxpool2x2: H,W must be even");
  Tensor y = Tensor::uninitialized({n, c, h / 2, w / 2});
  if (argmax) argmax->resize(y.numel());
  maxpool2x2(x.data(), static_cast<std::size_t>(n) * c, h, w, y.data(),
             argmax ? argmax->data() : nullptr);
  return y;
}

Tensor maxpool2x2_backward(const Tensor& dy,
                           const std::vector<std::uint8_t>& argmax,
                           const std::vector<int>& input_shape) {
  ADVP_CHECK(input_shape.size() == 4 && input_shape[2] % 2 == 0 &&
             input_shape[3] % 2 == 0);
  // Windows are disjoint, so writing each dx element exactly once equals
  // a zero-fill plus a scatter: the window's recorded element gets
  // 0.f + dy (a -0 gradient lands as +0) and the other three 0.f. The
  // choice is a bit mask on 0.f + dy looked up by window index, so no
  // branch depends on the argmax.
  alignas(16) static const std::uint32_t kPick[4][4] = {
      {~0u, 0u, 0u, 0u}, {0u, ~0u, 0u, 0u}, {0u, 0u, ~0u, 0u},
      {0u, 0u, 0u, ~0u}};
  Tensor dx = Tensor::uninitialized(input_shape);
  ADVP_CHECK(argmax.size() == dy.numel() && 4 * dy.numel() == dx.numel());
  const int w = input_shape[3], wo = w / 2;
  const std::size_t rows = dy.numel() / static_cast<std::size_t>(wo);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* g = dy.data() + r * wo;
    const std::uint8_t* k = argmax.data() + r * wo;
    float* d0 = dx.data() + 2 * r * static_cast<std::size_t>(w);
    float* d1 = d0 + w;
    for (int ox = 0; ox < wo; ++ox) {
      const std::uint32_t v = std::bit_cast<std::uint32_t>(0.f + g[ox]);
      const std::uint32_t* pick = kPick[k[ox] & 3];
      std::uint32_t win[4];  // the window in row-major order
      for (int q = 0; q < 4; ++q) win[q] = v & pick[q];
      std::memcpy(d0 + 2 * ox, win, 2 * sizeof(float));
      std::memcpy(d1 + 2 * ox, win + 2, 2 * sizeof(float));
    }
  }
  return dx;
}

Tensor global_avgpool_forward(const Tensor& x) {
  ADVP_CHECK(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c});
  const float inv = 1.f / static_cast<float>(h * w);
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc) {
      const float* p =
          x.data() + (static_cast<std::size_t>(i) * c + cc) * h * w;
      double s = 0.0;
      for (int j = 0; j < h * w; ++j) s += p[j];
      y.at(i, cc) = static_cast<float>(s) * inv;
    }
  return y;
}

Tensor global_avgpool_backward(const Tensor& dy,
                               const std::vector<int>& input_shape) {
  ADVP_CHECK(dy.rank() == 2 && input_shape.size() == 4);
  const int n = input_shape[0], c = input_shape[1], h = input_shape[2],
            w = input_shape[3];
  ADVP_CHECK(dy.dim(0) == n && dy.dim(1) == c);
  Tensor dx({n, c, h, w});
  const float inv = 1.f / static_cast<float>(h * w);
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc) {
      const float g = dy.at(i, cc) * inv;
      float* p = dx.data() + (static_cast<std::size_t>(i) * c + cc) * h * w;
      for (int j = 0; j < h * w; ++j) p[j] = g;
    }
  return dx;
}

Tensor upsample2x_forward(const Tensor& x) {
  ADVP_CHECK(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c, 2 * h, 2 * w});
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc)
      for (int yy = 0; yy < 2 * h; ++yy)
        for (int xx = 0; xx < 2 * w; ++xx)
          y.at(i, cc, yy, xx) = x.at(i, cc, yy / 2, xx / 2);
  return y;
}

Tensor upsample2x_backward(const Tensor& dy) {
  ADVP_CHECK(dy.rank() == 4);
  const int n = dy.dim(0), c = dy.dim(1), h2 = dy.dim(2), w2 = dy.dim(3);
  ADVP_CHECK(h2 % 2 == 0 && w2 % 2 == 0);
  Tensor dx({n, c, h2 / 2, w2 / 2});
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc)
      for (int yy = 0; yy < h2; ++yy)
        for (int xx = 0; xx < w2; ++xx)
          dx.at(i, cc, yy / 2, xx / 2) += dy.at(i, cc, yy, xx);
  return dx;
}

Tensor softmax_rows(const Tensor& logits) {
  ADVP_CHECK(logits.rank() == 2);
  const int n = logits.dim(0), k = logits.dim(1);
  Tensor p({n, k});
  for (int i = 0; i < n; ++i) {
    float mx = -1e30f;
    for (int j = 0; j < k; ++j) mx = std::max(mx, logits.at(i, j));
    double z = 0.0;
    for (int j = 0; j < k; ++j) {
      const float e = std::exp(logits.at(i, j) - mx);
      p.at(i, j) = e;
      z += e;
    }
    const float inv = static_cast<float>(1.0 / z);
    for (int j = 0; j < k; ++j) p.at(i, j) *= inv;
  }
  return p;
}

}  // namespace advp
