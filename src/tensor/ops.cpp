#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
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

// Largest im2col staging buffer the batched forward GEMM will ask the
// arena for (floats). Batches larger than this are processed in groups.
constexpr std::size_t kColsBudgetFloats = std::size_t{4} << 20;  // 16 MiB

}  // namespace

// Lowers x [Cin,H,W] to columns: row p of the [Cin*K*K, Ho*Wo] column
// matrix lands at cols[p*cols_ld ...]. `cols_ld` lets several batch items
// share one wide matrix (each item owns a disjoint Ho*Wo column block).
void im2col_lower(const float* x, int c_in, int h, int w,
                  const Conv2dSpec& s, float* cols, std::size_t cols_ld) {
  const int ho = s.out_h(h), wo = s.out_w(w);
  const int patch = c_in * s.kernel * s.kernel;
  // Staged-lowering traffic. The implicit-GEMM conv path never runs this
  // function, so a warm implicit forward leaves the counter at zero.
  ADVP_OBS_COUNT(kIm2colBytesStaged, static_cast<std::uint64_t>(patch) *
                                         ho * wo * sizeof(float));
  for (int p = 0; p < patch; ++p) {
    const int c = p / (s.kernel * s.kernel);
    const int ky = (p / s.kernel) % s.kernel;
    const int kx = p % s.kernel;
    float* out_row = cols + static_cast<std::size_t>(p) * cols_ld;
    for (int oy = 0; oy < ho; ++oy) {
      const int iy = oy * s.stride + ky - s.pad;
      for (int ox = 0; ox < wo; ++ox) {
        const int ix = ox * s.stride + kx - s.pad;
        float v = 0.f;
        if (iy >= 0 && iy < h && ix >= 0 && ix < w)
          v = x[(static_cast<std::size_t>(c) * h + iy) * w + ix];
        out_row[oy * wo + ox] = v;
      }
    }
  }
}

namespace {

// Scatters columns [Cin*K*K, Ho*Wo] back into dx [Cin,H,W] (accumulating).
void col2im(const float* cols, int c_in, int h, int w, const Conv2dSpec& s,
            float* dx) {
  const int ho = s.out_h(h), wo = s.out_w(w);
  const int patch = c_in * s.kernel * s.kernel;
  for (int p = 0; p < patch; ++p) {
    const int c = p / (s.kernel * s.kernel);
    const int ky = (p / s.kernel) % s.kernel;
    const int kx = p % s.kernel;
    const float* in_row = cols + static_cast<std::size_t>(p) * ho * wo;
    for (int oy = 0; oy < ho; ++oy) {
      const int iy = oy * s.stride + ky - s.pad;
      if (iy < 0 || iy >= h) continue;
      for (int ox = 0; ox < wo; ++ox) {
        const int ix = ox * s.stride + kx - s.pad;
        if (ix < 0 || ix >= w) continue;
        dx[(static_cast<std::size_t>(c) * h + iy) * w + ix] +=
            in_row[oy * wo + ox];
      }
    }
  }
}

}  // namespace

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      const Conv2dSpec& spec, const ConvFusion* fusion) {
  ADVP_CHECK_MSG(x.rank() == 4, "conv2d: input must be NCHW");
  const int n = x.dim(0), c_in = x.dim(1), h = x.dim(2), wd = x.dim(3);
  ADVP_CHECK_MSG(c_in == spec.in_channels, "conv2d: Cin mismatch");
  ADVP_CHECK(w.rank() == 4 && w.dim(0) == spec.out_channels &&
             w.dim(1) == spec.in_channels && w.dim(2) == spec.kernel &&
             w.dim(3) == spec.kernel);
  ADVP_CHECK(b.rank() == 1 && b.dim(0) == spec.out_channels);
  const int ho = spec.out_h(h), wo = spec.out_w(wd);
  ADVP_CHECK_MSG(ho > 0 && wo > 0, "conv2d: output collapses to zero size");

  const int patch = c_in * spec.kernel * spec.kernel;
  const int pixels = ho * wo;
  Tensor y({n, spec.out_channels, ho, wo});

  const std::size_t x_stride = static_cast<std::size_t>(c_in) * h * wd;
  const std::size_t y_stride =
      static_cast<std::size_t>(spec.out_channels) * pixels;
  // One MAC per (item, out-channel, patch entry, output pixel); the im2col
  // GEMMs below also land in matmul_flops (documented overlap).
  ADVP_OBS_COUNT(kConv2dFlops, 2ull * n * y_stride * patch);

  // With fusion: bias (and optional BN fold + activation) move into the
  // GEMM epilogue, the weight packing is served from the caller's cache
  // slot, and the single-item case writes the GEMM output (epilogue
  // applied) directly into y — skipping the staging buffer and the
  // scatter pass entirely. All variants are bit-identical: the epilogue
  // performs the same float ops, in the same order, as the separate
  // bias-scatter + BatchNorm2d + activation passes.
  GemmEpilogue epi;
  GemmExtra extra;
  if (fusion) {
    epi.bias = b.data();  // rows of the conv GEMM are out-channels
    epi.bn_mean = fusion->bn_mean;
    epi.bn_inv_std = fusion->bn_inv_std;
    epi.bn_gamma = fusion->bn_gamma;
    epi.bn_beta = fusion->bn_beta;
    epi.act = fusion->act;
    epi.slope = fusion->act_slope;
    extra.a_cache = fusion->weight_cache;
    extra.epilogue = &epi;
    extra.precision = fusion->precision;  // weights_in_a: conv W is op(A)
    extra.act_scale = fusion->act_scale;
  }

  // Implicit-GEMM route (fusion only): each item's GEMM gathers patch
  // elements straight from x inside the panel packer and writes through
  // the fused epilogue directly into y — no column matrix, no staging
  // buffer, no scatter pass. Bit-identical to the staged route below by
  // the pack contract (same element multiset, same panel order, same
  // k-accumulation). int8 with a *dynamic* activation scale stays staged
  // when n > 1: the staged group computes one absmax across all items'
  // columns, and a per-item GEMM would (validly but differently) rescale.
  const bool implicit =
      fusion && implicit_im2col_enabled() &&
      (fusion->precision != GemmPrecision::kInt8 ||
       fusion->act_scale > 0.f || n == 1);
  if (implicit) {
    PackSource ps;
    ps.item_stride = x_stride;
    ps.items = 1;
    ps.c_in = c_in;
    ps.h = h;
    ps.w = wd;
    ps.kernel = spec.kernel;
    ps.stride = spec.stride;
    ps.pad = spec.pad;
    ps.out_h = ho;
    ps.out_w = wo;
    auto run_item = [&](std::size_t i) {
      PackSource item_ps = ps;
      item_ps.base = x.data() + i * x_stride;
      GemmExtra item_extra = extra;
      item_extra.b_pack = &item_ps;
      gemm(spec.out_channels, pixels, patch, w.data(), patch,
           /*trans_a=*/false, /*b=*/nullptr, pixels, /*trans_b=*/false,
           y.data() + i * y_stride, pixels, /*accumulate=*/false,
           item_extra);
    };
    // Item 0 runs serially so the shared weight-cache slot warms exactly
    // once; the remaining items' slot lookups are pure reads and fan out.
    run_item(0);
    if (n > 1 && max_workers() > 1 && !in_parallel_region())
      parallel_for(1, static_cast<std::size_t>(n), run_item);
    else
      for (std::size_t i = 1; i < static_cast<std::size_t>(n); ++i)
        run_item(i);
    return y;
  }

  // The whole batch (in arena-budget groups) is lowered into one wide
  // column matrix [patch, group*Ho*Wo] and multiplied in a single GEMM:
  // item columns are disjoint and each output element's k-accumulation is
  // unchanged, so results are bit-identical to a per-item loop while the
  // kernel sees one large, well-blocked product. The weight tensor is
  // already the [Cout, patch] GEMM operand in row-major order.
  const std::size_t group = std::clamp<std::size_t>(
      kColsBudgetFloats / (static_cast<std::size_t>(patch) * pixels),
      std::size_t{1}, static_cast<std::size_t>(n));
  ScratchArena& arena = ScratchArena::local();
  for (std::size_t n0 = 0; n0 < static_cast<std::size_t>(n); n0 += group) {
    const std::size_t gn =
        std::min(group, static_cast<std::size_t>(n) - n0);
    const std::size_t wide = gn * pixels;
    ScratchArena::Frame frame(arena);
    float* cols = arena.alloc_floats(static_cast<std::size_t>(patch) * wide);
    auto lower = [&](std::size_t i) {
      im2col_lower(x.data() + (n0 + i) * x_stride, c_in, h, wd, spec,
                   cols + i * pixels, wide);
    };
    if (gn > 1 && max_workers() > 1 && !in_parallel_region())
      parallel_for(0, gn, lower);
    else
      for (std::size_t i = 0; i < gn; ++i) lower(i);

    if (fusion && gn == 1) {
      gemm(spec.out_channels, pixels, patch, w.data(), patch,
           /*trans_a=*/false, cols, pixels, /*trans_b=*/false,
           y.data() + n0 * y_stride, pixels, /*accumulate=*/false, extra);
      continue;
    }

    float* ybuf = arena.alloc_floats(
        static_cast<std::size_t>(spec.out_channels) * wide);
    gemm(spec.out_channels, static_cast<int>(wide), patch, w.data(), patch,
         /*trans_a=*/false, cols, static_cast<int>(wide), /*trans_b=*/false,
         ybuf, static_cast<int>(wide), /*accumulate=*/false, extra);

    auto scatter = [&](std::size_t i) {
      float* yp = y.data() + (n0 + i) * y_stride;
      for (int oc = 0; oc < spec.out_channels; ++oc) {
        const float bias = b[static_cast<std::size_t>(oc)];
        const float* src =
            ybuf + static_cast<std::size_t>(oc) * wide + i * pixels;
        float* dst = yp + static_cast<std::size_t>(oc) * pixels;
        if (fusion) {
          // Epilogue already applied bias (+BN/act) in the GEMM pass.
          std::copy(src, src + pixels, dst);
        } else {
          for (int j = 0; j < pixels; ++j) dst[j] = src[j] + bias;
        }
      }
    };
    if (gn > 1 && max_workers() > 1 && !in_parallel_region())
      parallel_for(0, gn, scatter);
    else
      for (std::size_t i = 0; i < gn; ++i) scatter(i);
  }
  return y;
}

namespace {

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
  // Per-item weight/bias partials computed in parallel (dx planes are
  // disjoint), then reduced on the caller in index order — the same
  // accumulation order as a plain serial loop, so gradients are
  // bit-identical for any worker count. The transposed operands (cols^T
  // for dW, W^T for dcols) are handled by the GEMM packing layer, and the
  // per-item column/dcols buffers come from the worker's scratch arena —
  // the steady-state loop performs no heap allocations beyond the
  // returned gradient tensors.
  std::vector<Tensor> dw_part(param_grads ? static_cast<std::size_t>(n) : 0);
  std::vector<Tensor> db_part(param_grads ? static_cast<std::size_t>(n) : 0);
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
      Tensor dbi({spec.out_channels});
      for (int oc = 0; oc < spec.out_channels; ++oc) {
        const float* row = dyp + static_cast<std::size_t>(oc) * pixels;
        double s = 0.0;
        for (int j = 0; j < pixels; ++j) s += row[j];
        dbi[static_cast<std::size_t>(oc)] = static_cast<float>(s);
      }
      db_part[i] = std::move(dbi);
      float* cols =
          arena.alloc_floats(static_cast<std::size_t>(patch) * pixels);
      im2col_lower(x->data() + i * x_stride, c_in, h, wd, spec, cols,
                   pixels);
      // dW_i = dY_i * cols_i^T  [Cout, patch]
      Tensor dwi({spec.out_channels, patch});
      gemm(spec.out_channels, patch, pixels, dyp, pixels, /*trans_a=*/false,
           cols, pixels, /*trans_b=*/true, dwi.data(), patch);
      dw_part[i] = std::move(dwi);
    }
    // dcols = W^T * dY_i  [patch, Ho*Wo], then scatter back to dx_i
    float* dcols =
        arena.alloc_floats(static_cast<std::size_t>(patch) * pixels);
    gemm(patch, pixels, spec.out_channels, w.data(), patch, /*trans_a=*/true,
         dyp, pixels, /*trans_b=*/false, dcols, pixels, /*accumulate=*/false,
         dx_extra);
    col2im(dcols, c_in, h, wd, spec, dx.data() + i * x_stride);
  };
  if (items_parallel)
    parallel_for(0, static_cast<std::size_t>(n), item);
  else
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) item(i);
  if (param_grads) {
    Tensor dwmat({spec.out_channels, patch});
    *db = Tensor({spec.out_channels});
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      dwmat += dw_part[i];
      *db += db_part[i];
    }
    *dw = dwmat.reshape({spec.out_channels, c_in, spec.kernel, spec.kernel});
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

Tensor maxpool2x2_forward(const Tensor& x, std::vector<int>* argmax) {
  ADVP_CHECK(x.rank() == 4);
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  ADVP_CHECK_MSG(h % 2 == 0 && w % 2 == 0, "maxpool2x2: H,W must be even");
  const int ho = h / 2, wo = w / 2;
  Tensor y({n, c, ho, wo});
  if (argmax) argmax->assign(y.numel(), 0);
  std::size_t oi = 0;
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc) {
      const std::size_t plane =
          (static_cast<std::size_t>(i) * c + cc) * h * w;
      for (int oy = 0; oy < ho; ++oy)
        for (int ox = 0; ox < wo; ++ox, ++oi) {
          float best = -1e30f;
          std::size_t best_off = 0;
          for (int dy = 0; dy < 2; ++dy)
            for (int dx = 0; dx < 2; ++dx) {
              const std::size_t off =
                  plane + static_cast<std::size_t>(2 * oy + dy) * w +
                  (2 * ox + dx);
              if (x[off] > best) {
                best = x[off];
                best_off = off;
              }
            }
          y[oi] = best;
          if (argmax) (*argmax)[oi] = static_cast<int>(best_off);
        }
    }
  return y;
}

Tensor maxpool2x2_backward(const Tensor& dy, const std::vector<int>& argmax,
                           const std::vector<int>& input_shape) {
  Tensor dx(input_shape);
  ADVP_CHECK(argmax.size() == dy.numel());
  for (std::size_t i = 0; i < dy.numel(); ++i)
    dx[static_cast<std::size_t>(argmax[i])] += dy[i];
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
