// Unit + property tests for the tensor substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "nn/layers.h"
#include "nn/plan.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace advp {
namespace {

TEST(TensorTest, ConstructZeroFilled) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.f);
}

TEST(TensorTest, AtIndexingRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.f;
  EXPECT_EQ(t[5], 5.f);
  t.at(0, 1) = 3.f;
  EXPECT_EQ(t[1], 3.f);
}

TEST(TensorTest, Rank4Indexing) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.f;
  EXPECT_EQ(t[static_cast<std::size_t>(1 * 3 * 4 * 5 + 2 * 4 * 5 + 3 * 5 + 4)], 9.f);
}

TEST(TensorTest, ElementwiseArithmetic) {
  Tensor a = Tensor::full({2, 2}, 2.f);
  Tensor b = Tensor::full({2, 2}, 3.f);
  Tensor c = a + b;
  EXPECT_EQ(c[0], 5.f);
  c -= a;
  EXPECT_EQ(c[3], 3.f);
  c *= b;
  EXPECT_EQ(c[1], 9.f);
  c *= 0.5f;
  EXPECT_EQ(c[2], 4.5f);
}

TEST(TensorTest, ShapeMismatchThrows) {
  Tensor a({2, 2}), b({2, 3});
  EXPECT_THROW(a += b, CheckError);
  EXPECT_THROW(a.dot(b), CheckError);
}

TEST(TensorTest, ReshapeInfersDim) {
  Tensor a({2, 6});
  Tensor b = a.reshape({3, -1});
  EXPECT_EQ(b.dim(0), 3);
  EXPECT_EQ(b.dim(1), 4);
  EXPECT_THROW(a.reshape({5, -1}), CheckError);
}

TEST(TensorTest, Reductions) {
  Tensor t = Tensor::from_vector({4}, {1.f, -2.f, 3.f, 0.5f});
  EXPECT_FLOAT_EQ(t.sum(), 2.5f);
  EXPECT_FLOAT_EQ(t.mean(), 0.625f);
  EXPECT_FLOAT_EQ(t.min(), -2.f);
  EXPECT_FLOAT_EQ(t.max(), 3.f);
  EXPECT_EQ(t.argmax(), 2u);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.f);
  EXPECT_FLOAT_EQ(t.sq_norm(), 1.f + 4.f + 9.f + 0.25f);
}

TEST(TensorTest, ClampAndApply) {
  Tensor t = Tensor::from_vector({3}, {-1.f, 0.5f, 2.f});
  t.clamp(0.f, 1.f);
  EXPECT_EQ(t[0], 0.f);
  EXPECT_EQ(t[1], 0.5f);
  EXPECT_EQ(t[2], 1.f);
  t.apply([](float v) { return v * 2.f; });
  EXPECT_EQ(t[2], 2.f);
}

TEST(TensorTest, AxpyMatchesManual) {
  Tensor a = Tensor::from_vector({3}, {1.f, 2.f, 3.f});
  Tensor b = Tensor::from_vector({3}, {4.f, 5.f, 6.f});
  Tensor c = axpy(a, 0.5f, b);
  EXPECT_FLOAT_EQ(c[0], 3.f);
  EXPECT_FLOAT_EQ(c[2], 6.f);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(1);
  Tensor t = Tensor::randn({64, 64}, rng, 2.f);
  EXPECT_NEAR(t.mean(), 0.f, 0.15f);
  const float var = t.sq_norm() / static_cast<float>(t.numel());
  EXPECT_NEAR(var, 4.f, 0.5f);
}

TEST(MatmulTest, SmallKnownProduct) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.f);
}

TEST(MatmulTest, TransposeRoundTrip) {
  Rng rng(2);
  Tensor a = Tensor::randn({5, 7}, rng);
  Tensor t = transpose(transpose(a));
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], t[i]);
}

TEST(MatmulTest, InnerDimMismatchThrows) {
  Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(ConvTest, IdentityKernelPreservesInput) {
  Rng rng(3);
  Tensor x = Tensor::randn({1, 1, 5, 5}, rng);
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor w({1, 1, 3, 3});
  w.at(0, 0, 1, 1) = 1.f;  // delta kernel
  Tensor b({1});
  Tensor y = conv2d_forward(x, w, b, spec);
  ASSERT_TRUE(y.same_shape(x));
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(ConvTest, StrideTwoHalvesOutput) {
  Tensor x({1, 2, 8, 8});
  Conv2dSpec spec{2, 4, 3, 2, 1};
  Rng rng(4);
  Tensor w = Tensor::randn({4, 2, 3, 3}, rng);
  Tensor b({4});
  Tensor y = conv2d_forward(x, w, b, spec);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

TEST(ConvTest, BiasAddsUniformly) {
  Tensor x({1, 1, 4, 4});
  Conv2dSpec spec{1, 2, 3, 1, 1};
  Tensor w({2, 1, 3, 3});
  Tensor b = Tensor::from_vector({2}, {1.5f, -0.5f});
  Tensor y = conv2d_forward(x, w, b, spec);
  EXPECT_FLOAT_EQ(y.at(0, 0, 2, 2), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -0.5f);
}

// Property: conv2d_backward's input gradient matches numeric differentiation.
TEST(ConvTest, BackwardMatchesNumericGradient) {
  Rng rng(5);
  Tensor x = Tensor::randn({1, 2, 5, 5}, rng, 0.5f);
  Conv2dSpec spec{2, 3, 3, 1, 1};
  Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.3f);
  Tensor b = Tensor::randn({3}, rng, 0.1f);

  // Scalar objective: sum of outputs.
  auto f = [&](const Tensor& xx) {
    return conv2d_forward(xx, w, b, spec).sum();
  };
  Tensor dy = Tensor::ones({1, 3, 5, 5});
  Conv2dGrads g = conv2d_backward(x, w, dy, spec);

  const float h = 1e-3f;
  for (std::size_t i : {0ul, 7ul, 23ul, 49ul}) {
    Tensor xp = x;
    xp[i] += h;
    Tensor xm = x;
    xm[i] -= h;
    const float num = (f(xp) - f(xm)) / (2.f * h);
    EXPECT_NEAR(g.dx[i], num, 5e-2f) << "at index " << i;
  }
}

TEST(ConvTest, WeightGradientMatchesNumeric) {
  Rng rng(6);
  Tensor x = Tensor::randn({2, 1, 4, 4}, rng, 0.5f);
  Conv2dSpec spec{1, 2, 3, 1, 1};
  Tensor w = Tensor::randn({2, 1, 3, 3}, rng, 0.3f);
  Tensor b({2});
  auto f = [&](const Tensor& ww) {
    return conv2d_forward(x, ww, b, spec).sum();
  };
  Tensor dy = Tensor::ones({2, 2, 4, 4});
  Conv2dGrads g = conv2d_backward(x, w, dy, spec);
  const float h = 1e-3f;
  for (std::size_t i : {0ul, 5ul, 11ul, 17ul}) {
    Tensor wp = w;
    wp[i] += h;
    Tensor wm = w;
    wm[i] -= h;
    const float num = (f(wp) - f(wm)) / (2.f * h);
    EXPECT_NEAR(g.dw[i], num, 5e-2f) << "at index " << i;
  }
}

// The col2im scatter as it was first written: a bounds test on every tap
// of every output. Kept as the reference the clipped row runs must match.
void reference_col2im(const float* cols, int c_in, int h, int w,
                      const Conv2dSpec& s, float* dx) {
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

// dx of the conv backward, per item: the dX GEMM (dcols = W^T dY) and the
// reference scatter into a zero-filled dx.
Tensor reference_conv_dx(const std::vector<int>& x_shape, const Tensor& w,
                         const Tensor& dy, const Conv2dSpec& spec) {
  const int n = x_shape[0], c_in = x_shape[1], h = x_shape[2],
            wd = x_shape[3];
  const int pixels = spec.out_h(h) * spec.out_w(wd);
  const int patch = c_in * spec.kernel * spec.kernel;
  Tensor dx(x_shape);
  std::vector<float> dcols(static_cast<std::size_t>(patch) * pixels);
  for (int i = 0; i < n; ++i) {
    gemm(patch, pixels, spec.out_channels, w.data(), patch, /*trans_a=*/true,
         dy.data() + static_cast<std::size_t>(i) * spec.out_channels * pixels,
         pixels, /*trans_b=*/false, dcols.data(), pixels);
    reference_col2im(dcols.data(), c_in, h, wd, spec,
                     dx.data() + static_cast<std::size_t>(i) * c_in * h * wd);
  }
  return dx;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Every geometry edge of the clipped col2im: kernel 1/3/5, stride 1/2,
// padding up to 2 (outputs whose taps lie wholly in the padding), odd and
// even sizes, and a stride-3 case whose corner taps never touch the image.
TEST(ConvTest, InputGradientMatchesReferenceScatter) {
  Rng rng(31);
  struct Geometry {
    int kernel, stride, pad, h, w;
  };
  std::vector<Geometry> cases = {{1, 3, 1, 2, 2}};
  for (int k : {1, 3, 5})
    for (int st : {1, 2})
      for (int pad : {0, 1, 2})
        for (int h : {5, 6, 7})
          for (int w : {5, 6, 7}) cases.push_back({k, st, pad, h, w});
  for (const Geometry& g : cases) {
    const Conv2dSpec spec{2, 3, g.kernel, g.stride, g.pad};
    const Tensor x = Tensor::randn({2, 2, g.h, g.w}, rng);
    const Tensor w = Tensor::randn({3, 2, g.kernel, g.kernel}, rng);
    const Tensor dy =
        Tensor::randn({2, 3, spec.out_h(g.h), spec.out_w(g.w)}, rng);
    const Tensor ref = reference_conv_dx(x.shape(), w, dy, spec);
    EXPECT_TRUE(same_bits(conv2d_backward(x, w, dy, spec).dx, ref))
        << "k" << g.kernel << " s" << g.stride << " p" << g.pad << " "
        << g.h << "x" << g.w;
    EXPECT_TRUE(same_bits(conv2d_backward_input(x.shape(), w, dy, spec), ref))
        << "input-only, k" << g.kernel << " s" << g.stride << " p" << g.pad
        << " " << g.h << "x" << g.w;
  }
}

TEST(PoolTest, MaxPoolPicksMaxAndRoutesGradient) {
  Tensor x({1, 1, 2, 2});
  x.at(0, 0, 0, 0) = 1.f;
  x.at(0, 0, 0, 1) = 4.f;
  x.at(0, 0, 1, 0) = 2.f;
  x.at(0, 0, 1, 1) = 3.f;
  std::vector<std::uint8_t> argmax;
  Tensor y = maxpool2x2_forward(x, &argmax);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.f);
  Tensor dy = Tensor::ones({1, 1, 1, 1});
  Tensor dx = maxpool2x2_backward(dy, argmax, x.shape());
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 1), 1.f);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 0.f);
}

// The max-pool loops as first written: a branchy first-strict-max chain
// recording flat input offsets, and a zero-filled dx plus a scatter. Kept
// as the reference the select-chain kernel must match bit for bit.
Tensor reference_maxpool(const Tensor& x, std::vector<int>* argmax) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int ho = h / 2, wo = w / 2;
  Tensor y({n, c, ho, wo});
  argmax->assign(y.numel(), 0);
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
          (*argmax)[oi] = static_cast<int>(best_off);
        }
    }
  return y;
}

Tensor reference_maxpool_backward(const Tensor& dy,
                                  const std::vector<int>& argmax,
                                  const std::vector<int>& input_shape) {
  Tensor dx(input_shape);
  for (std::size_t i = 0; i < dy.numel(); ++i)
    dx[static_cast<std::size_t>(argmax[i])] += dy[i];
  return dx;
}

// Input planes whose windows mix random values, exact ties (all four
// equal, two equal pairs, a tied maximum), +0/-0, -inf and NaN. Every
// window keeps one value above -1e30f; degenerate windows have their own
// test below.
Tensor pool_input(int n, int c, int h, int w, Rng& rng) {
  Tensor x = Tensor::randn({n, c, h, w}, rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int i = 0; i < n; ++i)
    for (int cc = 0; cc < c; ++cc)
      for (int oy = 0; oy < h / 2; ++oy)
        for (int ox = 0; ox < w / 2; ++ox) {
          float* v[4] = {&x.at(i, cc, 2 * oy, 2 * ox),
                         &x.at(i, cc, 2 * oy, 2 * ox + 1),
                         &x.at(i, cc, 2 * oy + 1, 2 * ox),
                         &x.at(i, cc, 2 * oy + 1, 2 * ox + 1)};
          const float a = *v[0], b = *v[1];
          switch (rng.uniform_int(0, 6)) {
            case 0:  // all four equal
              for (float* p : v) *p = a;
              break;
            case 1:  // two equal pairs
              *v[2] = a;
              *v[3] = b;
              break;
            case 2:  // the maximum twice
              *v[rng.uniform_int(1, 3)] = std::max({*v[0], *v[1], *v[2],
                                                    *v[3]});
              break;
            case 3:  // signed zeros
              for (float* p : v) *p = rng.coin(0.5) ? 0.f : -0.f;
              break;
            case 4:  // -inf and NaN beside one finite value
              for (float* p : v) *p = rng.coin(0.5) ? -inf : nan;
              *v[rng.uniform_int(0, 3)] = a;
              break;
            default:  // random values
              break;
          }
        }
  return x;
}

TEST(PoolTest, KernelMatchesReferenceLoop) {
  Rng rng(32);
  for (int n : {1, 3})
    for (int c : {1, 5})
      for (int w : {2, 6, 14, 34, 50, 96}) {
        const Tensor x = pool_input(n, c, 6, w, rng);
        std::vector<int> ref_arg;
        const Tensor ref_y = reference_maxpool(x, &ref_arg);
        std::vector<std::uint8_t> arg;
        const Tensor y = maxpool2x2_forward(x, &arg);
        const std::string at = "n" + std::to_string(n) + " c" +
                               std::to_string(c) + " w" + std::to_string(w);
        EXPECT_TRUE(same_bits(y, ref_y)) << at;
        EXPECT_TRUE(same_bits(maxpool2x2_forward(x, nullptr), ref_y)) << at;
        ASSERT_EQ(arg.size(), ref_arg.size()) << at;
        // Window index k of output (plane, oy, ox) is the flat offset
        // plane*h*w + (2*oy + k/2)*w + 2*ox + k%2.
        const int wo = w / 2;
        for (std::size_t o = 0; o < arg.size(); ++o) {
          const std::size_t row = o / wo, ox = o % wo;
          const std::size_t off =
              (2 * row + arg[o] / 2) * w + 2 * ox + arg[o] % 2;
          ASSERT_EQ(off, static_cast<std::size_t>(ref_arg[o]))
              << at << " output " << o;
        }
        // dy carries -0 and NaN too: both sides add it onto +0.
        Tensor dy = Tensor::randn(y.shape(), rng);
        dy[0] = -0.f;
        dy[dy.numel() - 1] = std::numeric_limits<float>::quiet_NaN();
        EXPECT_TRUE(same_bits(maxpool2x2_backward(dy, arg, x.shape()),
                              reference_maxpool_backward(dy, ref_arg,
                                                         x.shape())))
            << at;
      }
}

// A window that holds only NaN, only -inf or only -1e30f outputs -1e30f,
// and its gradient goes to the window's own first element: never to
// element 0 of the tensor, which here belongs to another batch item.
TEST(PoolTest, DegenerateWindowKeepsGradientInItsWindow) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x({2, 1, 2, 6});
  for (int k = 0; k < 12; ++k)  // item 0: ordinary values
    x.at(0, 0, k / 6, k % 6) = static_cast<float>(k % 5) - 2.f;
  const float fill[3] = {nan, -inf, -1e30f};
  for (int ox = 0; ox < 3; ++ox)
    for (int r = 0; r < 2; ++r)
      for (int q = 0; q < 2; ++q) x.at(1, 0, r, 2 * ox + q) = fill[ox];
  std::vector<std::uint8_t> arg;
  const Tensor y = maxpool2x2_forward(x, &arg);
  Tensor dy({2, 1, 1, 3});
  for (std::size_t i = 0; i < dy.numel(); ++i)
    dy[i] = static_cast<float>(i + 1);
  const Tensor dx = maxpool2x2_backward(dy, arg, x.shape());
  for (int ox = 0; ox < 3; ++ox) {
    EXPECT_EQ(y.at(1, 0, 0, ox), -1e30f) << "window " << ox;
    EXPECT_EQ(arg[3 + static_cast<std::size_t>(ox)], 0) << "window " << ox;
    EXPECT_EQ(dx.at(1, 0, 0, 2 * ox), dy.at(1, 0, 0, ox)) << "window " << ox;
    EXPECT_EQ(dx.at(1, 0, 0, 2 * ox + 1), 0.f);
    EXPECT_EQ(dx.at(1, 0, 1, 2 * ox), 0.f);
    EXPECT_EQ(dx.at(1, 0, 1, 2 * ox + 1), 0.f);
  }
  // Item 0 receives exactly its own three gradients.
  float item0 = 0.f;
  for (int k = 0; k < 12; ++k) item0 += dx.at(0, 0, k / 6, k % 6);
  EXPECT_EQ(item0, 1.f + 2.f + 3.f);
  EXPECT_EQ(dx.at(0, 0, 0, 0), 0.f);
}

// ExecPlan's max-pool op is the eager kernel without the argmax: a
// compiled forward through two pools (the second with an odd output
// width) equals the plain layer-by-layer walk.
TEST(PoolTest, PlanForwardMatchesEagerWalk) {
  Rng rng(33);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(3, 4, 3, 1, 1, rng);
  net.emplace<nn::MaxPool2x2>();
  net.emplace<nn::MaxPool2x2>();
  net.emplace<nn::Conv2d>(4, 5, 3, 1, 1, rng);
  std::vector<nn::Module*> layers;
  for (std::size_t i = 0; i < net.size(); ++i) layers.push_back(&net.child(i));
  for (int n : {1, 3}) {
    const Tensor x = pool_input(n, 3, 12, 20, rng);
    const Tensor eager = net.forward(x, /*train=*/false);
    nn::PlanCache cache("pool");
    nn::InferenceModeScope inference;
    nn::ExecPlan* plan = cache.plan_for(layers, x);
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(same_bits(plan->execute(x), eager)) << "batch " << n;
  }
}

TEST(PoolTest, GlobalAvgPoolForwardBackward) {
  Tensor x = Tensor::full({1, 2, 2, 2}, 3.f);
  x.at(0, 0, 0, 0) = 7.f;
  Tensor y = global_avgpool_forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3.f);
  Tensor dy = Tensor::ones({1, 2});
  Tensor dx = global_avgpool_backward(dy, x.shape());
  EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 1), 0.25f);
}

TEST(UpsampleTest, ForwardReplicatesBackwardSums) {
  Tensor x({1, 1, 2, 2});
  x.at(0, 0, 0, 0) = 1.f;
  x.at(0, 0, 1, 1) = 2.f;
  Tensor y = upsample2x_forward(x);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 1.f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 3, 3), 2.f);
  Tensor dx = upsample2x_backward(y);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 4.f);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 1), 8.f);
}

TEST(SoftmaxTest, RowsSumToOneAndStable) {
  Tensor logits = Tensor::from_vector({2, 3}, {1000.f, 1000.f, 1000.f,
                                               -5.f, 0.f, 5.f});
  Tensor p = softmax_rows(logits);
  for (int i = 0; i < 2; ++i) {
    float s = 0.f;
    for (int j = 0; j < 3; ++j) s += p.at(i, j);
    EXPECT_NEAR(s, 1.f, 1e-5f);
  }
  EXPECT_NEAR(p.at(0, 0), 1.f / 3.f, 1e-5f);
  EXPECT_GT(p.at(1, 2), p.at(1, 1));
}

TEST(SigmoidTest, StableAtExtremes) {
  EXPECT_NEAR(sigmoidf(0.f), 0.5f, 1e-6f);
  EXPECT_NEAR(sigmoidf(100.f), 1.f, 1e-6f);
  EXPECT_NEAR(sigmoidf(-100.f), 0.f, 1e-6f);
}

// Parameterized property sweep: conv forward/backward shape coherence
// across geometries.
struct ConvGeom {
  int cin, cout, k, stride, pad, size;
};

class ConvGeometryTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvGeometryTest, ShapesAndGradShapesAgree) {
  const ConvGeom g = GetParam();
  Rng rng(42);
  Tensor x = Tensor::randn({2, g.cin, g.size, g.size}, rng);
  Conv2dSpec spec{g.cin, g.cout, g.k, g.stride, g.pad};
  Tensor w = Tensor::randn({g.cout, g.cin, g.k, g.k}, rng);
  Tensor b({g.cout});
  Tensor y = conv2d_forward(x, w, b, spec);
  EXPECT_EQ(y.dim(1), g.cout);
  EXPECT_EQ(y.dim(2), spec.out_h(g.size));
  Conv2dGrads grads = conv2d_backward(x, w, y, spec);
  EXPECT_TRUE(grads.dx.same_shape(x));
  EXPECT_TRUE(grads.dw.same_shape(w));
  EXPECT_EQ(grads.db.dim(0), g.cout);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometryTest,
    ::testing::Values(ConvGeom{1, 1, 1, 1, 0, 4}, ConvGeom{3, 8, 3, 1, 1, 8},
                      ConvGeom{2, 4, 3, 2, 1, 8}, ConvGeom{4, 2, 5, 1, 2, 9},
                      ConvGeom{8, 16, 1, 1, 0, 6}));

}  // namespace
}  // namespace advp
