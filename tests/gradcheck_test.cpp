// Finite-difference gradient checks for the hand-rolled autodiff stack.
//
// Every analytic gradient the attacks and training loops depend on —
// conv2d, matmul, pooling, and each loss — is verified against a central
// finite difference of a scalar probe L(.) = sum(w ⊙ f(.)) with fixed
// random weights w. Shapes are randomized from a fixed seed so the checks
// cover stride/pad/batch combinations without flaking.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "nn/loss.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace advp {
namespace {

constexpr double kTol = 1e-3;

// Relative error with an absolute floor so near-zero entries don't blow up
// the ratio: |a-b| / max(1, |a|, |b|).
double rel_err(double a, double b) {
  return std::fabs(a - b) / std::max({1.0, std::fabs(a), std::fabs(b)});
}

// Max relative error between an analytic gradient and the central finite
// difference of `loss` over every element of `x`.
double max_fd_error(Tensor& x, const Tensor& analytic,
                    const std::function<double()>& loss, float eps) {
  EXPECT_TRUE(x.same_shape(analytic));
  double worst = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + eps;
    const double up = loss();
    x[i] = saved - eps;
    const double down = loss();
    x[i] = saved;
    const double fd = (up - down) / (2.0 * static_cast<double>(eps));
    worst = std::max(worst, rel_err(fd, analytic[i]));
  }
  return worst;
}

// Probe weights in [-1, 1]: L = sum(w ⊙ y), dL/dy = w.
Tensor probe(const std::vector<int>& shape, Rng& rng) {
  return Tensor::rand(shape, rng, -1.f, 1.f);
}

double wsum(const Tensor& y, const Tensor& w) {
  double s = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i)
    s += static_cast<double>(y[i]) * w[i];
  return s;
}

// Conv gradients flow through the GEMM kernel layer, so the check runs
// once per micro-kernel backend (intrinsics when built in, plus the
// portable fallback) — a packing or tiling bug in either would surface as
// a finite-difference mismatch here.
void conv2d_gradcheck() {
  Rng rng(2024);
  struct Shape {
    int n, cin, cout, k, h, w, stride, pad;
  };
  std::vector<Shape> shapes;
  shapes.push_back({1, 1, 2, 3, 5, 5, 1, 1});
  shapes.push_back({2, 2, 3, 3, 6, 5, 2, 0});
  for (int i = 0; i < 2; ++i)  // randomized shapes, fixed seed
    shapes.push_back({rng.uniform_int(1, 2), rng.uniform_int(1, 3),
                      rng.uniform_int(1, 3), 3, rng.uniform_int(5, 8),
                      rng.uniform_int(5, 8), rng.uniform_int(1, 2),
                      rng.uniform_int(0, 1)});
  for (const auto& s : shapes) {
    Conv2dSpec spec;
    spec.in_channels = s.cin;
    spec.out_channels = s.cout;
    spec.kernel = s.k;
    spec.stride = s.stride;
    spec.pad = s.pad;
    if (spec.out_h(s.h) <= 0 || spec.out_w(s.w) <= 0) continue;
    Tensor x = Tensor::randn({s.n, s.cin, s.h, s.w}, rng);
    Tensor w = Tensor::randn({s.cout, s.cin, s.k, s.k}, rng, 0.5f);
    Tensor b = Tensor::randn({s.cout}, rng, 0.5f);
    Tensor dy = probe(conv2d_forward(x, w, b, spec).shape(), rng);
    Conv2dGrads g = conv2d_backward(x, w, dy, spec);
    // conv is linear in each argument, so a large eps is exact and keeps
    // the float round-off out of the difference quotient.
    const float eps = 0.05f;
    auto loss = [&] { return wsum(conv2d_forward(x, w, b, spec), dy); };
    EXPECT_LT(max_fd_error(x, g.dx, loss, eps), kTol) << "dx";
    EXPECT_LT(max_fd_error(w, g.dw, loss, eps), kTol) << "dw";
    EXPECT_LT(max_fd_error(b, g.db, loss, eps), kTol) << "db";
  }
}

TEST(GradCheckTest, Conv2dInputWeightBias) { conv2d_gradcheck(); }

TEST(GradCheckTest, Conv2dInputWeightBiasPortableKernel) {
  gemm_detail::force_portable(true);
  conv2d_gradcheck();
  gemm_detail::force_portable(false);
}

TEST(GradCheckTest, MatmulBothArguments) {
  Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    const int m = rng.uniform_int(2, 5), k = rng.uniform_int(2, 5),
              n = rng.uniform_int(2, 5);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor w = probe({m, n}, rng);
    // d(sum(w ⊙ AB))/dA = w B^T, /dB = A^T w.
    Tensor da = matmul(w, transpose(b));
    Tensor db = matmul(transpose(a), w);
    auto loss = [&] { return wsum(matmul(a, b), w); };
    EXPECT_LT(max_fd_error(a, da, loss, 0.05f), kTol);
    EXPECT_LT(max_fd_error(b, db, loss, 0.05f), kTol);
  }
}

TEST(GradCheckTest, MaxPool2x2) {
  Rng rng(11);
  Tensor x = Tensor::randn({2, 2, 4, 6}, rng);
  std::vector<std::uint8_t> argmax;
  Tensor y = maxpool2x2_forward(x, &argmax);
  Tensor w = probe(y.shape(), rng);
  Tensor dx = maxpool2x2_backward(w, argmax, x.shape());
  // Small eps so perturbations never flip which element wins the window.
  auto loss = [&] { return wsum(maxpool2x2_forward(x, nullptr), w); };
  EXPECT_LT(max_fd_error(x, dx, loss, 1e-3f), kTol);
}

TEST(GradCheckTest, GlobalAvgPool) {
  Rng rng(12);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  Tensor y = global_avgpool_forward(x);
  Tensor w = probe(y.shape(), rng);
  Tensor dx = global_avgpool_backward(w, x.shape());
  auto loss = [&] { return wsum(global_avgpool_forward(x), w); };
  EXPECT_LT(max_fd_error(x, dx, loss, 0.05f), kTol);
}

TEST(GradCheckTest, Upsample2x) {
  Rng rng(13);
  Tensor x = Tensor::randn({1, 2, 3, 4}, rng);
  Tensor w = probe(upsample2x_forward(x).shape(), rng);
  Tensor dx = upsample2x_backward(w);
  auto loss = [&] { return wsum(upsample2x_forward(x), w); };
  EXPECT_LT(max_fd_error(x, dx, loss, 0.05f), kTol);
}

TEST(GradCheckTest, MseLoss) {
  Rng rng(21);
  Tensor pred = Tensor::randn({3, 4}, rng);
  Tensor target = Tensor::randn({3, 4}, rng);
  nn::LossResult r = nn::mse_loss(pred, target);
  auto loss = [&] {
    return static_cast<double>(nn::mse_loss(pred, target).value);
  };
  EXPECT_LT(max_fd_error(pred, r.grad, loss, 1e-2f), kTol);
}

TEST(GradCheckTest, SmoothL1Loss) {
  Rng rng(22);
  const float beta = 1.f;
  Tensor pred = Tensor::randn({4, 3}, rng);
  // Keep |pred - target| away from the kink at beta so the finite
  // difference never straddles the regime change.
  Tensor target = pred.map([](float v) { return v + 0.4f; });
  for (std::size_t i = 0; i < target.numel(); ++i)
    if (i % 2 == 0) target[i] = pred[i] + 2.f;
  nn::LossResult r = nn::smooth_l1_loss(pred, target, beta);
  auto loss = [&] {
    return static_cast<double>(nn::smooth_l1_loss(pred, target, beta).value);
  };
  EXPECT_LT(max_fd_error(pred, r.grad, loss, 1e-2f), kTol);
}

TEST(GradCheckTest, BceWithLogitsLoss) {
  Rng rng(23);
  Tensor logits = Tensor::randn({3, 5}, rng, 1.5f);
  Tensor target = Tensor::rand({3, 5}, rng);
  Tensor weights = Tensor::rand({3, 5}, rng, 0.25f, 2.f);
  for (const bool weighted : {false, true}) {
    Tensor w = weighted ? weights : Tensor();
    nn::LossResult r = nn::bce_with_logits_loss(logits, target, w);
    auto loss = [&] {
      return static_cast<double>(
          nn::bce_with_logits_loss(logits, target, w).value);
    };
    EXPECT_LT(max_fd_error(logits, r.grad, loss, 1e-2f), kTol)
        << "weighted=" << weighted;
  }
}

TEST(GradCheckTest, CrossEntropyLoss) {
  Rng rng(24);
  Tensor logits = Tensor::randn({4, 6}, rng, 2.f);
  std::vector<int> labels;
  for (int i = 0; i < 4; ++i) labels.push_back(rng.uniform_int(0, 5));
  nn::LossResult r = nn::cross_entropy_loss(logits, labels);
  auto loss = [&] {
    return static_cast<double>(nn::cross_entropy_loss(logits, labels).value);
  };
  EXPECT_LT(max_fd_error(logits, r.grad, loss, 1e-2f), kTol);
}

TEST(GradCheckTest, InfoNceLoss) {
  Rng rng(25);
  Tensor z = Tensor::randn({6, 4}, rng);
  for (const float margin : {0.f, 0.1f}) {
    nn::LossResult r = nn::info_nce_loss(z, 0.5f, margin);
    auto loss = [&] {
      return static_cast<double>(nn::info_nce_loss(z, 0.5f, margin).value);
    };
    EXPECT_LT(max_fd_error(z, r.grad, loss, 1e-2f), kTol)
        << "margin=" << margin;
  }
}

}  // namespace
}  // namespace advp
