// Tests for layers, losses, optimizers, serialization — including numeric
// gradient checks of full layer stacks (the property every white-box attack
// depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace advp::nn {
namespace {

// Numeric input-gradient check harness: builds scalar objective
// L = sum(module(x)) and compares backward() against central differences.
void check_input_gradient(Module& m, const Tensor& x, float tol = 5e-2f,
                          bool train = false) {
  Tensor y = m.forward(x, train);
  Tensor dy = Tensor::ones(y.shape());
  Tensor dx = m.backward(dy);
  ASSERT_TRUE(dx.same_shape(x));

  const float h = 1e-3f;
  const std::size_t stride = std::max<std::size_t>(1, x.numel() / 7);
  for (std::size_t i = 0; i < x.numel(); i += stride) {
    Tensor xp = x;
    xp[i] += h;
    Tensor xm = x;
    xm[i] -= h;
    const float fp = m.forward(xp, train).sum();
    const float fm = m.forward(xm, train).sum();
    const float num = (fp - fm) / (2.f * h);
    EXPECT_NEAR(dx[i], num, tol) << "input index " << i;
  }
  // Restore cache for any follow-up calls.
  m.forward(x, train);
}

TEST(LayerGradTest, Conv2dInputGradient) {
  Rng rng(1);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::randn({1, 2, 6, 6}, rng, 0.5f);
  check_input_gradient(conv, x);
}

TEST(LayerGradTest, LinearInputGradient) {
  Rng rng(2);
  Linear lin(10, 4, rng);
  Tensor x = Tensor::randn({3, 10}, rng, 0.5f);
  check_input_gradient(lin, x);
}

TEST(LayerGradTest, SiLUInputGradient) {
  Rng rng(3);
  SiLU act;
  Tensor x = Tensor::randn({2, 5}, rng, 1.f);
  check_input_gradient(act, x, 1e-2f);
}

TEST(LayerGradTest, ReLUGradientMasksNegative) {
  ReLU relu;
  Tensor x = Tensor::from_vector({1, 4}, {-1.f, 2.f, -3.f, 4.f});
  Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_FLOAT_EQ(y[1], 2.f);
  Tensor dy = Tensor::ones({1, 4});
  Tensor dx = relu.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.f);
  EXPECT_FLOAT_EQ(dx[1], 1.f);
}

TEST(LayerGradTest, LeakyReLUSlope) {
  ReLU leaky(0.1f);
  Tensor x = Tensor::from_vector({1, 2}, {-2.f, 2.f});
  Tensor y = leaky.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], -0.2f);
  Tensor dx = leaky.backward(Tensor::ones({1, 2}));
  EXPECT_FLOAT_EQ(dx[0], 0.1f);
}

TEST(LayerGradTest, BatchNormEvalModeGradient) {
  Rng rng(4);
  BatchNorm2d bn(3);
  // Push a few train batches to move running stats off the default.
  Tensor warm = Tensor::randn({4, 3, 4, 4}, rng, 2.f);
  bn.forward(warm, true);
  Tensor x = Tensor::randn({1, 3, 4, 4}, rng, 0.5f);
  check_input_gradient(bn, x, 5e-2f, /*train=*/false);
}

TEST(LayerGradTest, BatchNormTrainModeGradient) {
  Rng rng(5);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({2, 2, 3, 3}, rng, 1.f);
  // In train mode the objective depends on batch statistics; the numeric
  // check must recompute them, which check_input_gradient does by calling
  // forward(train=true).
  check_input_gradient(bn, x, 5e-2f, /*train=*/true);
}

// BatchNorm2d's train forward and backward as first written: one channel
// at a time, each reduction a single double chain in (i, j) order. Kept as
// the reference the channel-interleaved sums must match bit for bit.
struct BatchNormReference {
  std::vector<float> gamma, beta, running_mean, running_var, inv_std;
  std::vector<float> dgamma, dbeta;
  float momentum = 0.1f, eps = 1e-5f;
  Tensor xhat;

  Tensor forward(const Tensor& x) {
    const int n = x.dim(0), c = x.dim(1);
    const std::size_t plane = static_cast<std::size_t>(x.dim(2)) * x.dim(3);
    std::vector<float> mean(static_cast<std::size_t>(c)),
        var(static_cast<std::size_t>(c));
    for (int cc = 0; cc < c; ++cc) {
      double s = 0.0, s2 = 0.0;
      for (int i = 0; i < n; ++i) {
        const float* p =
            x.data() + (static_cast<std::size_t>(i) * c + cc) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          s += p[j];
          s2 += static_cast<double>(p[j]) * p[j];
        }
      }
      const double cnt = static_cast<double>(n) * static_cast<double>(plane);
      const double m = s / cnt;
      mean[static_cast<std::size_t>(cc)] = static_cast<float>(m);
      var[static_cast<std::size_t>(cc)] =
          static_cast<float>(std::max(0.0, s2 / cnt - m * m));
    }
    inv_std.assign(static_cast<std::size_t>(c), 0.f);
    for (std::size_t cc = 0; cc < static_cast<std::size_t>(c); ++cc) {
      running_mean[cc] =
          (1.f - momentum) * running_mean[cc] + momentum * mean[cc];
      running_var[cc] = (1.f - momentum) * running_var[cc] + momentum * var[cc];
      inv_std[cc] = 1.f / std::sqrt(var[cc] + eps);
    }
    Tensor y(x.shape());
    xhat = Tensor(x.shape());
    for (int i = 0; i < n; ++i)
      for (int cc = 0; cc < c; ++cc) {
        const std::size_t k = static_cast<std::size_t>(cc);
        const float m = mean[k], is = inv_std[k], g = gamma[k], bt = beta[k];
        const std::size_t base = (static_cast<std::size_t>(i) * c + cc) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          const float xh = (x[base + j] - m) * is;
          xhat[base + j] = xh;
          y[base + j] = g * xh + bt;
        }
      }
    return y;
  }

  Tensor backward(const Tensor& dy) {
    const int n = dy.dim(0), c = dy.dim(1);
    const std::size_t plane = static_cast<std::size_t>(dy.dim(2)) * dy.dim(3);
    const double cnt = static_cast<double>(n) * static_cast<double>(plane);
    Tensor dx(dy.shape());
    dgamma.assign(static_cast<std::size_t>(c), 0.f);
    dbeta.assign(static_cast<std::size_t>(c), 0.f);
    for (int cc = 0; cc < c; ++cc) {
      const float g = gamma[static_cast<std::size_t>(cc)];
      const float is = inv_std[static_cast<std::size_t>(cc)];
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (int i = 0; i < n; ++i) {
        const std::size_t base =
            (static_cast<std::size_t>(i) * c + cc) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          sum_dy += dy[base + j];
          sum_dy_xhat += static_cast<double>(dy[base + j]) * xhat[base + j];
        }
      }
      dgamma[static_cast<std::size_t>(cc)] += static_cast<float>(sum_dy_xhat);
      dbeta[static_cast<std::size_t>(cc)] += static_cast<float>(sum_dy);
      for (int i = 0; i < n; ++i) {
        const std::size_t base = (static_cast<std::size_t>(i) * c + cc) * plane;
        for (std::size_t j = 0; j < plane; ++j) {
          const double term =
              cnt * dy[base + j] - sum_dy - xhat[base + j] * sum_dy_xhat;
          dx[base + j] = static_cast<float>(g * is * term / cnt);
        }
      }
    }
    return dx;
  }
};

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Channel counts around the sweep group of 4 (remainders 1 and 3, one
// whole group, three groups plus one), batch 1 and 3, and both a 7x9
// plane and the contrastive head's [N, D, 1, 1] view.
TEST(LayerGradTest, BatchNormTrainMatchesReferenceLoops) {
  Rng rng(41);
  for (int c : {1, 3, 4, 5, 13})
    for (int n : {1, 3})
      for (const auto& hw : {std::pair{7, 9}, std::pair{1, 1}}) {
        const std::string at = "c" + std::to_string(c) + " n" +
                               std::to_string(n) + " " +
                               std::to_string(hw.first) + "x" +
                               std::to_string(hw.second);
        BatchNorm2d bn(c);
        BatchNormReference ref;
        bn.gamma() = Tensor::randn({c}, rng);
        bn.beta() = Tensor::randn({c}, rng);
        bn.running_mean() = Tensor::randn({c}, rng);
        bn.running_var() = Tensor::rand({c}, rng, 0.5f, 2.f);
        auto vec = [](const Tensor& t) {
          return std::vector<float>(t.data(), t.data() + t.numel());
        };
        ref.gamma = vec(bn.gamma());
        ref.beta = vec(bn.beta());
        ref.running_mean = vec(bn.running_mean());
        ref.running_var = vec(bn.running_var());
        // Two steps, so the second one's statistics update moved buffers.
        // The second step's inputs and gradients sit on a large offset:
        // the variance and the dx term then cancel, so the low bits of
        // the double sums, and so their summation order, reach the float
        // results.
        for (int step = 0; step < 2; ++step) {
          const float offset = step == 0 ? 0.5f : 300.f;
          Tensor x = Tensor::randn({n, c, hw.first, hw.second}, rng,
                                   step == 0 ? 2.f : 0.01f);
          x += offset;
          const Tensor y = bn.forward(x, /*train=*/true);
          const Tensor ref_y = ref.forward(x);
          EXPECT_TRUE(same_bits(y.data(), ref_y.data(), y.numel())) << at;
          EXPECT_TRUE(same_bits(bn.running_mean().data(),
                                ref.running_mean.data(), c))
              << at;
          EXPECT_TRUE(same_bits(bn.running_var().data(),
                                ref.running_var.data(), c))
              << at;
          std::vector<Param*> params;
          bn.collect_params(params);
          for (Param* p : params) p->grad.fill(0.f);
          Tensor dy = Tensor::randn(y.shape(), rng);
          dy += offset;
          const Tensor dx = bn.backward(dy);
          const Tensor ref_dx = ref.backward(dy);
          EXPECT_TRUE(same_bits(dx.data(), ref_dx.data(), dx.numel())) << at;
          EXPECT_TRUE(same_bits(params[0]->grad.data(), ref.dgamma.data(),
                                ref.dgamma.size()))
              << at;
          EXPECT_TRUE(same_bits(params[1]->grad.data(), ref.dbeta.data(),
                                ref.dbeta.size()))
              << at;
        }
      }
}

TEST(LayerGradTest, SequentialConvStackGradient) {
  Rng rng(6);
  Sequential net;
  net.emplace<Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<SiLU>();
  net.emplace<MaxPool2x2>();
  net.emplace<Conv2d>(4, 2, 3, 1, 1, rng);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 3 * 3, 2, rng);
  Tensor x = Tensor::randn({1, 1, 6, 6}, rng, 0.5f);
  check_input_gradient(net, x);
}

TEST(LayerGradTest, BatchNormNormalizesTrainBatch) {
  Rng rng(7);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({8, 2, 4, 4}, rng, 3.f);
  x += 5.f;
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1.
  for (int c = 0; c < 2; ++c) {
    double s = 0.0, s2 = 0.0;
    int n = 0;
    for (int b = 0; b < 8; ++b)
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
          const float v = y.at(b, c, i, j);
          s += v;
          s2 += static_cast<double>(v) * v;
          ++n;
        }
    EXPECT_NEAR(s / n, 0.0, 1e-3);
    EXPECT_NEAR(s2 / n, 1.0, 1e-2);
  }
}

TEST(LayerTest, DropoutEvalIsIdentityTrainScales) {
  Rng rng(8);
  Dropout drop(0.5f, rng);
  Tensor x = Tensor::ones({1, 1000});
  Tensor y_eval = drop.forward(x, false);
  for (std::size_t i = 0; i < y_eval.numel(); ++i) EXPECT_EQ(y_eval[i], 1.f);
  Tensor y_train = drop.forward(x, true);
  // Inverted dropout: surviving units scaled by 1/keep, mean preserved.
  EXPECT_NEAR(y_train.mean(), 1.f, 0.15f);
  int zeros = 0;
  for (std::size_t i = 0; i < y_train.numel(); ++i)
    if (y_train[i] == 0.f) ++zeros;
  EXPECT_NEAR(static_cast<float>(zeros) / 1000.f, 0.5f, 0.1f);
}

TEST(LayerTest, ConcatSplitRoundTrip) {
  Rng rng(9);
  Tensor a = Tensor::randn({2, 3, 4, 4}, rng);
  Tensor b = Tensor::randn({2, 2, 4, 4}, rng);
  Tensor c = concat_channels(a, b);
  EXPECT_EQ(c.dim(1), 5);
  Tensor da, db;
  split_channels(c, 3, &da, &db);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(da[i], a[i]);
  for (std::size_t i = 0; i < b.numel(); ++i) EXPECT_EQ(db[i], b[i]);
}

// ---- losses -----------------------------------------------------------

TEST(LossTest, MseValueAndGradient) {
  Tensor pred = Tensor::from_vector({2}, {1.f, 3.f});
  Tensor target = Tensor::from_vector({2}, {0.f, 1.f});
  LossResult r = mse_loss(pred, target);
  EXPECT_FLOAT_EQ(r.value, (1.f + 4.f) / 2.f);
  EXPECT_FLOAT_EQ(r.grad[0], 2.f * 1.f / 2.f);
  EXPECT_FLOAT_EQ(r.grad[1], 2.f * 2.f / 2.f);
}

TEST(LossTest, SmoothL1QuadraticNearLinearFar) {
  Tensor pred = Tensor::from_vector({2}, {0.1f, 5.f});
  Tensor target({2});
  LossResult r = smooth_l1_loss(pred, target, 1.f);
  // first: quadratic 0.5*0.01; second: 5-0.5
  EXPECT_NEAR(r.value, (0.005f + 4.5f) / 2.f, 1e-5f);
  EXPECT_NEAR(r.grad[0], 0.1f / 2.f, 1e-6f);
  EXPECT_NEAR(r.grad[1], 1.f / 2.f, 1e-6f);
}

TEST(LossTest, BceMatchesManual) {
  Tensor logits = Tensor::from_vector({2}, {0.f, 2.f});
  Tensor target = Tensor::from_vector({2}, {1.f, 0.f});
  LossResult r = bce_with_logits_loss(logits, target);
  const float l0 = std::log(2.f);                    // -log(sigmoid(0))
  const float l1 = 2.f + std::log1p(std::exp(-2.f)); // -log(1-sigmoid(2))
  EXPECT_NEAR(r.value, (l0 + l1) / 2.f, 1e-5f);
  EXPECT_NEAR(r.grad[0], (0.5f - 1.f) / 2.f, 1e-5f);
}

TEST(LossTest, BceWeightsZeroOutEntries) {
  Tensor logits = Tensor::from_vector({2}, {3.f, -3.f});
  Tensor target = Tensor::from_vector({2}, {0.f, 0.f});
  Tensor weights = Tensor::from_vector({2}, {0.f, 1.f});
  LossResult r = bce_with_logits_loss(logits, target, weights);
  EXPECT_EQ(r.grad[0], 0.f);
  EXPECT_NEAR(r.value, std::log1p(std::exp(-3.f)), 1e-5f);
}

TEST(LossTest, CrossEntropyGradientSumsToZero) {
  Tensor logits = Tensor::from_vector({2, 3}, {1.f, 2.f, 0.f, -1.f, 0.f, 3.f});
  LossResult r = cross_entropy_loss(logits, {1, 2});
  for (int i = 0; i < 2; ++i) {
    float s = 0.f;
    for (int j = 0; j < 3; ++j) s += r.grad.at(i, j);
    EXPECT_NEAR(s, 0.f, 1e-5f);
  }
  EXPECT_GT(r.value, 0.f);
}

TEST(LossTest, InfoNcePrefersAlignedPairs) {
  // Two pairs: views of sample A along +x, views of B along +y.
  Tensor aligned = Tensor::from_vector({4, 2}, {1.f, 0.f, 1.f, 0.05f,
                                                0.f, 1.f, 0.05f, 1.f});
  // Mismatched: positives orthogonal.
  Tensor mixed = Tensor::from_vector({4, 2}, {1.f, 0.f, 0.f, 1.f,
                                              1.f, 0.f, 0.f, 1.f});
  LossResult good = info_nce_loss(aligned, 0.5f);
  LossResult bad = info_nce_loss(mixed, 0.5f);
  EXPECT_LT(good.value, bad.value);
  ASSERT_TRUE(good.grad.same_shape(aligned));
}

TEST(LossTest, InfoNceNumericGradient) {
  Rng rng(10);
  Tensor e = Tensor::randn({4, 3}, rng, 1.f);
  LossResult r = info_nce_loss(e, 0.7f, 0.1f);
  const float h = 1e-3f;
  for (std::size_t i = 0; i < e.numel(); ++i) {
    Tensor ep = e;
    ep[i] += h;
    Tensor em = e;
    em[i] -= h;
    const float num =
        (info_nce_loss(ep, 0.7f, 0.1f).value - info_nce_loss(em, 0.7f, 0.1f).value) /
        (2.f * h);
    EXPECT_NEAR(r.grad[i], num, 2e-2f) << "at " << i;
  }
}

// ---- optimizers ---------------------------------------------------------

TEST(OptimTest, SgdConvergesOnQuadratic) {
  // minimize (w - 3)^2 via Param machinery.
  Param w("w", Tensor::from_vector({1}, {0.f}));
  Sgd opt({&w}, 0.1f, 0.f);
  for (int i = 0; i < 200; ++i) {
    w.grad[0] = 2.f * (w.value[0] - 3.f);
    opt.step();
    opt.zero_grad();
  }
  EXPECT_NEAR(w.value[0], 3.f, 1e-3f);
}

TEST(OptimTest, AdamConvergesOnQuadratic) {
  Param w("w", Tensor::from_vector({2}, {-4.f, 4.f}));
  Adam opt({&w}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    w.grad[0] = 2.f * (w.value[0] - 1.f);
    w.grad[1] = 2.f * (w.value[1] + 2.f);
    opt.step();
    opt.zero_grad();
  }
  EXPECT_NEAR(w.value[0], 1.f, 1e-2f);
  EXPECT_NEAR(w.value[1], -2.f, 1e-2f);
}

TEST(OptimTest, ClipGradNormScalesDown) {
  Param w("w", Tensor({4}));
  w.grad = Tensor::from_vector({4}, {3.f, 0.f, 4.f, 0.f});  // norm 5
  const float pre = clip_grad_norm({&w}, 1.f);
  EXPECT_FLOAT_EQ(pre, 5.f);
  EXPECT_NEAR(std::sqrt(w.grad.sq_norm()), 1.f, 1e-4f);
}

TEST(OptimTest, ClipGradNormNoOpBelowMax) {
  Param w("w", Tensor({2}));
  w.grad = Tensor::from_vector({2}, {0.3f, 0.4f});
  clip_grad_norm({&w}, 1.f);
  EXPECT_FLOAT_EQ(w.grad[0], 0.3f);
}

// ---- serialization -------------------------------------------------------

TEST(SerializeTest, RoundTripRestoresWeights) {
  Rng rng(11);
  Sequential a, b;
  a.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  a.emplace<Linear>(4, 2, rng);
  b.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  b.emplace<Linear>(4, 2, rng);
  EXPECT_NE(param_fingerprint(a.params()), param_fingerprint(b.params()));

  std::stringstream ss;
  save_params(a, ss);
  load_params(b, ss);
  EXPECT_EQ(param_fingerprint(a.params()), param_fingerprint(b.params()));
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(12);
  Sequential a, b;
  a.emplace<Linear>(4, 2, rng);
  b.emplace<Linear>(4, 3, rng);
  std::stringstream ss;
  save_params(a, ss);
  EXPECT_THROW(load_params(b, ss), CheckError);
}

TEST(SerializeTest, MissingFileReturnsFalse) {
  Rng rng(13);
  Sequential a;
  a.emplace<Linear>(2, 2, rng);
  EXPECT_FALSE(load_params_file(a.params(), "/nonexistent/path/w.bin"));
}

TEST(SerializeTest, FileRoundTrip) {
  Rng rng(14);
  Sequential a, b;
  a.emplace<Linear>(3, 3, rng);
  b.emplace<Linear>(3, 3, rng);
  const std::string path = ::testing::TempDir() + "/advp_weights_test.bin";
  save_params_file(a.params(), path);
  EXPECT_TRUE(load_params_file(b.params(), path));
  EXPECT_EQ(param_fingerprint(a.params()), param_fingerprint(b.params()));
  std::remove(path.c_str());
}

// ---- inference mode ---------------------------------------------------------

// A stack hitting every pattern the plan compiler fuses: Conv+BN+SiLU,
// Conv+ReLU, a bare Conv followed by a non-fusible layer, and Linear+ReLU /
// bare Linear.
Sequential make_fusible_stack(Rng& rng) {
  Sequential net;
  net.emplace<Conv2d>(3, 6, 3, 1, 1, rng);
  net.emplace<BatchNorm2d>(6);
  net.emplace<SiLU>();
  net.emplace<Conv2d>(6, 6, 3, 1, 1, rng);
  net.emplace<ReLU>(0.1f);
  net.emplace<Conv2d>(6, 4, 1, 1, 0, rng);
  net.emplace<MaxPool2x2>();
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 4 * 4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  return net;
}

// The scoped walk skips the backward caches and serves warm weight packs;
// it must give the bits of the plain eval walk.
TEST(InferenceModeTest, FusedForwardBitIdenticalToPlainEval) {
  Rng rng(15);
  Sequential net = make_fusible_stack(rng);
  // Push the running BN statistics off their init so the fold is real.
  Tensor warm = Tensor::randn({4, 3, 8, 8}, rng, 0.5f);
  net.forward(warm, /*train=*/true);

  Tensor x = Tensor::randn({2, 3, 8, 8}, rng, 0.5f);
  Tensor plain = net.forward(x, /*train=*/false);
  Tensor fused;
  {
    InferenceModeScope scope;
    fused = net.forward(x, /*train=*/false);
  }
  ASSERT_TRUE(fused.same_shape(plain));
  for (std::size_t i = 0; i < fused.numel(); ++i)
    ASSERT_EQ(fused[i], plain[i]) << "element " << i;
  // Repeat with warm pack caches: still bit-identical.
  {
    InferenceModeScope scope;
    Tensor again = net.forward(x, /*train=*/false);
    for (std::size_t i = 0; i < again.numel(); ++i)
      ASSERT_EQ(again[i], plain[i]) << "element " << i;
  }
}

TEST(InferenceModeTest, ScopedForwardSkipsBackwardCaches) {
  Rng rng(16);
  Sequential net;
  net.emplace<Conv2d>(3, 4, 3, 1, 1, rng);
  net.emplace<ReLU>();
  Tensor x = Tensor::randn({1, 3, 6, 6}, rng);
  {
    InferenceModeScope scope;
    net.forward(x, /*train=*/false);
  }
  // Nothing was cached, so a backward pass has no forward to match.
  Tensor dy = Tensor::ones({1, 4, 6, 6});
  EXPECT_THROW(net.backward(dy), CheckError);
  // Outside the scope the same eval forward caches as before.
  net.forward(x, /*train=*/false);
  Tensor dx = net.backward(dy);
  EXPECT_TRUE(dx.same_shape(x));
}

TEST(InferenceModeTest, TrainingStepsInvalidatePackedWeights) {
  Rng rng(17);
  Sequential net = make_fusible_stack(rng);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng, 0.5f);
  // Warm every pack cache on the scoped walk.
  {
    InferenceModeScope scope;
    net.forward(x, /*train=*/false);
  }
  // One SGD step mutates the weights in place.
  Tensor y = net.forward(x, /*train=*/true);
  net.backward(Tensor::ones(y.shape()));
  Sgd opt(net.params(), 0.05f);
  opt.step();
  // The scoped forward must see the stepped weights, not stale packs.
  Tensor plain = net.forward(x, /*train=*/false);
  Tensor fused;
  {
    InferenceModeScope scope;
    fused = net.forward(x, /*train=*/false);
  }
  for (std::size_t i = 0; i < fused.numel(); ++i)
    ASSERT_EQ(fused[i], plain[i]) << "element " << i;
}

}  // namespace
}  // namespace advp::nn
