// Tests for the six attacks: perturbation-budget invariants, mask
// confinement, and effectiveness against analytic oracles (no trained
// model needed — each attack must ascend/descend a known objective).
#include <gtest/gtest.h>

#include <cmath>

#include "attacks/attack.h"
#include "attacks/autopgd.h"
#include "attacks/cap.h"
#include "attacks/fgsm.h"
#include "attacks/gaussian.h"
#include "attacks/rp2.h"
#include "attacks/simba.h"
#include "core/check.h"
#include "core/rng.h"

namespace advp::attacks {
namespace {

// Analytic white-box oracle: J(x) = w . x with a fixed random w. The
// optimum inside the eps-ball is x0 + eps*sign(w), which lets tests verify
// attacks reach (or approach) the known maximizer.
class LinearOracle {
 public:
  LinearOracle(const std::vector<int>& shape, std::uint64_t seed) {
    Rng rng(seed);
    w_ = Tensor::randn(shape, rng);
  }
  LossGrad operator()(const Tensor& x) const {
    return {x.dot(w_), w_};
  }
  const Tensor& w() const { return w_; }

 private:
  Tensor w_;
};

Tensor mid_image(int h = 8, int w = 8) {
  return Tensor::full({1, 3, h, w}, 0.5f);
}

TEST(MaskTest, BoxMaskCoversRoi) {
  Tensor mask = make_box_mask(8, 8, Box{2, 3, 3, 2});
  EXPECT_FLOAT_EQ(mask.at(0, 0, 3, 2), 1.f);
  EXPECT_FLOAT_EQ(mask.at(0, 2, 4, 4), 1.f);
  EXPECT_FLOAT_EQ(mask.at(0, 0, 2, 2), 0.f);
  EXPECT_FLOAT_EQ(mask.at(0, 0, 3, 1), 0.f);
}

TEST(MaskTest, BoxMaskClipsToBounds) {
  Tensor mask = make_box_mask(4, 4, Box{-5, -5, 100, 100});
  EXPECT_FLOAT_EQ(mask.sum(), 3.f * 16.f);
}

TEST(MaskTest, ApplyMaskZeroesOutside) {
  Tensor t = Tensor::full({1, 3, 4, 4}, 2.f);
  Tensor mask = make_box_mask(4, 4, Box{0, 0, 2, 2});
  apply_mask(t, mask);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 0), 2.f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 3, 3), 0.f);
}

TEST(MaskTest, EmptyMaskIsNoOp) {
  Tensor t = Tensor::full({1, 3, 2, 2}, 1.f);
  apply_mask(t, Tensor());
  EXPECT_FLOAT_EQ(t.sum(), 12.f);
}

TEST(MaskTest, ProjectLinfRestoresMaskedAndClamps) {
  Tensor x0 = mid_image(4, 4);
  Tensor x = Tensor::full({1, 3, 4, 4}, 0.9f);
  Tensor mask = make_box_mask(4, 4, Box{0, 0, 2, 2});
  project_linf(x, x0, 0.1f, mask);
  EXPECT_FLOAT_EQ(x.at(0, 0, 0, 0), 0.6f);  // clipped to x0 + eps
  EXPECT_FLOAT_EQ(x.at(0, 0, 3, 3), 0.5f);  // outside mask: reset to x0
}

TEST(GaussianTest, NoiseScalesWithSigmaAndClamps) {
  Rng rng(1);
  Tensor x = mid_image(16, 16);
  Tensor adv = gaussian_noise_attack(x, {0.1f}, rng);
  EXPECT_GE(adv.min(), 0.f);
  EXPECT_LE(adv.max(), 1.f);
  Tensor d = adv - x;
  const float stddev =
      std::sqrt(d.sq_norm() / static_cast<float>(d.numel()));
  EXPECT_NEAR(stddev, 0.1f, 0.02f);
}

TEST(GaussianTest, RespectsMask) {
  Rng rng(2);
  Tensor x = mid_image();
  Tensor mask = make_box_mask(8, 8, Box{0, 0, 4, 4});
  Tensor adv = gaussian_noise_attack(x, {0.2f}, rng, mask);
  EXPECT_FLOAT_EQ(adv.at(0, 0, 6, 6), 0.5f);
  EXPECT_NE(adv.at(0, 0, 1, 1), 0.5f);
}

TEST(FgsmTest, ReachesLinfBallOptimumOfLinearLoss) {
  LinearOracle oracle({1, 3, 8, 8}, 3);
  Tensor x = mid_image();
  Tensor adv = fgsm(x, {0.05f}, std::cref(oracle));
  // For a linear loss, FGSM lands exactly on the ball optimum.
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float expect = 0.5f + (oracle.w()[i] > 0.f ? 0.05f : -0.05f);
    EXPECT_NEAR(adv[i], expect, 1e-6f);
  }
  EXPECT_GT(oracle(adv).loss, oracle(x).loss);
}

TEST(FgsmTest, PerturbationBoundedByEps) {
  LinearOracle oracle({1, 3, 8, 8}, 4);
  Tensor x = mid_image();
  Tensor adv = fgsm(x, {0.03f}, std::cref(oracle));
  Tensor d = adv - x;
  EXPECT_LE(d.abs_max(), 0.03f + 1e-6f);
}

TEST(FgsmTest, MaskConfinesPerturbation) {
  LinearOracle oracle({1, 3, 8, 8}, 5);
  Tensor x = mid_image();
  Tensor mask = make_box_mask(8, 8, Box{2, 2, 3, 3});
  Tensor adv = fgsm(x, {0.05f}, std::cref(oracle), mask);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (mask[i] == 0.f) EXPECT_FLOAT_EQ(adv[i], x[i]);
}

// Nonlinear concave oracle J = -||x - target||^2: the gradient depends on
// the point, so Auto-PGD's trajectory genuinely varies.
GradOracle quadratic_oracle(const Tensor& target) {
  return [&target](const Tensor& x) {
    Tensor d = x - target;
    Tensor grad = d;
    grad *= -2.f;
    return LossGrad{-d.sq_norm(), std::move(grad)};
  };
}

TEST(AutoPgdTest, StaysInBallAndBeatsSingleStepOnLinear) {
  LinearOracle oracle({1, 3, 8, 8}, 6);
  Tensor x = mid_image();
  AutoPgdParams p;
  p.eps = 0.05f;
  p.steps = 10;
  AutoPgdResult res = auto_pgd(x, p, std::cref(oracle));
  Tensor d = res.x_adv - x;
  EXPECT_LE(d.abs_max(), p.eps + 1e-5f);
  // On a linear loss Auto-PGD must reach the ball optimum exactly.
  const float optimum = oracle(fgsm(x, {p.eps}, std::cref(oracle))).loss;
  EXPECT_NEAR(res.best_loss, optimum, 1e-3f);
}

TEST(AutoPgdTest, BestLossMonotoneInBudget) {
  // Nonlinear oracle: J = -||x - target||^2 with target outside the ball.
  Tensor target = Tensor::full({1, 3, 4, 4}, 0.9f);
  auto oracle = [&](const Tensor& x) {
    Tensor d = x - target;
    Tensor grad = d;
    grad *= -2.f;
    return LossGrad{-d.sq_norm(), std::move(grad)};
  };
  Tensor x = mid_image(4, 4);
  AutoPgdParams p5;
  p5.eps = 0.1f;
  p5.steps = 4;
  AutoPgdParams p30 = p5;
  p30.steps = 30;
  const float l5 = auto_pgd(x, p5, oracle).best_loss;
  const float l30 = auto_pgd(x, p30, oracle).best_loss;
  EXPECT_GE(l30, l5 - 1e-5f);
}

TEST(AutoPgdTest, OracleCallAccountingIsExact) {
  Tensor target = Tensor::full({1, 3, 4, 4}, 0.9f);
  GradOracle oracle = quadratic_oracle(target);
  Tensor x = mid_image(4, 4);
  AutoPgdParams p;
  p.eps = 0.1f;
  p.steps = 12;
  AutoPgdResult res = auto_pgd(x, p, oracle);
  // Serial: initial + one per step + one re-evaluation per halving.
  EXPECT_EQ(res.oracle_calls, 1 + p.steps + res.step_halvings);
}

TEST(AutoPgdTest, MaskedPixelsUntouched) {
  LinearOracle oracle({1, 3, 8, 8}, 7);
  Tensor x = mid_image();
  Tensor mask = make_box_mask(8, 8, Box{1, 1, 4, 4});
  AutoPgdParams p;
  p.eps = 0.08f;
  p.steps = 8;
  Tensor adv = auto_pgd(x, p, std::cref(oracle), mask).x_adv;
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (mask[i] == 0.f) EXPECT_FLOAT_EQ(adv[i], x[i]);
}

TEST(PlainPgdTest, BoundedAndAscends) {
  LinearOracle oracle({1, 3, 6, 6}, 8);
  Tensor x = mid_image(6, 6);
  Tensor adv = plain_pgd(x, 0.05f, 0.02f, 10, std::cref(oracle));
  Tensor d = adv - x;
  EXPECT_LE(d.abs_max(), 0.05f + 1e-6f);
  EXPECT_GT(oracle(adv).loss, oracle(x).loss);
}

// SimBA's black-box score: distance to a hidden target direction.
TEST(SimbaTest, DescendsScoreWithinQueryBudget) {
  Rng wrng(9);
  Tensor hidden = Tensor::randn({1, 3, 8, 8}, wrng);
  auto score = [&](const Tensor& x) { return -x.dot(hidden); };
  Tensor x = mid_image();
  SimbaParams p;
  p.eps = 0.05f;
  p.max_queries = 200;
  p.basis = SimbaBasis::kPixel;
  Rng rng(10);
  SimbaResult res = simba(x, p, score, rng);
  EXPECT_LE(res.queries, p.max_queries);
  EXPECT_LT(res.score_after, res.score_before);
}

TEST(SimbaTest, PerturbationBoundHolds) {
  // Paper eq. (4): ||delta_T||_2^2 <= T eps^2 with T = accepted steps.
  Rng wrng(11);
  Tensor hidden = Tensor::randn({1, 3, 8, 8}, wrng);
  auto score = [&](const Tensor& x) { return -x.dot(hidden); };
  Tensor x = mid_image();
  for (SimbaBasis basis : {SimbaBasis::kPixel, SimbaBasis::kDct}) {
    SimbaParams p;
    p.eps = 0.08f;
    p.max_queries = 150;
    p.basis = basis;
    Rng rng(12);
    SimbaResult res = simba(x, p, score, rng);
    const float bound = static_cast<float>(res.accepted_directions) *
                        p.eps * p.eps;
    // Clamping to [0,1] can only shrink delta; bound must hold.
    EXPECT_LE(res.delta_sq_norm, bound + 1e-4f)
        << "basis " << static_cast<int>(basis);
  }
}

TEST(SimbaTest, MaskConfines) {
  Rng wrng(13);
  Tensor hidden = Tensor::randn({1, 3, 8, 8}, wrng);
  auto score = [&](const Tensor& x) { return -x.dot(hidden); };
  Tensor x = mid_image();
  Tensor mask = make_box_mask(8, 8, Box{0, 0, 3, 3});
  SimbaParams p;
  p.max_queries = 120;
  p.basis = SimbaBasis::kPixel;
  Rng rng(14);
  SimbaResult res = simba(x, p, score, rng, mask);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (mask[i] == 0.f) EXPECT_FLOAT_EQ(res.x_adv[i], x[i]);
}

TEST(SimbaTest, DctBasisTouchesManyPixels) {
  Rng wrng(15);
  Tensor hidden = Tensor::randn({1, 3, 8, 8}, wrng);
  auto score = [&](const Tensor& x) { return -x.dot(hidden); };
  Tensor x = mid_image();
  SimbaParams p;
  p.eps = 0.1f;
  p.max_queries = 10;
  p.basis = SimbaBasis::kDct;
  Rng rng(16);
  SimbaResult res = simba(x, p, score, rng);
  if (res.accepted_directions > 0) {
    int touched = 0;
    for (std::size_t i = 0; i < x.numel(); ++i)
      if (std::fabs(res.x_adv[i] - x[i]) > 1e-6f) ++touched;
    EXPECT_GT(touched, 10);  // a DCT atom is spatially spread
  }
}

TEST(NpsTest, PaletteColorsScoreZero) {
  const auto palette = printable_palette();
  Tensor x({1, 3, 2, 2});
  // Fill with the first palette color.
  for (int y = 0; y < 2; ++y)
    for (int xx = 0; xx < 2; ++xx) {
      x.at(0, 0, y, xx) = palette[0].r;
      x.at(0, 1, y, xx) = palette[0].g;
      x.at(0, 2, y, xx) = palette[0].b;
    }
  Tensor mask = Tensor::ones({1, 3, 2, 2});
  EXPECT_NEAR(nps_score(x, mask, palette), 0.f, 1e-6f);
}

TEST(NpsTest, OffPaletteColorsScorePositive) {
  Tensor x = Tensor::full({1, 3, 2, 2}, 0.31f);
  Tensor mask = Tensor::ones({1, 3, 2, 2});
  EXPECT_GT(nps_score(x, mask, printable_palette()), 0.001f);
}

TEST(Rp2Test, RequiresMaskAndConfines) {
  LinearOracle oracle({1, 3, 8, 8}, 17);
  Tensor x = mid_image();
  Rp2Params p;
  p.steps = 5;
  p.n_transforms = 2;
  Rng rng(18);
  EXPECT_THROW(rp2(x, Tensor(), p, std::cref(oracle), rng), CheckError);
  Tensor mask = make_box_mask(8, 8, Box{2, 2, 4, 4});
  Rp2Result res = rp2(x, mask, p, std::cref(oracle), rng);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (mask[i] == 0.f) EXPECT_FLOAT_EQ(res.x_adv[i], x[i]);
}

TEST(Rp2Test, AscendsLinearObjective) {
  LinearOracle oracle({1, 3, 8, 8}, 19);
  Tensor x = mid_image();
  Tensor mask = make_box_mask(8, 8, Box{1, 1, 6, 6});
  Rp2Params p;
  p.steps = 15;
  p.n_transforms = 2;
  p.noise_sigma = 0.f;
  p.max_shift = 0;
  p.gain_lo = p.gain_hi = 1.f;
  Rng rng(20);
  Rp2Result res = rp2(x, mask, p, std::cref(oracle), rng);
  EXPECT_GT(oracle(res.x_adv).loss, oracle(x).loss);
}

TEST(CapTest, PatchConfinedToBbox) {
  LinearOracle oracle({1, 3, 8, 8}, 21);
  CapAttack cap;
  Tensor frame = mid_image();
  Box bbox{2, 2, 4, 4};
  Tensor adv = cap.attack_frame(frame, bbox, std::cref(oracle));
  for (int c = 0; c < 3; ++c)
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) {
        const bool inside = x >= 2 && x < 6 && y >= 2 && y < 6;
        if (!inside)
          EXPECT_FLOAT_EQ(adv.at(0, c, y, x), frame.at(0, c, y, x));
      }
}

TEST(CapTest, PatchBoundedByEps) {
  LinearOracle oracle({1, 3, 8, 8}, 22);
  CapParams p;
  p.eps = 0.1f;
  p.steps_per_frame = 5;
  CapAttack cap(p);
  Tensor frame = mid_image();
  for (int i = 0; i < 4; ++i)
    cap.attack_frame(frame, Box{2, 2, 4, 4}, std::cref(oracle));
  EXPECT_LE(cap.patch().abs_max(), p.eps + 1e-5f);
}

TEST(CapTest, PatchPersistsAndStrengthensAcrossFrames) {
  LinearOracle oracle({1, 3, 8, 8}, 23);
  CapAttack cap;
  Tensor frame = mid_image();
  Box bbox{2, 2, 4, 4};
  Tensor adv1 = cap.attack_frame(frame, bbox, std::cref(oracle));
  const float strength1 = cap.patch().abs_max();
  for (int i = 0; i < 5; ++i) cap.attack_frame(frame, bbox, std::cref(oracle));
  EXPECT_GE(cap.patch().abs_max(), strength1);
  // The attack objective keeps improving (or saturates) with inheritance.
  Tensor adv_late = cap.attack_frame(frame, bbox, std::cref(oracle));
  EXPECT_GE(oracle(adv_late).loss, oracle(adv1).loss - 1e-4f);
}

TEST(CapTest, PatchTracksBboxScaleChange) {
  LinearOracle oracle({1, 3, 8, 8}, 24);
  CapAttack cap;
  Tensor frame = mid_image();
  cap.attack_frame(frame, Box{2, 2, 4, 4}, std::cref(oracle));
  // Vehicle got closer: bigger box. Must not crash, patch still bounded.
  Tensor adv = cap.attack_frame(frame, Box{1, 1, 6, 6}, std::cref(oracle));
  EXPECT_LE(cap.patch().abs_max(), cap.params().eps + 1e-5f);
  EXPECT_GE(adv.min(), 0.f);
  EXPECT_LE(adv.max(), 1.f);
}

TEST(CapTest, ResetClearsPatch) {
  LinearOracle oracle({1, 3, 8, 8}, 25);
  CapAttack cap;
  Tensor frame = mid_image();
  cap.attack_frame(frame, Box{2, 2, 4, 4}, std::cref(oracle));
  EXPECT_GT(cap.patch().abs_max(), 0.f);
  cap.reset();
  EXPECT_FLOAT_EQ(cap.patch().abs_max(), 0.f);
}

TEST(ResizeChwTest, BilinearPreservesConstantAndRange) {
  Tensor t = Tensor::full({3, 4, 4}, -0.2f);
  Tensor up = resize_chw(t, 9, 7);
  EXPECT_EQ(up.dim(1), 9);
  EXPECT_EQ(up.dim(2), 7);
  for (std::size_t i = 0; i < up.numel(); ++i)
    EXPECT_NEAR(up[i], -0.2f, 1e-6f);
}

// Parameterized epsilon sweep: every gradient attack respects its budget.
class EpsSweepTest : public ::testing::TestWithParam<float> {};

TEST_P(EpsSweepTest, AllGradientAttacksBounded) {
  const float eps = GetParam();
  LinearOracle oracle({1, 3, 8, 8}, 26);
  Tensor x = mid_image();
  Tensor d1 = fgsm(x, {eps}, std::cref(oracle)) - x;
  EXPECT_LE(d1.abs_max(), eps + 1e-5f);
  AutoPgdParams p;
  p.eps = eps;
  p.steps = 6;
  Tensor d2 = auto_pgd(x, p, std::cref(oracle)).x_adv - x;
  EXPECT_LE(d2.abs_max(), eps + 1e-5f);
  Tensor d3 = plain_pgd(x, eps, eps / 2.f, 6, std::cref(oracle)) - x;
  EXPECT_LE(d3.abs_max(), eps + 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Budgets, EpsSweepTest,
                         ::testing::Values(0.01f, 0.05f, 0.1f, 0.25f));

}  // namespace
}  // namespace advp::attacks
