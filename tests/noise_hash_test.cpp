// Recorded bits of every bulk consumer of Gaussian noise.
//
// The FNV-1a hashes below were recorded with the scalar Box–Muller loop
// (Rng::gaussian on libm, one element at a time). gaussian_fill must
// reproduce them: the rendered driving and sign datasets (sensor noise on
// every frame), Tensor::randn from sigma 1e-30 to 1e30, DiffPIR restores on
// an untrained denoiser, an RP2 run (EOT sensor noise) and a campaign
// aggregate (rendered frames and the Gaussian attack). Like OracleHashTest
// the hashes are those of the Release build (-O3 -march=native, where the
// compiler contracts a*b+c into FMAs); other build types compute other,
// equally deterministic, bits. Every draw also goes through libm's log and
// cos: they were recorded against glibc 2.36.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/rp2.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "defenses/diffusion.h"
#include "image/draw.h"
#include "image/proc.h"
#include "models/distnet.h"
#include "sim/campaign.h"

namespace advp {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(const void* p, std::size_t bytes, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(const float* p, std::size_t n, std::uint64_t h) {
  return fnv1a(static_cast<const void*>(p), n * sizeof(float), h);
}

std::uint64_t fnv1a(const Image& img, std::uint64_t h) {
  return fnv1a(img.data(), img.numel(), h);
}

std::uint64_t fnv1a(const Box& b, std::uint64_t h) {
  const float v[] = {b.x, b.y, b.w, b.h};
  return fnv1a(v, 4, h);
}

TEST(NoiseHashTest, DrivingDatasetMatchesRecordedBits) {
  const data::DrivingDataset ds = data::make_driving_dataset(200, 11);
  std::uint64_t h = kFnvOffset;
  for (const auto& f : ds.frames) {
    h = fnv1a(f.image, h);
    h = fnv1a(&f.distance, 1, h);
    h = fnv1a(f.lead_box, h);
  }
  EXPECT_EQ(h, 6310778269708791182ull);
}

TEST(NoiseHashTest, SignDatasetMatchesRecordedBits) {
  const data::SignDataset ds = data::make_sign_dataset(200, 12);
  std::uint64_t h = kFnvOffset;
  for (const auto& s : ds.scenes) {
    h = fnv1a(s.image, h);
    for (const Box& b : s.stop_signs) h = fnv1a(b, h);
  }
  EXPECT_EQ(h, 275661233851433869ull);
}

TEST(NoiseHashTest, RandnMatchesRecordedBits) {
  const float sigmas[] = {1e-30f, 0.5f, 1e30f};
  const std::uint64_t expected[] = {3214234337891560586ull,
                                    15111321267780902337ull,
                                    14298071924189591321ull};
  for (int i = 0; i < 3; ++i) {
    Rng rng(13 + static_cast<std::uint64_t>(i));
    const Tensor t = Tensor::randn({100003}, rng, sigmas[i]);
    EXPECT_EQ(fnv1a(t.data(), t.numel(), kFnvOffset), expected[i])
        << "sigma " << sigmas[i];
  }
}

TEST(NoiseHashTest, DiffPirRestoresMatchRecordedBits) {
  const std::uint64_t expected[] = {16014402738008878ull,
                                    3205876948667939963ull,
                                    2184276368174989233ull};
  Rng rng(14);
  defenses::DiffusionDenoiser dd(16, 16, defenses::DdpmConfig{}, rng);
  Rng nrng(15);
  for (int i = 0; i < 3; ++i) {
    Image clean(16, 16);
    const float top = 0.1f * static_cast<float>(i + 1);
    fill_vertical_gradient(clean, Color{top, top, top},
                           Color{0.9f, 0.8f, 0.7f});
    const Image noisy = add_gaussian_noise(clean, 0.1f, nrng);
    const Image restored = dd.restore(noisy, defenses::DiffPirParams{}, nrng);
    EXPECT_EQ(fnv1a(restored, kFnvOffset), expected[i]) << "restore " << i;
  }
}

TEST(NoiseHashTest, Rp2MatchesRecordedBits) {
  // J(x) = sum w x^2 keeps the gradient dependent on the noisy transformed
  // image, so the EOT draws steer the trajectory, not only the loss.
  Rng wrng(16);
  const Tensor w = Tensor::rand({1, 3, 24, 24}, wrng, -1.f, 1.f);
  const attacks::GradOracle oracle = [&w](const Tensor& x) {
    attacks::LossGrad lg;
    lg.grad = Tensor(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i) {
      lg.loss += w[i] * x[i] * x[i];
      lg.grad[i] = 2.f * w[i] * x[i];
    }
    return lg;
  };
  Rng xrng(17);
  const Tensor x = Tensor::rand({1, 3, 24, 24}, xrng);
  Tensor mask({1, 3, 24, 24});
  for (int c = 0; c < 3; ++c)
    for (int y = 6; y < 18; ++y)
      for (int xx = 6; xx < 18; ++xx) mask.at(0, c, y, xx) = 1.f;
  attacks::Rp2Params p;
  p.steps = 3;
  Rng rng(18);
  const attacks::Rp2Result r = attacks::rp2(x, mask, p, oracle, rng);
  std::uint64_t h = fnv1a(r.x_adv.data(), r.x_adv.numel(), kFnvOffset);
  h = fnv1a(&r.final_objective, 1, h);
  h = fnv1a(&r.nps, 1, h);
  EXPECT_EQ(h, 5163418030459271216ull);
}

TEST(NoiseHashTest, CampaignAggregateMatchesRecordedBits) {
  // The untrained seed-7 DistNet of CampaignEngineTest, at the fp32 tier.
  Rng rng(7);
  models::DistNet model(models::DistNetConfig{}, rng);
  Rng crng(8);
  const auto& dc = model.config();
  model.calibrate({Tensor::rand({2, 3, dc.height, dc.width}, crng),
                   Tensor::rand({2, 3, dc.height, dc.width}, crng)});
  sim::campaign::CampaignEngine engine(model, data::DrivingSceneGenerator{},
                                       sim::AccParams{},
                                       sim::campaign::MatrixSpec::standard());
  const std::string json = engine.run_range(0, 24).to_json();
  EXPECT_EQ(fnv1a(json.data(), json.size(), kFnvOffset),
            17915954099945740909ull)
      << json;
}

}  // namespace
}  // namespace advp
