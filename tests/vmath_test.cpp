// exp_f32 / sigmoid / silu against libm: exhaustive over every
// non-positive float (the only arguments sigmoid evaluates exp at) on the
// SIMD and the forced-portable route, and a strided sweep of the array
// kernels against the scalar expressions they replace, special values
// included. gaussian_fill against the scalar Rng::gaussian loop: a grid of
// sigmas and lengths on both routes, 3.4e7 random draws, and crafted draws
// at the edges of log and cos, with the vector route's log and cos held
// within 16 ulps of libm. Everything compares bits, NaN payloads too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "tensor/gemm.h"
#include "tensor/vmath.h"

namespace advp {
namespace {

// The expressions the kernels replace, on libm's expf.
float libm_sigmoid(float x) {
  if (x >= 0.f) {
    const float e = std::exp(-x);
    return 1.f / (1.f + e);
  }
  const float e = std::exp(x);
  return e / (1.f + e);
}

float libm_silu(float v) { return v * libm_sigmoid(v); }

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

// Restores the kernels' default route on scope exit.
struct PortableRoute {
  explicit PortableRoute(bool on) { gemm_detail::force_portable(on); }
  ~PortableRoute() { gemm_detail::force_portable(false); }
};

// Values whose handling is special somewhere: signed zeros, glibc's
// special-case threshold (|x| = 88), its overflow and underflow bounds,
// the largest finite and smallest denormal floats, infinities and NaNs.
std::vector<float> special_values() {
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const float vals[] = {0.f,        88.f,         0x1.fffffep6f,
                        0x1.62e42ep6f, 0x1.62e430p6f, 103.9f,
                        0x1.9fe368p6f, 0x1.9fe36ap6f, 104.f,
                        0x1.9d1d9ep6f, 1e-40f,       den,
                        std::numeric_limits<float>::min(),
                        std::numeric_limits<float>::max(), inf,
                        1.f,        0.5f,         17.f};
  std::vector<float> out;
  for (float v : vals) {
    out.push_back(v);
    out.push_back(-v);
  }
  out.push_back(std::numeric_limits<float>::quiet_NaN());
  out.push_back(-std::numeric_limits<float>::quiet_NaN());
  out.push_back(from_bits(0x7f800001u));  // signalling NaN
  out.push_back(from_bits(0xffa5a5a5u));  // negative NaN with a payload
  return out;
}

// Every float with the sign bit set, plus +0: 2^31 + 1 inputs, in blocks
// spread over the pool. Returns the number of mismatching bit patterns.
std::uint64_t exhaustive_nonpositive_mismatches() {
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 16;
  constexpr std::uint64_t kBlocks = (std::uint64_t{1} << 31) / kBlock;
  std::atomic<std::uint64_t> bad{0};
  parallel_for(0, kBlocks, [&](std::size_t blk) {
    std::vector<float> x(kBlock), y(kBlock);
    const std::uint32_t base = 0x80000000u + static_cast<std::uint32_t>(blk * kBlock);
    for (std::uint64_t i = 0; i < kBlock; ++i)
      x[i] = from_bits(base + static_cast<std::uint32_t>(i));
    if (blk == 0) x[0] = 0.f;  // +0 stands in for -0, which block 0 starts at
    exp_f32(x.data(), y.data(), kBlock);
    std::uint64_t local = 0;
    for (std::uint64_t i = 0; i < kBlock; ++i)
      local += bits(y[i]) != bits(std::exp(x[i]));
    bad += local;
  });
  const float neg_zero = -0.f;
  float y = 0.f;
  exp_f32(&neg_zero, &y, 1);
  return bad.load() + (bits(y) != bits(std::exp(neg_zero)));
}

TEST(ExpF32Test, ExhaustiveNonPositiveMatchesLibmOnSimdRoute) {
  EXPECT_EQ(exhaustive_nonpositive_mismatches(), 0u);
}

TEST(ExpF32Test, ExhaustiveNonPositiveMatchesLibmOnPortableRoute) {
  PortableRoute portable(true);
  EXPECT_EQ(exhaustive_nonpositive_mismatches(), 0u);
}

// A strided walk over all 2^32 bit patterns, with the special values
// spliced in every 37 elements so that some 16-element chunks hold one and
// others do not.
std::vector<float> sweep_inputs() {
  const std::vector<float> special = special_values();
  std::vector<float> x;
  std::size_t s = 0;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    x.push_back(from_bits(static_cast<std::uint32_t>(u)));
    if (x.size() % 37 == 0) x.push_back(special[s++ % special.size()]);
  }
  for (float v : special) x.push_back(v);
  return x;
}

void expect_kernels_match_libm(const std::vector<float>& x) {
  // Odd offsets and lengths move the 16-element chunk boundaries and the
  // scalar tail across the data.
  for (std::size_t off : {0u, 3u, 11u}) {
    const std::size_t n = x.size() - off - 5;
    std::vector<float> e(n), s(n), silu_y(n);
    exp_f32(x.data() + off, e.data(), n);
    sigmoid(x.data() + off, s.data(), n);
    silu(x.data() + off, silu_y.data(), n);
    std::vector<float> in_place(x.begin() + off, x.begin() + off + n);
    sigmoid(in_place.data(), in_place.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = x[off + i];
      ASSERT_EQ(bits(e[i]), bits(std::exp(v))) << "exp(" << v << ")";
      ASSERT_EQ(bits(exp_f32(v)), bits(std::exp(v))) << "exp(" << v << ")";
      ASSERT_EQ(bits(s[i]), bits(libm_sigmoid(v))) << "sigmoid(" << v << ")";
      ASSERT_EQ(bits(sigmoidf(v)), bits(libm_sigmoid(v)))
          << "sigmoidf(" << v << ")";
      ASSERT_EQ(bits(in_place[i]), bits(s[i])) << "in place, " << v;
      ASSERT_EQ(bits(silu_y[i]), bits(libm_silu(v))) << "silu(" << v << ")";
    }
  }
}

TEST(SigmoidKernelTest, StridedSweepMatchesLibmExpressionOnBothRoutes) {
  const std::vector<float> x = sweep_inputs();
  expect_kernels_match_libm(x);
  PortableRoute portable(true);
  expect_kernels_match_libm(x);
}

// ---- gaussian_fill ----------------------------------------------------------

constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr std::size_t kChunk = vmath_detail::kGaussianChunk;

// True when the build has the vector Box–Muller route.
bool has_vector_route() {
  const std::uint64_t w[16] = {};
  double ln_u1[8], cos_u2[8];
  return vmath_detail::gaussian_parts(w, 8, ln_u1, cos_u2);
}

// Distance in ulps between two finite doubles (+0 and -0 are 0 apart).
std::uint64_t ulps(double a, double b) {
  const auto ordered = [](double x) {
    const auto i = std::bit_cast<std::int64_t>(x);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

double u1_of(std::uint64_t w) {
  return static_cast<double>((w >> 11) + 1) * 0x1.0p-53;
}
double u2_of(std::uint64_t w) {
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}

// Tallies over words fed through the detail entry points.
struct WordStats {
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> fallbacks{0};
  std::atomic<std::uint64_t> max_log_ulps{0};
  std::atomic<std::uint64_t> max_cos_ulps{0};

  static void raise(std::atomic<std::uint64_t>& m, std::uint64_t v) {
    std::uint64_t cur = m.load();
    while (v > cur && !m.compare_exchange_weak(cur, v)) {
    }
  }

  // n draws in w (2n words): kernel bits against Rng::box_muller, and the
  // vector route's log and cos against libm.
  void check(const std::vector<std::uint64_t>& w, std::size_t n,
             double sigma) {
    std::vector<float> y(n);
    fallbacks += vmath_detail::gaussian_from_words(w.data(), n, sigma,
                                                   y.data());
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < n; ++i)
      bad += bits(y[i]) != bits(static_cast<float>(
                               Rng::box_muller(w[2 * i], w[2 * i + 1], sigma)));
    mismatches += bad;
    const std::size_t n8 = n - n % 8;
    std::vector<double> ln_u1(n8), cos_u2(n8);
    if (!vmath_detail::gaussian_parts(w.data(), n8, ln_u1.data(),
                                      cos_u2.data()))
      return;
    std::uint64_t log_max = 0, cos_max = 0;
    for (std::size_t i = 0; i < n8; ++i) {
      log_max = std::max(log_max, ulps(ln_u1[i], std::log(u1_of(w[2 * i]))));
      cos_max = std::max(
          cos_max, ulps(cos_u2[i], std::cos(kTwoPi * u2_of(w[2 * i + 1]))));
    }
    raise(max_log_ulps, log_max);
    raise(max_cos_ulps, cos_max);
  }
};

// The sigmas the library draws at (frame noise 0.015, contrastive noise
// 0.02, RP2 EOT noise 0.03, unit), a wide one, and three tiny ones.
const float kSigmas[] = {0.015f, 0.02f, 0.03f, 1.f, 3.f, 1e-30f, 1e-40f, 0.f};

void expect_fill_matches_scalar_loop() {
  const std::size_t lengths[] = {0,      1,          7,         8,    9,
                                 kChunk - 1, kChunk, kChunk + 1, 13824};
  std::uint64_t seed = 500;
  for (float sigma : kSigmas)
    for (std::size_t n : lengths) {
      Rng kernel_rng(seed), scalar_rng(seed);
      ++seed;
      std::vector<float> got(n + 1, -1.f);
      gaussian_fill(got.data(), n, sigma, kernel_rng);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(bits(got[i]),
                  bits(static_cast<float>(scalar_rng.gaussian(sigma))))
            << "sigma " << sigma << ", n " << n << ", element " << i;
      EXPECT_EQ(bits(got[n]), bits(-1.f)) << "wrote past n = " << n;
      EXPECT_EQ(kernel_rng.engine()(), scalar_rng.engine()())
          << "engine position, sigma " << sigma << ", n " << n;
    }
}

TEST(GaussianFillTest, MatchesScalarLoopOnBothRoutes) {
  expect_fill_matches_scalar_loop();
  PortableRoute portable(true);
  expect_fill_matches_scalar_loop();
}

// Zero and subnormal-float sigmas put every |d| under the guard's 2^-120
// floor, so every lane takes the libm route.
TEST(GaussianFillTest, TinySigmasFallBackOnEveryLane) {
  if (!has_vector_route()) GTEST_SKIP() << "no vector route in this build";
  constexpr std::size_t n = 4096;
  Rng rng(41);
  std::vector<std::uint64_t> w(2 * n);
  for (auto& v : w) v = rng.engine()();
  for (double sigma : {0.0, -0.0, 1e-40}) {
    WordStats stats;
    stats.check(w, n, sigma);
    EXPECT_EQ(stats.mismatches.load(), 0u) << "sigma " << sigma;
    EXPECT_EQ(stats.fallbacks.load(), n) << "sigma " << sigma;
  }
}

// 128 streams of 2^18 draws (3.4e7) over the pool, four sigmas: the public
// kernel against the scalar loop and the engine position after it, and the
// detail entry point on the same words for the fallback count and the
// log/cos accuracy.
TEST(GaussianFillTest, RandomDrawsMatchScalarLoop) {
  constexpr std::size_t kBlock = std::size_t{1} << 18;
  constexpr std::size_t kBlocks = 128;
  const double sigmas[] = {0.015, 0.02, 1.0, 3.0};
  WordStats stats;
  std::atomic<std::uint64_t> fill_mismatches{0}, engine_mismatches{0};
  parallel_for(0, kBlocks, [&](std::size_t blk) {
    const double sigma = sigmas[blk % 4];
    const std::uint64_t seed = Rng::stream_seed(0x9a55, blk);
    Rng kernel_rng(seed), scalar_rng(seed), word_rng(seed);
    std::vector<float> got(kBlock);
    gaussian_fill(got.data(), kBlock, sigma, kernel_rng);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < kBlock; ++i)
      bad += bits(got[i]) != bits(static_cast<float>(scalar_rng.gaussian(sigma)));
    fill_mismatches += bad;
    engine_mismatches += kernel_rng.engine()() != scalar_rng.engine()();
    std::vector<std::uint64_t> w(2 * kBlock);
    for (auto& v : w) v = word_rng.engine()();
    stats.check(w, kBlock, sigma);
  });
  EXPECT_EQ(fill_mismatches.load(), 0u);
  EXPECT_EQ(engine_mismatches.load(), 0u);
  EXPECT_EQ(stats.mismatches.load(), 0u);
  if (!has_vector_route()) return;
  EXPECT_LE(stats.max_log_ulps.load(), 16u);
  EXPECT_LE(stats.max_cos_ulps.load(), 16u);
  // The guard band drops lanes whose low 29 bits fall within 2^12 of the
  // tie: 2^13 / 2^29 = 1.5e-5 of them, about 500 of these draws.
  EXPECT_GT(stats.fallbacks.load(), 100u);
  EXPECT_LT(stats.fallbacks.load(), 2000u);
}

// Crafted draws: u1 = j 2^-53 next to 1 (u1 = 1 gives d = +-0) and next to
// 2^-53, and u2 within 2^20 steps of every multiple of 1/8, where cos has
// its zeros and the reduction its octant edges. The other uniform of each
// draw comes from a seeded stream.
TEST(GaussianFillTest, CraftedDrawsMatchScalarAndStayNearLibm) {
  constexpr std::uint64_t kSide = std::uint64_t{1} << 20;
  constexpr std::uint64_t kU2Points = 7 * (2 * kSide + 1);
  constexpr std::uint64_t kU1Points = 2 * kSide;
  constexpr std::size_t kBlock = 4096;
  constexpr std::uint64_t kTotal = kU2Points + kU1Points;
  const auto words_at = [&](std::uint64_t i, std::uint64_t* w1,
                            std::uint64_t* w2) {
    if (i < kU2Points) {
      const std::uint64_t octant = i / (2 * kSide + 1) + 1;
      const std::uint64_t j2 = (octant << 50) + i % (2 * kSide + 1) - kSide;
      *w1 = Rng::stream_seed(1, i);
      *w2 = j2 << 11;
    } else {
      const std::uint64_t k = i - kU2Points;
      // j1 in [1, 2^20] and [2^53 - 2^20 + 1, 2^53].
      const std::uint64_t j1 =
          k < kSide ? k + 1 : (std::uint64_t{1} << 53) - (k - kSide);
      *w1 = (j1 - 1) << 11;
      *w2 = Rng::stream_seed(2, i);
    }
  };
  const std::size_t blocks = (kTotal + kBlock - 1) / kBlock;
  for (bool portable : {false, true}) {
    PortableRoute route(portable);
    WordStats stats;
    parallel_for(0, blocks, [&](std::size_t blk) {
      const std::uint64_t lo = blk * kBlock;
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, kTotal - lo));
      std::vector<std::uint64_t> w(2 * n);
      for (std::size_t i = 0; i < n; ++i)
        words_at(lo + i, &w[2 * i], &w[2 * i + 1]);
      stats.check(w, n, 1.0);
    });
    EXPECT_EQ(stats.mismatches.load(), 0u) << "portable " << portable;
    if (has_vector_route()) {
      EXPECT_LE(stats.max_log_ulps.load(), 16u);
      EXPECT_LE(stats.max_cos_ulps.load(), 16u);
    }
  }
  // u1 = 1: ln u1 = 0 and d = sigma * (-0) * cos, a zero with the seed's
  // sign, on every octant of u2.
  std::vector<std::uint64_t> w;
  for (std::uint64_t k = 0; k < 16; ++k) {
    w.push_back(((std::uint64_t{1} << 53) - 1) << 11);
    w.push_back(((k << 49) + 3) << 11);
  }
  std::vector<float> y(16);
  vmath_detail::gaussian_from_words(w.data(), 16, 0.5, y.data());
  for (std::size_t i = 0; i < 16; ++i) {
    const double d = Rng::box_muller(w[2 * i], w[2 * i + 1], 0.5);
    EXPECT_EQ(d, 0.0);
    EXPECT_EQ(bits(y[i]), bits(static_cast<float>(d))) << "u2 octant " << i;
  }
}

}  // namespace
}  // namespace advp
