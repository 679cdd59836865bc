// exp_f32 / sigmoid / silu against libm: exhaustive over every
// non-positive float (the only arguments sigmoid evaluates exp at) on the
// SIMD and the forced-portable route, and a strided sweep of the array
// kernels against the scalar expressions they replace, special values
// included. Everything compares bits, NaN payloads too.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/parallel.h"
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

}  // namespace
}  // namespace advp
