#include "tensor/vmath.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "tensor/gemm.h"

#if defined(ADVP_SIMD) && defined(__AVX512F__)
#define ADVP_VMATH_AVX512 1
#include <immintrin.h>
#endif

namespace advp {

namespace {

// glibc's exp2f_data: tab[i] holds the bits of 2^(i/32) minus i << 47, so
// adding k << 47 to tab[k % 32] gives the bits of 2^(k/32).
constexpr std::uint64_t kTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
// exp2f_data's invln2_scaled (32/ln2), shift (1.5 * 2^52, rounds to an
// integer k in the low mantissa bits) and poly_scaled (C / 32^3, C / 32^2,
// C / 32 — exact power-of-two divisions).
constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
constexpr double kShift = 0x1.8p+52;
constexpr double kC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32.0;
// Bits of 88.0f: glibc branches to its special cases for |x| at or above
// it (which includes inf and NaN).
constexpr std::uint32_t kSpecialAbs = 0x42b00000u;

// e^x for |x| < 88: glibc's main path with the contractions the FMA build
// makes (x*N/ln2 + shift and its remainder as single roundings).
inline float exp_core(float x) {
  const double xd = x;
  double kd = std::fma(kInvLn2N, xd, kShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(kTab[ki % 32] + (ki << 47));
  const double z = std::fma(r, kC0, kC1);
  const double y = std::fma(z, r * r, std::fma(r, kC2, 1.0));
  return static_cast<float>(y * s);
}

#ifdef ADVP_VMATH_AVX512
// exp_core on 8 lanes, operation for operation. (Zero-masking forms with
// a full mask stand in for the plain conversions and shift, whose
// undefined-source idiom trips GCC 12's -Wmaybe-uninitialized.)
inline __m256 exp_core8(__m256 x) {
  constexpr __mmask8 kAll = 0xff;
  const __m512d xd = _mm512_maskz_cvtps_pd(kAll, x);
  const __m512d inv = _mm512_set1_pd(kInvLn2N);
  const __m512d shift = _mm512_set1_pd(kShift);
  __m512d kd = _mm512_fmadd_pd(inv, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, shift);
  const __m512d r = _mm512_fmsub_pd(inv, xd, kd);
  // tab[ki % 32]: each two-source permute covers 16 entries (index bits
  // 0-3), and bit 4 picks between them.
  const __m512i lo = _mm512_permutex2var_epi64(
      _mm512_loadu_si512(kTab), ki, _mm512_loadu_si512(kTab + 8));
  const __m512i hi = _mm512_permutex2var_epi64(
      _mm512_loadu_si512(kTab + 16), ki, _mm512_loadu_si512(kTab + 24));
  const __mmask8 upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
  const __m512d s = _mm512_castsi512_pd(_mm512_add_epi64(
      _mm512_mask_blend_epi64(upper, lo, hi),
      _mm512_maskz_slli_epi64(kAll, ki, 47)));
  const __m512d z =
      _mm512_fmadd_pd(r, _mm512_set1_pd(kC0), _mm512_set1_pd(kC1));
  const __m512d y = _mm512_fmadd_pd(
      z, _mm512_mul_pd(r, r),
      _mm512_fmadd_pd(r, _mm512_set1_pd(kC2), _mm512_set1_pd(1.0)));
  return _mm512_maskz_cvtpd_ps(kAll, _mm512_mul_pd(y, s));
}

// sigmoidf on 8 lanes with no special-case input: both branches share
// e = exp(-|x|) and 1 + e, and only the numerator differs.
inline __m256 sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.f);
  const __m256 e = exp_core8(_mm256_or_ps(x, _mm256_set1_ps(-0.f)));
  const __m256 pos = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
  return _mm256_div_ps(_mm256_blendv_ps(e, one, pos),
                       _mm256_add_ps(one, e));
}

// Runs `vec` over 16-element chunks and returns how many elements it
// covered. A chunk holding any special-case input runs `scalar` instead.
template <class Vec, class Scalar>
std::size_t simd_chunks(const float* x, float* y, std::size_t n, Vec vec,
                        Scalar scalar) {
  if (gemm_detail::forcing_portable()) return 0;
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  const __m512i special = _mm512_set1_epi32(static_cast<int>(kSpecialAbs));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i ax = _mm512_and_si512(_mm512_loadu_si512(x + i), abs_mask);
    if (_mm512_cmpge_epu32_mask(ax, special) != 0) {
      for (std::size_t j = i; j < i + 16; ++j) y[j] = scalar(x[j]);
      continue;
    }
    const __m256 lo = vec(_mm256_loadu_ps(x + i));
    const __m256 hi = vec(_mm256_loadu_ps(x + i + 8));
    _mm256_storeu_ps(y + i, lo);
    _mm256_storeu_ps(y + i + 8, hi);
  }
  return i;
}
#endif

}  // namespace

float exp_f32(float x) {
  const std::uint32_t ax = std::bit_cast<std::uint32_t>(x) & 0x7fffffffu;
  if (ax >= kSpecialAbs) [[unlikely]] {
    if (x == -INFINITY) return 0.f;
    if (ax >= 0x7f800000u) return x + x;     // +inf, NaN
    if (x > 0x1.62e42ep6f) return INFINITY;  // overflow
    if (x < -0x1.9fe368p6f) return 0.f;      // underflow
  }
  return exp_core(x);
}

void exp_f32(const float* x, float* y, std::size_t n) {
  const auto scalar = [](float v) { return exp_f32(v); };
  std::size_t i = 0;
#ifdef ADVP_VMATH_AVX512
  i = simd_chunks(x, y, n, [](__m256 v) { return exp_core8(v); }, scalar);
#endif
  for (; i < n; ++i) y[i] = scalar(x[i]);
}

float sigmoidf(float x) {
  if (x >= 0.f) {
    const float e = exp_f32(-x);
    return 1.f / (1.f + e);
  }
  const float e = exp_f32(x);
  return e / (1.f + e);
}

void sigmoid(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
#ifdef ADVP_VMATH_AVX512
  i = simd_chunks(
      x, y, n, [](__m256 v) { return sigmoid8(v); },
      [](float v) { return sigmoidf(v); });
#endif
  for (; i < n; ++i) y[i] = sigmoidf(x[i]);
}

void silu(const float* x, float* y, std::size_t n) {
  const auto scalar = [](float v) { return v * sigmoidf(v); };
  std::size_t i = 0;
#ifdef ADVP_VMATH_AVX512
  i = simd_chunks(
      x, y, n, [](__m256 v) { return _mm256_mul_ps(v, sigmoid8(v)); },
      scalar);
#endif
  for (; i < n; ++i) y[i] = scalar(x[i]);
}

}  // namespace advp
