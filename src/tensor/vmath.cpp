#include "tensor/vmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "tensor/gemm.h"

#if defined(ADVP_SIMD) && defined(__AVX512F__)
#define ADVP_VMATH_AVX512 1
#include <immintrin.h>
// The Gaussian route also converts between int64 and double lanes.
#ifdef __AVX512DQ__
#define ADVP_VMATH_GAUSSIAN 1
#endif
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

#ifdef ADVP_VMATH_GAUSSIAN
// ---- Box–Muller on 8 lanes --------------------------------------------
//
// Accurate to a few double ulps (tests/vmath_test.cpp pins both within 16
// ulps of libm), not bit-equal to libm: keep_mask() decides which lanes'
// floats are provably libm's.

constexpr double inv_factorial(int n) {
  double f = 1.0;
  for (int i = 2; i <= n; ++i) f *= i;
  return 1.0 / f;
}

// ln m = 2 atanh(f) = 2 (f + f^3/3 + f^5/5 + ...): kAtanh[j] = 1/(2j + 3)
// multiplies f^(2j+3). On |f| <= 0.1716 the first omitted term, f^23/23,
// is below 2^-60 of the sum.
constexpr double kAtanh[10] = {1.0 / 3,  1.0 / 5,  1.0 / 7,  1.0 / 9,
                               1.0 / 11, 1.0 / 13, 1.0 / 15, 1.0 / 17,
                               1.0 / 19, 1.0 / 21};
// Taylor coefficients of sin (r^3 .. r^17) and cos (r^2 .. r^16); on
// |r| <= pi/4 the first omitted terms are below 0.03 ulp.
constexpr double kSin[8] = {
    -inv_factorial(3),  inv_factorial(5),  -inv_factorial(7),
    inv_factorial(9),   -inv_factorial(11), inv_factorial(13),
    -inv_factorial(15), inv_factorial(17)};
constexpr double kCos[8] = {
    -inv_factorial(2),  inv_factorial(4),  -inv_factorial(6),
    inv_factorial(8),   -inv_factorial(10), inv_factorial(12),
    -inv_factorial(14), inv_factorial(16)};
// ln 2 = kLn2Hi + kLn2Lo; kLn2Hi has 21 trailing zero bits, so k * kLn2Hi
// is exact for every exponent k.
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// pi/2 = kPio2A + kPio2B + kPio2C to 2^-160.
constexpr double kPio2A = 0x1.921fb54442d18p+0;
constexpr double kPio2B = 0x1.1a62633145c07p-54;
constexpr double kPio2C = -0x1.f1976b7ed8fbcp-110;
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
// Rng::box_muller's 2 pi, the same double.
constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcd;
constexpr __mmask8 kAll8 = 0xff;

template <std::size_t N>
inline __m512d horner(__m512d z, const double (&c)[N]) {
  __m512d p = _mm512_set1_pd(c[N - 1]);
  for (std::size_t j = N - 1; j-- > 0;)
    p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(c[j]));
  return p;
}

// ln u for u in [2^-53, 1]: u = 2^k m with m in [sqrt(1/2), sqrt(2)), and
// ln m = 2 atanh((m - 1) / (m + 1)) with m - 1 exact.
inline __m512d log8(__m512d u) {
  const __m512i ix = _mm512_castpd_si512(u);
  const __m512i k = _mm512_maskz_srai_epi64(
      kAll8, _mm512_sub_epi64(ix, _mm512_set1_epi64(kSqrtHalfBits)), 52);
  const __m512d m = _mm512_castsi512_pd(
      _mm512_sub_epi64(ix, _mm512_maskz_slli_epi64(kAll8, k, 52)));
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d f =
      _mm512_div_pd(_mm512_sub_pd(m, one), _mm512_add_pd(m, one));
  const __m512d z = _mm512_mul_pd(f, f);
  const __m512d f2 = _mm512_add_pd(f, f);
  const __m512d ln_m =
      _mm512_fmadd_pd(_mm512_mul_pd(f2, z), horner(z, kAtanh), f2);
  const __m512d kd = _mm512_maskz_cvtepi64_pd(kAll8, k);
  return _mm512_fmadd_pd(
      kd, _mm512_set1_pd(kLn2Hi),
      _mm512_fmadd_pd(kd, _mm512_set1_pd(kLn2Lo), ln_m));
}

// cos x for x in [0, 2 pi]: x = q pi/2 + r with q = round(2x/pi) in 0..4
// (three-part reduction; the first step is exact), then +-cos r or +-sin r
// on |r| <= pi/4 by quadrant.
inline __m512d cos8(__m512d x) {
  const __m512d q = _mm512_maskz_roundscale_pd(
      kAll8, _mm512_mul_pd(x, _mm512_set1_pd(kTwoOverPi)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(q, _mm512_set1_pd(kPio2A), x);
  r = _mm512_fnmadd_pd(q, _mm512_set1_pd(kPio2B), r);
  r = _mm512_fnmadd_pd(q, _mm512_set1_pd(kPio2C), r);
  const __m512d z = _mm512_mul_pd(r, r);
  const __m512d sin_r =
      _mm512_fmadd_pd(_mm512_mul_pd(r, z), horner(z, kSin), r);
  const __m512d cos_r =
      _mm512_fmadd_pd(z, horner(z, kCos), _mm512_set1_pd(1.0));
  // Quadrant q: cos, -sin, -cos, sin, cos.
  const __m512i qi = _mm512_maskz_cvtpd_epi64(kAll8, q);
  const __m512d v = _mm512_mask_blend_pd(
      _mm512_test_epi64_mask(qi, _mm512_set1_epi64(1)), cos_r, sin_r);
  const __mmask8 negate = _mm512_test_epi64_mask(
      _mm512_add_epi64(qi, _mm512_set1_epi64(1)), _mm512_set1_epi64(2));
  return _mm512_castsi512_pd(_mm512_mask_xor_epi64(
      _mm512_castpd_si512(v), negate, _mm512_castpd_si512(v),
      _mm512_set1_epi64(std::int64_t{1} << 63)));
}

// The uniforms of 8 draws: w holds 16 words, w1 then w2 per draw.
struct Uniforms8 {
  __m512d u1, u2;
};

inline Uniforms8 uniforms8(const std::uint64_t* w) {
  const __m512i a = _mm512_loadu_si512(w);
  const __m512i b = _mm512_loadu_si512(w + 8);
  const __m512i even = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
  const __m512i odd = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
  const __m512i w1 =
      _mm512_maskz_srli_epi64(kAll8, _mm512_permutex2var_epi64(a, even, b), 11);
  const __m512i w2 =
      _mm512_maskz_srli_epi64(kAll8, _mm512_permutex2var_epi64(a, odd, b), 11);
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  return {_mm512_mul_pd(_mm512_maskz_cvtepi64_pd(
                            kAll8, _mm512_add_epi64(w1, _mm512_set1_epi64(1))),
                        scale),
          _mm512_mul_pd(_mm512_maskz_cvtepi64_pd(kAll8, w2), scale)};
}

// Rng::box_muller's double on 8 lanes, in its operation order.
inline __m512d box_muller8(const std::uint64_t* w, double sigma) {
  const Uniforms8 u = uniforms8(w);
  const __m512d s = _mm512_maskz_sqrt_pd(
      kAll8, _mm512_mul_pd(_mm512_set1_pd(-2.0), log8(u.u1)));
  const __m512d c = cos8(_mm512_mul_pd(_mm512_set1_pd(kTwoPi), u.u2));
  return _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(sigma), s), c);
}

// The guard band. A double's low 29 bits are what rounding to float drops;
// when they sit more than 2^12 from the tie 2^28, every double within
// 2^12 ulps of d rounds to d's float, so libm's does (log and cos are a
// few ulps from libm's, the whole expression well under 2^12). |d| below
// 2^-120 (float subnormals with margin, signed zeros) and inf/NaN are
// excluded outright.
inline __mmask8 keep_mask(__m512d d) {
  constexpr std::int64_t kTwoPowMinus120 = 0x3870000000000000;
  const __m512i bits = _mm512_castpd_si512(d);
  const __m512i mag =
      _mm512_and_si512(bits, _mm512_set1_epi64(0x7fffffffffffffff));
  const __mmask8 normal =
      _mm512_cmpge_epu64_mask(mag, _mm512_set1_epi64(kTwoPowMinus120)) &
      _mm512_cmplt_epu64_mask(mag, _mm512_set1_epi64(0x7ff0000000000000));
  const __m512i low = _mm512_and_si512(bits, _mm512_set1_epi64((1 << 29) - 1));
  const __m512i from_tie = _mm512_maskz_abs_epi64(
      kAll8, _mm512_sub_epi64(low, _mm512_set1_epi64(1 << 28)));
  return normal &
         _mm512_cmpgt_epi64_mask(from_tie, _mm512_set1_epi64(1 << 12));
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


namespace vmath_detail {

std::size_t gaussian_from_words(const std::uint64_t* w, std::size_t n,
                                double sigma, float* y) {
  const auto scalar = [&](std::size_t i) {
    y[i] = static_cast<float>(Rng::box_muller(w[2 * i], w[2 * i + 1], sigma));
  };
  std::size_t i = 0, fallbacks = 0;
#ifdef ADVP_VMATH_GAUSSIAN
  if (!gemm_detail::forcing_portable()) {
    for (; i + 8 <= n; i += 8) {
      const __m512d d = box_muller8(w + 2 * i, sigma);
      _mm256_storeu_ps(y + i, _mm512_maskz_cvtpd_ps(kAll8, d));
      for (unsigned bad = ~keep_mask(d) & 0xffu; bad != 0; bad &= bad - 1) {
        scalar(i + static_cast<std::size_t>(std::countr_zero(bad)));
        ++fallbacks;
      }
    }
  }
#endif
  for (std::size_t j = i; j < n; ++j) scalar(j);
  return fallbacks + (n - i);
}

bool gaussian_parts(const std::uint64_t* w, std::size_t n, double* ln_u1,
                    double* cos_u2) {
#ifdef ADVP_VMATH_GAUSSIAN
  for (std::size_t i = 0; i + 8 <= n; i += 8) {
    const Uniforms8 u = uniforms8(w + 2 * i);
    _mm512_storeu_pd(ln_u1 + i, log8(u.u1));
    _mm512_storeu_pd(cos_u2 + i,
                     cos8(_mm512_mul_pd(_mm512_set1_pd(kTwoPi), u.u2)));
  }
  return true;
#else
  (void)w, (void)n, (void)ln_u1, (void)cos_u2;
  return false;
#endif
}

}  // namespace vmath_detail

void gaussian_fill(float* y, std::size_t n, double sigma, Rng& rng) {
  constexpr std::size_t kChunk = vmath_detail::kGaussianChunk;
  std::uint64_t words[2 * kChunk];
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t m = std::min(kChunk, n - i);
    rng.engine().fill(words, 2 * m);
    vmath_detail::gaussian_from_words(words, m, sigma, y + i);
  }
}

}  // namespace advp
