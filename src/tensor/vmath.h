// Elementwise exp and sigmoid with libm-exact, host-independent bits.
//
// exp_f32 is glibc's expf algorithm (sysdeps/ieee754/flt-32/e_expf.c, the
// exp2f_data table and degree-3 polynomial, glibc >= 2.28) as compiled
// into its FMA variant `__expf_fma`, which x86-64 hosts with FMA dispatch
// to: the same double-precision table, constants and fused multiply-adds,
// so every result is the float that libm returns there. It is checked
// against std::exp on every non-positive float (tests/vmath_test.cpp). The
// array forms run an AVX-512 route (8 doubles per vector) in ADVP_SIMD
// builds and a std::fma scalar otherwise; both give the same bits, and
// the portable route is selected at runtime by gemm_detail::force_portable.
//
// gaussian_fill is Rng::gaussian over an array. Its AVX-512 route evaluates
// the Box–Muller expression with in-tree log and cos polynomials and keeps
// a lane's float only where a guard band proves that libm's double rounds
// to the same float; every other element runs Rng::box_muller on libm.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/rng.h"

namespace advp {

/// @brief e^x, bit-identical to glibc's FMA expf for every input
/// (including +-inf, NaN, overflow to +inf and underflow to +0).
float exp_f32(float x);

/// @brief y[i] = exp_f32(x[i]) for i < n; `y == x` is allowed.
void exp_f32(const float* x, float* y, std::size_t n);

/// @brief Numerically stable logistic sigmoid:
/// x >= 0 ? 1 / (1 + e^-x) : e^x / (1 + e^x), with e from exp_f32.
float sigmoidf(float x);

/// @brief y[i] = sigmoidf(x[i]) bit for bit, for i < n; `y == x` is
/// allowed. Evaluates both branches from e = exp(-|x|) without branching;
/// a 16-element chunk holding any |x| >= 88 or NaN (glibc's special-case
/// range) runs sigmoidf element by element instead.
void sigmoid(const float* x, float* y, std::size_t n);

/// @brief y[i] = x[i] * sigmoidf(x[i]) (SiLU) bit for bit, for i < n;
/// `y == x` is allowed. Chunked like sigmoid().
void silu(const float* x, float* y, std::size_t n);

/// @brief y[i] = static_cast<float>(rng.gaussian(sigma)) bit for bit, for
/// i < n, leaving rng where n gaussian() calls would: the same 2n engine
/// words are drawn in the same order, in chunks of
/// vmath_detail::kGaussianChunk elements.
void gaussian_fill(float* y, std::size_t n, double sigma, Rng& rng);

namespace vmath_detail {
/// Elements per engine-word chunk of gaussian_fill.
inline constexpr std::size_t kGaussianChunk = 256;

/// @brief gaussian_fill on engine words drawn beforehand: y[i] =
/// static_cast<float>(Rng::box_muller(w[2i], w[2i + 1], sigma)).
/// @return How many elements ran Rng::box_muller: the guard band's
/// fallbacks and the tail of fewer than 8 on the vector route, n on the
/// portable one.
std::size_t gaussian_from_words(const std::uint64_t* w, std::size_t n,
                                double sigma, float* y);

/// @brief The vector route's ln(u1) and cos(2 pi u2) for the uniforms of
/// the words w (laid out as in gaussian_from_words), n a multiple of 8.
/// Returns false, writing nothing, in builds without the vector route.
bool gaussian_parts(const std::uint64_t* w, std::size_t n, double* ln_u1,
                    double* cos_u2);
}  // namespace vmath_detail

}  // namespace advp
