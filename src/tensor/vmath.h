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
#pragma once

#include <cstddef>

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

}  // namespace advp
