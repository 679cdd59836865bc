#include "core/rng.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace advp {

namespace {

// mt19937_64's twist: word k becomes x[k + m] ^ A(upper bit of x[k] joined
// to the lower 31 bits of x[k + 1]), indices mod n, in ascending k.
constexpr std::size_t kMid = 156;  // m = n / 2
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;

inline std::uint64_t twist_word(std::uint64_t from, std::uint64_t cur,
                                std::uint64_t next) {
  const std::uint64_t y = (cur & kUpperMask) | (next & ~kUpperMask);
  return from ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

// SplitMix64 finalizer: decorrelates derived seeds.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// All samplers below are hand-rolled from raw mt19937_64 output instead of
// std::*_distribution: the engine's bit sequence is exactly specified by the
// standard, but the distributions' algorithms are implementation-defined, so
// using them would make "same seed, same numbers" hold only within a single
// standard library (goldens recorded under libstdc++ would fail under libc++).

// 53-bit-mantissa uniform in [0, 1).
double to_unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) {
  x_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i)
    x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
}

// Words k < m read the old upper half, words m <= k < n - 1 the lower half
// this twist already wrote, and the last word the new x[0]. Each loop's
// reads are either not yet written (x[k + 1]) or written m iterations
// earlier, so the compiler vectorizes both loops as written, and the
// temper loop in fill(); bench/micro_gemm's mt_words_1m row gates that
// fill() stays well ahead of single draws.
void Mt19937_64::twist() {
  for (std::size_t k = 0; k < kMid; ++k)
    x_[k] = twist_word(x_[k + kMid], x_[k], x_[k + 1]);
  for (std::size_t k = kMid; k < kN - 1; ++k)
    x_[k] = twist_word(x_[k - kMid], x_[k], x_[k + 1]);
  x_[kN - 1] = twist_word(x_[kMid - 1], x_[kN - 1], x_[0]);
  pos_ = 0;
}

void Mt19937_64::fill(std::uint64_t* out, std::size_t n) {
  while (n > 0) {
    if (pos_ >= kN) twist();
    const std::size_t take = std::min(n, kN - pos_);
    const std::uint64_t* x = x_ + pos_;
    for (std::size_t j = 0; j < take; ++j) out[j] = temper(x[j]);
    pos_ += take;
    out += take;
    n -= take;
  }
}

Rng Rng::split() {
  ++split_count_;
  return Rng(mix(seed_ ^ mix(split_count_)));
}

std::uint64_t Rng::stream_seed(std::uint64_t base, std::uint64_t index) {
  return mix(base ^ mix(index + 0x517cc1b727220a95ULL));
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * to_unit(engine_());
}

// Debiased modulo draw in [0, range): rejects the final partial bucket of
// 2^64 so every value is exactly equiprobable.
std::uint64_t Rng::bounded(std::uint64_t range) {
  const std::uint64_t rem = (std::uint64_t{0} - range) % range;  // 2^64 % range
  std::uint64_t x = engine_();
  if (rem != 0) {
    const std::uint64_t bound = std::uint64_t{0} - rem;  // largest multiple
    while (x >= bound) x = engine_();
  }
  return x % range;
}

int Rng::uniform_int(int lo, int hi) {
  ADVP_CHECK(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(hi) - static_cast<std::int64_t>(lo) + 1);
  return static_cast<int>(lo + static_cast<std::int64_t>(bounded(range)));
}

double Rng::gaussian(double sigma) {
  // Named draws, not call arguments, so that w1 is drawn first.
  const std::uint64_t w1 = engine_();
  const std::uint64_t w2 = engine_();
  return box_muller(w1, w2, sigma);
}

double Rng::box_muller(std::uint64_t w1, std::uint64_t w2, double sigma) {
  // A fixed two engine words per draw, so the stream position never depends
  // on rejection luck. u1 in (0, 1] keeps the log finite.
  const double u1 = static_cast<double>((w1 >> 11) + 1) * 0x1.0p-53;
  const double u2 = to_unit(w2);
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return sigma * std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

bool Rng::coin(double p) { return to_unit(engine_()) < p; }

std::size_t Rng::index(std::size_t n) {
  ADVP_CHECK(n > 0);
  return static_cast<std::size_t>(bounded(n));
}

int Rng::sign() { return coin() ? 1 : -1; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = index(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  ADVP_CHECK(k <= n);
  auto perm = permutation(n);
  perm.resize(k);
  return perm;
}

}  // namespace advp
