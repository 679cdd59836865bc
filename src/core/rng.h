// Deterministic, splittable random number generation.
//
// Every stochastic component in the library (data generators, attacks,
// defenses, training) takes an explicit Rng so experiments are exactly
// reproducible from a single seed. `Rng::split` derives an independent
// child stream, so parallel consumers never share state.
#pragma once

// <cmath> is not used here, but includers such as e2ebench/src/campaign.cpp
// reach it only through this header.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace advp {

/// The 64-bit Mersenne Twister, word for word std::mt19937_64: the standard
/// fixes its seeding recurrence, the two-phase twist of 312 state words and
/// the four-step temper, and tests/core_test.cpp holds this engine to
/// std::mt19937_64. fill() draws words in bulk: it tempers straight from
/// the state in one loop per twist, which the compiler vectorizes, as it
/// does the twist. Every step is integer arithmetic, so the bulk draw
/// cannot change a word or where the engine stands afterwards.
class Mt19937_64 {
 public:
  explicit Mt19937_64(std::uint64_t seed);

  /// The next word.
  std::uint64_t operator()() {
    if (pos_ >= kN) twist();
    return temper(x_[pos_++]);
  }
  /// Writes the next n words to out, in order, leaving the engine where n
  /// operator() calls would.
  void fill(std::uint64_t* out, std::size_t n);

 private:
  static constexpr std::size_t kN = 312;

  static std::uint64_t temper(std::uint64_t y) {
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71d67fffeda60000ULL;
    y ^= (y << 37) & 0xfff7eee000000000ULL;
    return y ^ (y >> 43);
  }
  void twist();

  std::uint64_t x_[kN];
  std::size_t pos_ = kN;
};

/// Seeded PRNG wrapper around Mt19937_64 with convenience samplers.
/// Samplers are hand-rolled from raw engine bits (not std::*_distribution,
/// whose sequences are implementation-defined), so a given seed produces the
/// same draws on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL) : engine_(seed), seed_(seed) {}

  /// Derives an independent child stream; deterministic in (seed, call #).
  Rng split();

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);
  /// Zero-mean Gaussian with standard deviation `sigma`: box_muller() of
  /// the next two engine words.
  double gaussian(double sigma = 1.0);
  /// Bernoulli trial.
  bool coin(double p = 0.5);
  /// Uniformly chosen index in [0, n).
  std::size_t index(std::size_t n);
  /// Random sign, +1 or -1.
  int sign();

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);
  /// First k elements of a random permutation of [0, n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  std::uint64_t seed() const { return seed_; }
  Mt19937_64& engine() { return engine_; }

  /// Seed for the `index`-th parallel stream of a base seed: deterministic,
  /// order-independent, and decorrelated across indices (SplitMix64 mix).
  /// Parallel loops give every item `Rng(Rng::stream_seed(base, i))` so
  /// results do not depend on worker count or execution order.
  static std::uint64_t stream_seed(std::uint64_t base, std::uint64_t index);

  /// The Box–Muller transform gaussian() applies to two engine words, w1
  /// drawn first: sigma * sqrt(-2 ln u1) * cos(2 pi u2) on libm, with
  /// u1 = ((w1 >> 11) + 1) 2^-53 in (0, 1] and u2 = (w2 >> 11) 2^-53 in
  /// [0, 1). The one definition of the library's Gaussian draw; the array
  /// kernel gaussian_fill (tensor/vmath.h) reproduces its bits.
  static double box_muller(std::uint64_t w1, std::uint64_t w2, double sigma);

 private:
  std::uint64_t bounded(std::uint64_t range);

  Mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t split_count_ = 0;
};

}  // namespace advp
