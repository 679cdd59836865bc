// Tests for the core substrate: RNG determinism/splitting, parallel_for,
// and the check macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"
#include "core/rng.h"

namespace advp {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform_int(0, 1000) == b.uniform_int(0, 1000)) ++same;
  EXPECT_LT(same, 5);
}

TEST(RngTest, SplitStreamsIndependent) {
  Rng parent(7);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  // Children have distinct seeds from each other and the parent.
  EXPECT_NE(child1.seed(), child2.seed());
  EXPECT_NE(child1.seed(), parent.seed());
  // Splitting is deterministic: same parent seed -> same children.
  Rng parent2(7);
  EXPECT_EQ(parent2.split().seed(), child1.seed());
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(4);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(2, 5));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(2));
  EXPECT_TRUE(seen.count(5));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double s = 0, s2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(3.0);
    s += v;
    s2 += v * v;
  }
  EXPECT_NEAR(s / n, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(s2 / n), 3.0, 0.1);
}

TEST(RngTest, CoinBias) {
  Rng rng(6);
  int heads = 0;
  for (int i = 0; i < 5000; ++i)
    if (rng.coin(0.8)) ++heads;
  EXPECT_NEAR(heads / 5000.0, 0.8, 0.03);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(7);
  auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(8);
  auto s = rng.sample_without_replacement(20, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<std::size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), CheckError);
}

// The in-tree engine against the standard library's, which the standard
// pins: fill() of every length around a vector (8), the twist's phase
// boundary (156) and the state size (312), interleaved with single draws so
// that each fill also has to leave the engine at the right word.
TEST(RngTest, EngineMatchesStdMt19937_64) {
  Mt19937_64 check(5489);
  std::uint64_t word = 0;
  for (int i = 0; i < 10000; ++i) word = check();
  EXPECT_EQ(word, 9981545732273789042ULL);  // [rand.predef]

  const std::uint64_t seeds[] = {0, 5489, 0x5eed, ~std::uint64_t{0},
                                 Rng::stream_seed(7, 3)};
  const std::size_t lengths[] = {0,   1,   7,   8,   9,   155, 156,
                                 157, 311, 312, 313, 624, 1000};
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 ref(seed);
    Rng rng(seed);
    std::vector<std::uint64_t> words;
    for (const std::size_t n : lengths) {
      words.assign(n, 0);
      rng.engine().fill(words.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(words[i], ref()) << "seed " << seed << ", fill(" << n
                                   << ") word " << i;
      ASSERT_EQ(rng.engine()(), ref())
          << "seed " << seed << ", first word after fill(" << n << ")";
    }
  }
}

TEST(ParallelTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(0, 64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, EmptyRangeNoCalls) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelTest, ExceptionPropagates) {
  EXPECT_THROW(parallel_for(0, 8,
                            [](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelTest, WorkersAtLeastOne) {
  EXPECT_GE(hardware_workers(), 1u);
}

TEST(CheckTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(ADVP_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingCheckThrowsWithContext) {
  try {
    ADVP_CHECK_MSG(false, "ctx " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ctx 42"), std::string::npos);
    EXPECT_NE(what.find("core_test.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace advp
