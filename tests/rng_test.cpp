#include "runtime/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace groupfel::runtime {
namespace {

TEST(Splitmix, KnownFirstValue) {
  // Reference value for splitmix64 with state 0 (widely published).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
}

TEST(Splitmix, AdvancesState) {
  std::uint64_t state = 0;
  const auto a = splitmix64(state);
  const auto b = splitmix64(state);
  EXPECT_NE(a, b);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LE(same, 1);
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng parent(9);
  Rng child1 = parent.fork(7);
  // Forking is a pure function of (state, salt): same parent state + salt
  // gives the same child.
  Rng parent2(9);
  Rng child2 = parent2.fork(7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, SiblingForksDecorrelated) {
  Rng parent(9);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LE(same, 1);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanApproximation) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(2.0, 4.0);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParams) {
  Rng rng(9);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

class GammaShapeTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaShapeTest, MeanMatchesShape) {
  const double shape = GetParam();
  Rng rng(11);
  const int n = 40000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gamma(shape);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  // Gamma(shape, 1) has mean == shape.
  EXPECT_NEAR(sum / n, shape, 0.05 * std::max(1.0, shape));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaShapeTest,
                         ::testing::Values(0.05, 0.1, 0.5, 1.0, 2.0, 7.5));

class DirichletTest : public ::testing::TestWithParam<double> {};

TEST_P(DirichletTest, SumsToOneAndNonNegative) {
  const double alpha = GetParam();
  Rng rng(12);
  for (int rep = 0; rep < 50; ++rep) {
    const auto v = rng.dirichlet(alpha, 10);
    double sum = 0.0;
    for (double x : v) {
      ASSERT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(DirichletTest, SmallerAlphaIsMoreSkewed) {
  const double alpha = GetParam();
  Rng rng(13);
  // Mean of the max coordinate grows as alpha shrinks.
  double mean_max = 0.0;
  const int reps = 300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto v = rng.dirichlet(alpha, 10);
    mean_max += *std::max_element(v.begin(), v.end());
  }
  mean_max /= reps;
  if (alpha <= 0.1) {
    EXPECT_GT(mean_max, 0.6);
  }
  if (alpha >= 2.0) {
    EXPECT_LT(mean_max, 0.45);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DirichletTest,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0, 10.0));

TEST(Rng, DirichletPerCategoryAlpha) {
  Rng rng(14);
  const std::vector<double> alpha{10.0, 1.0, 1.0};
  double first = 0.0;
  const int reps = 2000;
  for (int rep = 0; rep < reps; ++rep) first += rng.dirichlet(alpha)[0];
  // E[first] = 10 / 12.
  EXPECT_NEAR(first / reps, 10.0 / 12.0, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(15);
  const std::vector<double> w{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(16);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW((void)rng.categorical(zero), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW((void)rng.categorical(negative), std::invalid_argument);
}

/// Weight vectors for the categorical_counts equivalence test: random
/// weights with zero and subnormal entries in every position class.
std::vector<std::vector<double>> categorical_weight_cases(std::size_t m,
                                                          Rng& rng) {
  std::vector<double> base(m);
  for (double& w : base) w = 0.05 + rng.next_double();
  std::vector<std::vector<double>> cases{base};
  const auto with = [&](std::size_t i, double value) {
    std::vector<double> w = base;
    w[i] = value;
    return w;
  };
  constexpr double kSubnormal = 4.9e-324;
  cases.push_back(with(m / 2, kSubnormal));
  cases.push_back(std::vector<double>(m, 1e-310));  // all-subnormal total
  if (m > 1) {
    cases.push_back(with(0, 0.0));      // leading zero
    cases.push_back(with(m - 1, 0.0));  // trailing zero
    std::vector<double> skewed = with(0, kSubnormal);
    skewed[m - 1] = 0.0;
    cases.push_back(skewed);
  }
  if (m > 2) {
    cases.push_back(with(m / 2, 0.0));  // interior zero
    std::vector<double> one_hot(m, 0.0);
    one_hot[m - 2] = 1.0;
    cases.push_back(one_hot);
  }
  return cases;
}

TEST(Rng, CategoricalCountsMatchScalarDraws) {
  Rng weight_rng(31);
  for (const std::size_t m : {1u, 2u, 10u, 35u}) {
    for (const auto& weights : categorical_weight_cases(m, weight_rng)) {
      for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 1000u}) {
        Rng scalar(1000 + n), batched(1000 + n);
        // Non-zero start: categorical_counts adds to what is there.
        std::vector<std::uint32_t> expected(m, 7), got(m, 7);
        for (std::size_t i = 0; i < n; ++i)
          ++expected[scalar.categorical(weights)];
        batched.categorical_counts(weights, n, got);
        EXPECT_EQ(expected, got) << "m " << m << " n " << n;
        EXPECT_EQ(scalar.next_u64(), batched.next_u64())
            << "stream position differs, m " << m << " n " << n;
      }
    }
  }
}

TEST(Rng, CategoricalRoundsProductBeforeSubtracting) {
  // weights {w, w} with w the smallest subnormal: total = 2w, and
  // u = next_double() * total rounds to 0, w or 2w, so class 0 is drawn
  // iff the 53-bit draw is <= 2^51 (0.25 * 2w = 0.5w ties to even, i.e.
  // to 0). A fused multiply-subtract would pick class 0 iff the draw is
  // < 2^52 instead. The oracle below is integer-only, so it does not move
  // with the build flags of rng.cpp.
  const double w = 4.9e-324;
  const std::vector<double> weights{w, w};
  Rng oracle(44), scalar(44), batched(44);
  std::vector<std::uint32_t> expected(2, 0), got(2, 0), scalar_counts(2, 0);
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    ++expected[(oracle.next_u64() >> 11) <= (1ull << 51) ? 0 : 1];
    ++scalar_counts[scalar.categorical(weights)];
  }
  batched.categorical_counts(weights, n, got);
  EXPECT_EQ(expected, scalar_counts);
  EXPECT_EQ(expected, got);
}

TEST(Rng, AffineDrawsRoundTheProduct) {
  // uniform() and normal(mean, sd) round the product before the add in
  // every build: rng.cpp is compiled with -ffp-contract=off, so
  // -march=native cannot fuse them into FMAs and shift the synthesized
  // data. The oracle stores each product through a volatile, so this TU
  // cannot fuse it either.
  Rng rng(51), oracle(51);
  for (int i = 0; i < 1000; ++i) {
    const double lo = -3.7, hi = 11.3;
    volatile double span = (hi - lo) * oracle.next_double();
    EXPECT_EQ(rng.uniform(lo, hi), lo + span) << "draw " << i;
    volatile double spread = 1.7 * oracle.normal();
    EXPECT_EQ(rng.normal(0.3, 1.7), 0.3 + spread) << "draw " << i;
  }
}

TEST(Rng, CategoricalCountsRejectsBadInputs) {
  Rng rng(16);
  std::vector<std::uint32_t> counts(2, 0);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.categorical_counts(zero, 10, counts), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.categorical_counts(negative, 10, counts),
               std::invalid_argument);
  EXPECT_THROW(rng.categorical_counts(zero, 0, counts), std::invalid_argument);
  const std::vector<double> three{1.0, 1.0, 1.0};
  EXPECT_THROW(rng.categorical_counts(three, 10, counts),
               std::invalid_argument);
  // Rejected calls draw nothing and leave the counts alone.
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{0, 0}));
  Rng fresh(16);
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), w.begin()));  // 1/100! chance
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(18);
  const auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (auto x : s) EXPECT_LT(x, 50u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(19);
  const auto s = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(20);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace groupfel::runtime
