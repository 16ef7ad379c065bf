// Group-sampling tests (Eq. 34): probability-vector properties for each
// weight function and the sampling frequencies they induce.
#include "sampling/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace groupfel::sampling {
namespace {

const std::vector<double> kCovs{0.2, 0.5, 1.0, 2.0};

/// Eq. 34 into a fresh vector.
std::vector<double> probabilities(SamplingMethod method,
                                  std::span<const double> covs,
                                  double cov_floor = kDefaultCovFloor) {
  std::vector<double> p;
  sampling_probabilities_into(method, covs, p, cov_floor);
  return p;
}

class AllMethodsTest : public ::testing::TestWithParam<SamplingMethod> {};

TEST_P(AllMethodsTest, ProbabilitiesSumToOne) {
  const auto p = probabilities(GetParam(), kCovs);
  double sum = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST_P(AllMethodsTest, LowerCovNeverLessLikely) {
  const auto p = probabilities(GetParam(), kCovs);
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    EXPECT_GE(p[i], p[i + 1] - 1e-12);  // kCovs ascending -> p descending
}

INSTANTIATE_TEST_SUITE_P(Methods, AllMethodsTest,
                         ::testing::Values(SamplingMethod::kRandom,
                                           SamplingMethod::kRCov,
                                           SamplingMethod::kSRCov,
                                           SamplingMethod::kESRCov));

TEST(Sampling, RandomIsUniform) {
  const auto p = probabilities(SamplingMethod::kRandom, kCovs);
  for (double v : p) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(Sampling, RCovMatchesClosedForm) {
  const std::vector<double> covs{0.5, 1.0};
  const auto p = probabilities(SamplingMethod::kRCov, covs);
  // w = 1/CoV: 2 and 1 -> p = 2/3, 1/3.
  EXPECT_NEAR(p[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(p[1], 1.0 / 3.0, 1e-12);
}

TEST(Sampling, SRCovSquaresTheContrast) {
  const std::vector<double> covs{0.5, 1.0};
  const auto rp = probabilities(SamplingMethod::kRCov, covs);
  const auto sp = probabilities(SamplingMethod::kSRCov, covs);
  EXPECT_GT(sp[0], rp[0]);  // squaring emphasizes the better group
  EXPECT_NEAR(sp[0], 4.0 / 5.0, 1e-12);
}

TEST(Sampling, EsrCovEmphasizesMost) {
  const auto r = probabilities(SamplingMethod::kRCov, kCovs);
  const auto s = probabilities(SamplingMethod::kSRCov, kCovs);
  const auto e = probabilities(SamplingMethod::kESRCov, kCovs);
  EXPECT_GT(s[0], r[0]);
  EXPECT_GT(e[0], s[0]);
}

TEST(Sampling, EsrCovNoOverflowForTinyCov) {
  // CoV -> 0 means x = 1/CoV huge; the implementation must stay finite.
  const std::vector<double> covs{1e-9, 1.0};
  const auto p = probabilities(SamplingMethod::kESRCov, covs);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0], 1.0, 1e-6);  // essentially always picks the IID group
}

TEST(Sampling, CovFloorEqualizesPerfectGroups) {
  // Two groups below the floor are indistinguishable.
  const std::vector<double> covs{0.0, 0.01};
  const auto p = probabilities(SamplingMethod::kSRCov, covs, 0.05);
  EXPECT_NEAR(p[0], p[1], 1e-12);
}

TEST(Sampling, RejectsBadInput) {
  EXPECT_THROW((void)probabilities(SamplingMethod::kRCov, {}),
               std::invalid_argument);
  const std::vector<double> negative{-0.1, 0.5};
  EXPECT_THROW((void)probabilities(SamplingMethod::kRCov, negative),
               std::invalid_argument);
}

TEST(SampleGroups, DistinctIndices) {
  runtime::Rng rng(1);
  const std::vector<double> p{0.4, 0.3, 0.2, 0.1};
  for (int rep = 0; rep < 50; ++rep) {
    const auto s = sample_groups(p, 3, rng);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (auto g : s) EXPECT_LT(g, 4u);
  }
}

TEST(SampleGroups, EmpiricalFrequencyTracksP) {
  runtime::Rng rng(2);
  const std::vector<double> p{0.7, 0.2, 0.05, 0.05};
  std::vector<int> first_pick(4, 0);
  const int reps = 20000;
  for (int rep = 0; rep < reps; ++rep)
    ++first_pick[sample_groups(p, 1, rng)[0]];
  EXPECT_NEAR(static_cast<double>(first_pick[0]) / reps, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(first_pick[1]) / reps, 0.2, 0.02);
}

TEST(SampleGroups, FullDrawIsPermutation) {
  runtime::Rng rng(3);
  const std::vector<double> p{0.25, 0.25, 0.25, 0.25};
  const auto s = sample_groups(p, 4, rng);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(SampleGroups, RejectsOverdraw) {
  runtime::Rng rng(4);
  const std::vector<double> p{0.5, 0.5};
  EXPECT_THROW((void)sample_groups(p, 3, rng), std::invalid_argument);
}

TEST(Sampling, NameRoundTrip) {
  for (auto m : {SamplingMethod::kRandom, SamplingMethod::kRCov,
                 SamplingMethod::kSRCov, SamplingMethod::kESRCov}) {
    EXPECT_EQ(sampling_method_from_string(to_string(m)), m);
  }
  EXPECT_THROW((void)sampling_method_from_string("bogus"),
               std::invalid_argument);
}

}  // namespace
}  // namespace groupfel::sampling
