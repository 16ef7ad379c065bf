#include "data/partition.hpp"

#include <gtest/gtest.h>

#include <set>

#include "data/client_descriptor.hpp"
#include "data/label_matrix.hpp"
#include "grouping/cov.hpp"

namespace groupfel::data {
namespace {

PartitionSpec small_spec(std::size_t clients, double alpha) {
  PartitionSpec spec;
  spec.num_clients = clients;
  spec.alpha = alpha;
  spec.size_mean = 30;
  spec.size_std = 10;
  spec.size_min = 10;
  spec.size_max = 50;
  return spec;
}

TEST(Partition, RejectsBadSpecs) {
  runtime::Rng rng(4);
  PartitionSpec spec = small_spec(1, 0.5);
  spec.size_min = 0;
  EXPECT_THROW((void)descriptor_partition(spec, 10, rng),
               std::invalid_argument);
  spec = small_spec(1, 0.5);
  spec.size_min = spec.size_max + 1;
  EXPECT_THROW((void)descriptor_partition(spec, 10, rng),
               std::invalid_argument);
  spec = small_spec(0, 0.5);
  EXPECT_THROW((void)descriptor_partition(spec, 10, rng),
               std::invalid_argument);
  EXPECT_THROW((void)descriptor_partition(small_spec(2, 0.5), 0, rng),
               std::invalid_argument);
}

class PartitionSkewTest : public ::testing::TestWithParam<double> {};

TEST_P(PartitionSkewTest, ClientCovDecreasesWithAlpha) {
  // Property: per-client label CoV should be much higher at alpha=0.05 than
  // at alpha=10 (approaching uniform).
  const double alpha = GetParam();
  runtime::Rng rng(5);
  const auto matrix = LabelMatrix::from_population(
      descriptor_partition(small_spec(60, alpha), 10, rng));
  double mean_cov = 0.0;
  for (std::size_t i = 0; i < matrix.num_clients(); ++i)
    mean_cov += grouping::cov(matrix.row(i));
  mean_cov /= static_cast<double>(matrix.num_clients());
  if (alpha <= 0.05) {
    EXPECT_GT(mean_cov, 1.8);
  }
  if (alpha >= 10.0) {
    EXPECT_LT(mean_cov, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, PartitionSkewTest,
                         ::testing::Values(0.05, 0.5, 10.0));

TEST(Partition, DeterministicGivenSeed) {
  runtime::Rng r1(42), r2(42);
  const ClientPopulation a = descriptor_partition(small_spec(20, 0.3), 10, r1);
  const ClientPopulation b = descriptor_partition(small_spec(20, 0.3), 10, r2);
  ASSERT_EQ(a.num_clients(), b.num_clients());
  for (std::size_t i = 0; i < a.num_clients(); ++i) {
    ASSERT_EQ(a.data_count(i), b.data_count(i));
    const auto ca = a.label_counts(i), cb = b.label_counts(i);
    for (std::size_t k = 0; k < ca.size(); ++k) EXPECT_EQ(ca[k], cb[k]);
  }
}

TEST(AssignToEdges, EvenSplit) {
  const auto edges = assign_to_edges(300, 3);
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& e : edges) EXPECT_EQ(e.size(), 100u);
  // All clients covered exactly once.
  std::set<std::size_t> seen;
  for (const auto& e : edges)
    for (auto c : e) EXPECT_TRUE(seen.insert(c).second);
  EXPECT_EQ(seen.size(), 300u);
}

TEST(AssignToEdges, RemainderSpread) {
  const auto edges = assign_to_edges(10, 3);
  EXPECT_EQ(edges[0].size(), 4u);
  EXPECT_EQ(edges[1].size(), 3u);
  EXPECT_EQ(edges[2].size(), 3u);
}

TEST(AssignToEdges, RejectsZeroEdges) {
  EXPECT_THROW((void)assign_to_edges(10, 0), std::invalid_argument);
}

}  // namespace
}  // namespace groupfel::data
