#include "data/label_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace groupfel::data {
namespace {

LabelMatrix sample_matrix() {
  return LabelMatrix({{3, 0, 1}, {0, 5, 0}, {2, 2, 2}}, 3);
}

TEST(LabelMatrix, BasicAccessors) {
  const LabelMatrix m = sample_matrix();
  EXPECT_EQ(m.num_clients(), 3u);
  EXPECT_EQ(m.num_labels(), 3u);
  EXPECT_EQ(m.row(1)[1], 5u);
  EXPECT_EQ(m.client_total(0), 4u);
  EXPECT_EQ(m.client_total(2), 6u);
}

TEST(LabelMatrix, GlobalCounts) {
  const LabelMatrix m = sample_matrix();
  const auto g = m.global_counts();
  EXPECT_EQ(g[0], 5u);
  EXPECT_EQ(g[1], 7u);
  EXPECT_EQ(g[2], 3u);
}

TEST(LabelMatrix, Submatrix) {
  const LabelMatrix m = sample_matrix();
  const std::vector<std::size_t> pick{2, 0};
  const LabelMatrix sub = m.submatrix(pick);
  EXPECT_EQ(sub.num_clients(), 2u);
  EXPECT_EQ(sub.row(0)[0], 2u);  // row of client 2
  EXPECT_EQ(sub.row(1)[0], 3u);  // row of client 0
}

TEST(LabelMatrix, RejectsRaggedRows) {
  EXPECT_THROW(LabelMatrix({{1, 2}, {1}}, 2), std::invalid_argument);
}

TEST(LabelMatrix, FromPopulationMatchesCounts) {
  ClientPopulation pop(2, 4);
  const std::vector<ClientPopulation::Count> row0{1, 1, 1, 1};  // one of each
  const std::vector<ClientPopulation::Count> row1{3, 0, 0, 0};  // three label-0
  std::copy(row0.begin(), row0.end(), pop.label_counts_mutable(0).begin());
  std::copy(row1.begin(), row1.end(), pop.label_counts_mutable(1).begin());
  const LabelMatrix m = LabelMatrix::from_population(pop);
  EXPECT_EQ(m.num_clients(), 2u);
  EXPECT_EQ(m.num_labels(), 4u);
  EXPECT_EQ(m.row(0)[0], 1u);
  EXPECT_EQ(m.row(1)[0], 3u);
  EXPECT_EQ(m.row(1)[1], 0u);
}

TEST(LabelMatrix, EmptyPopulationGivesEmptyMatrix) {
  const LabelMatrix m = LabelMatrix::from_population(ClientPopulation(0, 4));
  EXPECT_EQ(m.num_clients(), 0u);
}

}  // namespace
}  // namespace groupfel::data
