#include "data/label_matrix.hpp"

#include <numeric>
#include <stdexcept>

namespace groupfel::data {

LabelMatrix::LabelMatrix(std::vector<std::vector<std::size_t>> rows,
                         std::size_t num_labels)
    : labels_(num_labels) {
  flat_.reserve(rows.size() * num_labels);
  for (const auto& r : rows) {
    if (r.size() != labels_)
      throw std::invalid_argument("LabelMatrix: ragged rows");
    flat_.insert(flat_.end(), r.begin(), r.end());
  }
}

LabelMatrix LabelMatrix::from_flat(std::vector<std::size_t> flat,
                                   std::size_t num_labels) {
  if (num_labels == 0 ? !flat.empty() : flat.size() % num_labels != 0)
    throw std::invalid_argument("LabelMatrix: flat size not row-divisible");
  LabelMatrix m;
  m.flat_ = std::move(flat);
  m.labels_ = num_labels;
  return m;
}

LabelMatrix LabelMatrix::from_population(const ClientPopulation& population,
                                         runtime::ThreadPool* pool) {
  const std::size_t m = population.num_classes();
  const std::size_t n = population.num_clients();
  std::vector<std::size_t> flat(n * m);
  // Parallel blocks of whole rows: every row is written exactly once by
  // exactly one block, so the decomposition cannot affect the result.
  constexpr std::size_t kRowBlock = 4096;
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  const auto copy_block = [&](std::size_t bi) {
    const std::size_t c0 = bi * kRowBlock;
    const std::size_t c1 = std::min(n, c0 + kRowBlock);
    for (std::size_t c = c0; c < c1; ++c) {
      const auto row = population.label_counts(c);
      for (std::size_t j = 0; j < m; ++j) flat[c * m + j] = row[j];
    }
  };
  if (pool != nullptr && pool->size() > 1 && blocks > 1) {
    pool->parallel_for(blocks, copy_block);
  } else {
    for (std::size_t bi = 0; bi < blocks; ++bi) copy_block(bi);
  }
  return from_flat(std::move(flat), m);
}

std::span<const std::size_t> LabelMatrix::row(std::size_t client) const {
  if (client >= num_clients())
    throw std::out_of_range("LabelMatrix::row: bad client");
  return {flat_.data() + client * labels_, labels_};
}

std::size_t LabelMatrix::client_total(std::size_t client) const {
  const auto r = row(client);
  return std::accumulate(r.begin(), r.end(), std::size_t{0});
}

std::vector<std::size_t> LabelMatrix::global_counts() const {
  std::vector<std::size_t> sums(labels_, 0);
  const std::size_t n = num_clients();
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = row(i);
    for (std::size_t j = 0; j < labels_; ++j) sums[j] += r[j];
  }
  return sums;
}

LabelMatrix LabelMatrix::submatrix(
    std::span<const std::size_t> clients) const {
  std::vector<std::size_t> flat;
  flat.reserve(clients.size() * labels_);
  for (auto c : clients) {
    const auto r = row(c);
    flat.insert(flat.end(), r.begin(), r.end());
  }
  return from_flat(std::move(flat), labels_);
}

}  // namespace groupfel::data
