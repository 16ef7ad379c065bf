// The label matrix L from §5.1: L[i][j] = number of samples of label j on
// client i. Grouping algorithms operate exclusively on this matrix — the
// paper stresses that CoV needs "the data label distributions from users...
// without any information of their local data, model, nor gradient".
//
// Storage is one flat row-major array: a million-client matrix is a single
// allocation instead of a million row vectors (24 bytes + one heap block
// each), which is what lets fleet-scale grouping stream over L in cache
// order.
#pragma once

#include <span>
#include <vector>

#include "data/client_descriptor.hpp"

namespace groupfel::data {

class LabelMatrix {
 public:
  LabelMatrix() = default;

  /// rows[i] is client i's per-label sample count.
  LabelMatrix(std::vector<std::vector<std::size_t>> rows,
              std::size_t num_labels);

  /// Flat row-major counts: flat[i * num_labels + j] = L[i][j]. A named
  /// factory (not a constructor) so nested-brace row literals in the ctor
  /// above stay unambiguous.
  static LabelMatrix from_flat(std::vector<std::size_t> flat,
                               std::size_t num_labels);

  /// Builds the matrix from a descriptor table (intended labels) — no
  /// sample data needed, O(clients * labels) straight copy. `pool` copies
  /// row blocks in parallel; rows are disjoint, so the result is
  /// bit-identical for any pool size including nullptr (serial).
  static LabelMatrix from_population(const ClientPopulation& population,
                                     runtime::ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t num_clients() const noexcept {
    return labels_ == 0 ? 0 : flat_.size() / labels_;
  }
  [[nodiscard]] std::size_t num_labels() const noexcept { return labels_; }

  [[nodiscard]] std::span<const std::size_t> row(std::size_t client) const;

  /// Total samples on a client.
  [[nodiscard]] std::size_t client_total(std::size_t client) const;

  /// Column sums: the global label distribution (unnormalized).
  [[nodiscard]] std::vector<std::size_t> global_counts() const;

  /// Sub-matrix restricted to the given clients (used per edge server).
  [[nodiscard]] LabelMatrix submatrix(std::span<const std::size_t> clients) const;

 private:
  std::vector<std::size_t> flat_;  ///< [num_clients * num_labels], row-major
  std::size_t labels_ = 0;
};

}  // namespace groupfel::data
