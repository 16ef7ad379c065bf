// Dataset containers for federated simulation.
//
// A DataSet owns one dense feature tensor plus integer labels. Clients hold
// ClientShard views (shared dataset + an index list) so partitioning 300
// clients does not copy sample data.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace groupfel::data {

class DataSet {
 public:
  DataSet() = default;

  /// features: [N, ...]; labels: N entries in [0, num_classes).
  DataSet(nn::Tensor features, std::vector<std::int32_t> labels,
          std::size_t num_classes);

  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] std::size_t num_classes() const noexcept { return classes_; }
  [[nodiscard]] const nn::Tensor& features() const noexcept { return features_; }
  [[nodiscard]] std::span<const std::int32_t> labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] std::int32_t label(std::size_t i) const { return labels_.at(i); }

  /// Per-sample feature size (product of non-batch dims).
  [[nodiscard]] std::size_t sample_size() const noexcept;

  /// Shape of one sample (without the batch dimension).
  [[nodiscard]] std::vector<std::size_t> sample_shape() const;

  /// Gathers the given sample indices into a contiguous batch tensor +
  /// label vector.
  struct Batch {
    nn::Tensor features;
    std::vector<std::int32_t> labels;
  };
  [[nodiscard]] Batch gather(std::span<const std::size_t> indices) const;

  /// Allocation-free form of gather(): writes into a caller-owned Batch,
  /// reusing its storage (capacity grows once, then steady-state calls
  /// perform zero tensor constructions). Produces bit-identical contents
  /// to gather().
  void gather_into(std::span<const std::size_t> indices, Batch& out) const;

 private:
  nn::Tensor features_;
  std::vector<std::int32_t> labels_;
  std::size_t classes_ = 0;
};

/// Shapes `out`'s feature tensor as [n, sample_shape...] and its label
/// vector as n entries, reusing out's storage (the zero-alloc batch
/// contract from DataSet::gather_into, available to batch producers that
/// synthesize samples instead of copying them from a resident tensor).
void prepare_batch(std::span<const std::size_t> sample_shape, std::size_t n,
                   DataSet::Batch& out);

/// A client's view of a shared dataset.
class ClientShard {
 public:
  ClientShard() = default;
  ClientShard(std::shared_ptr<const DataSet> dataset,
              std::vector<std::size_t> indices);

  [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }
  [[nodiscard]] const DataSet& dataset() const { return *dataset_; }
  [[nodiscard]] std::span<const std::size_t> indices() const noexcept {
    return indices_;
  }

  /// Count of samples per label on this client (the label-matrix row L_i).
  [[nodiscard]] std::vector<std::size_t> label_counts() const;

  /// Materializes a minibatch from local positions into a caller-owned
  /// Batch, mapping them to global indices inline (no scratch index vector)
  /// and reusing out's storage.
  void batch_into(std::span<const std::size_t> local_positions,
                  DataSet::Batch& out) const;

 private:
  std::shared_ptr<const DataSet> dataset_;
  std::vector<std::size_t> indices_;
};

}  // namespace groupfel::data
