// Client data access for the trainer, independent of residency.
//
// ClientDataRef is a non-owning view of ONE client's training data that
// dispatches (without virtual calls) to either a resident ClientShard or a
// LazyShardSource that synthesizes batches on demand. The local update
// rules (algorithms/) take ClientDataRef, so the same SGD loop trains a
// 64-client resident federation and a million-client lazy one.
//
// ClientDataStore is the federation-wide container behind
// FederationTopology. Every store is built from a descriptor population
// (data::descriptor_partition): either its samples materialized into
// resident shards of one shared dataset, or a shared LazyShardSource
// (O(bytes) per client).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "data/client_descriptor.hpp"
#include "data/dataset.hpp"
#include "data/label_matrix.hpp"
#include "data/lazy_shard.hpp"

namespace groupfel::data {

class ClientDataRef {
 public:
  /// Implicit: existing call sites that hold a ClientShard keep working.
  ClientDataRef(const ClientShard& shard)  // NOLINT(runtime/explicit)
      : shard_(&shard) {}
  ClientDataRef(const LazyShardSource& source, std::size_t client)
      : lazy_(&source), client_(client) {}

  /// Local sample count n_c.
  [[nodiscard]] std::size_t size() const {
    return shard_ ? shard_->size() : lazy_->data_count(client_);
  }

  /// Materializes local positions into a caller-owned Batch (zero-alloc
  /// steady state; bit-identical across residency for descriptor-built
  /// federations).
  void batch_into(std::span<const std::size_t> local_positions,
                  DataSet::Batch& out) const {
    if (shard_)
      shard_->batch_into(local_positions, out);
    else
      lazy_->batch_into(client_, local_positions, out);
  }

 private:
  const ClientShard* shard_ = nullptr;
  const LazyShardSource* lazy_ = nullptr;
  std::size_t client_ = 0;
};

class ClientDataStore {
 public:
  ClientDataStore() = default;

  /// Resident shards materialized from a descriptor population (all of
  /// them views of one shared dataset). The label matrix comes from the
  /// population histograms (intended labels), so grouping matches the lazy
  /// store exactly.
  [[nodiscard]] static ClientDataStore resident(
      std::vector<ClientShard> shards, ClientPopulation population);

  /// O(bytes) per client: batches synthesized on demand.
  [[nodiscard]] static ClientDataStore lazy(
      std::shared_ptr<const LazyShardSource> source);

  [[nodiscard]] std::size_t num_clients() const noexcept {
    return lazy_ ? lazy_->num_clients() : shards_.size();
  }
  [[nodiscard]] bool is_lazy() const noexcept { return lazy_ != nullptr; }

  /// View of one client's data, whatever the residency.
  [[nodiscard]] ClientDataRef client(std::size_t c) const {
    if (lazy_) return {*lazy_, c};
    return {shards_.at(c)};
  }

  /// n_c without materializing anything.
  [[nodiscard]] std::size_t data_count(std::size_t c) const {
    return lazy_ ? lazy_->data_count(c) : shards_.at(c).size();
  }

  /// Resident shards; empty in lazy mode (benches that inspect shard
  /// internals must check is_lazy()).
  [[nodiscard]] const std::vector<ClientShard>& shards() const noexcept {
    return shards_;
  }
  [[nodiscard]] const LazyShardSource* lazy_source() const noexcept {
    return lazy_.get();
  }
  /// The descriptor table this store was built from.
  [[nodiscard]] const ClientPopulation& population() const noexcept {
    return lazy_ ? lazy_->population() : population_;
  }

  /// The §5.1 label matrix L for grouping, copied from the population
  /// histograms. `pool` parallelizes the copy (bit-identical for any pool).
  [[nodiscard]] LabelMatrix label_matrix(
      runtime::ThreadPool* pool = nullptr) const;

  /// Approximate resident bytes held by this store's client data: the
  /// descriptor table, plus the shared feature tensor and the index lists
  /// when resident, or the class prototypes when lazy. Reported by
  /// bench/scale_sim.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  std::vector<ClientShard> shards_;
  std::shared_ptr<const LazyShardSource> lazy_;
  /// Resident stores own their table; lazy ones read the source's.
  ClientPopulation population_;
};

}  // namespace groupfel::data
