#include "data/client_data.hpp"

namespace groupfel::data {

ClientDataStore ClientDataStore::resident(std::vector<ClientShard> shards,
                                          ClientPopulation population) {
  ClientDataStore store;
  store.shards_ = std::move(shards);
  store.population_ = std::move(population);
  return store;
}

ClientDataStore ClientDataStore::lazy(
    std::shared_ptr<const LazyShardSource> source) {
  ClientDataStore store;
  store.lazy_ = std::move(source);
  return store;
}

LabelMatrix ClientDataStore::label_matrix(runtime::ThreadPool* pool) const {
  return LabelMatrix::from_population(population(), pool);
}

std::size_t ClientDataStore::resident_bytes() const {
  const ClientPopulation& pop = population();
  std::size_t bytes = pop.num_clients() * pop.bytes_per_client();
  if (lazy_)
    return bytes + lazy_->sample_size() * lazy_->num_classes() *
                       lazy_->spec().modes_per_class * sizeof(float);
  for (const auto& shard : shards_)
    bytes += shard.indices().size() * sizeof(std::size_t);
  if (!shards_.empty()) {
    // Every shard is a view of the one materialized dataset.
    const DataSet& ds = shards_.front().dataset();
    bytes += ds.features().size() * sizeof(float) +
             ds.labels().size() * sizeof(std::int32_t);
  }
  return bytes;
}

}  // namespace groupfel::data
