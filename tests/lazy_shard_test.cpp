// Lazy client-state tests: deterministic per-sample regeneration, bit
// identity between the lazy and materialized-resident arms, and pool-size
// invariance of descriptor-backed training (the contracts bench/scale_sim
// and the million-client engine are built on).
#include "data/lazy_shard.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/edge_server.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "data/client_data.hpp"
#include "data/client_descriptor.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::data {
namespace {

PartitionSpec small_partition() {
  PartitionSpec part;
  part.num_clients = 24;
  part.alpha = 0.5;
  part.size_mean = 30;
  part.size_std = 10;
  part.size_min = 10;
  part.size_max = 50;
  return part;
}

SyntheticSpec small_spec() {
  SyntheticSpec spec;
  spec.num_classes = 10;
  spec.sample_shape = {8};
  spec.label_noise = 0.1;
  spec.modes_per_class = 2;
  return spec;
}

LazyShardSource make_source(std::uint64_t seed = 17) {
  runtime::Rng rng(seed);
  const SyntheticSpec spec = small_spec();
  return {spec, descriptor_partition(small_partition(), spec.num_classes, rng)};
}

void expect_batches_equal(const DataSet::Batch& a, const DataSet::Batch& b) {
  ASSERT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.features.data().size(), b.features.data().size());
  for (std::size_t i = 0; i < a.features.data().size(); ++i)
    ASSERT_EQ(a.features.data()[i], b.features.data()[i]) << "float " << i;
}

TEST(SampleStreamSeed, DistinctPerIndexAndDeterministic) {
  EXPECT_EQ(sample_stream_seed(42, 7), sample_stream_seed(42, 7));
  EXPECT_NE(sample_stream_seed(42, 7), sample_stream_seed(42, 8));
  EXPECT_NE(sample_stream_seed(42, 7), sample_stream_seed(43, 7));
}

TEST(LazyShardSource, RepeatedMaterializationBitIdentical) {
  const LazyShardSource source = make_source();
  for (std::size_t c = 0; c < source.num_clients(); c += 5) {
    const DataSet::Batch first = source.materialize_client(c);
    const DataSet::Batch second = source.materialize_client(c);
    expect_batches_equal(first, second);
  }
}

TEST(LazyShardSource, SameSeedSameClientAcrossSources) {
  // Two independently built sources from the same partition stream hold the
  // same descriptors, so every (seed, client) pair regenerates identically.
  const LazyShardSource a = make_source(99);
  const LazyShardSource b = make_source(99);
  for (std::size_t c = 0; c < a.num_clients(); ++c) {
    ASSERT_EQ(a.population().seed(c), b.population().seed(c));
    expect_batches_equal(a.materialize_client(c), b.materialize_client(c));
  }
}

TEST(LazyShardSource, BatchIntoMatchesAnyOrderAndSubset) {
  // Counter-based streams: positions can be materialized in any order and
  // any subset, matching the canonical full materialization entry-wise.
  const LazyShardSource source = make_source();
  const std::size_t c = 3;
  const DataSet::Batch full = source.materialize_client(c);
  const std::size_t dim = source.sample_size();

  std::vector<std::size_t> positions = {5, 0, 7, 2, 5};  // dup + shuffled
  DataSet::Batch out;
  source.batch_into(c, positions, out);
  ASSERT_EQ(out.labels.size(), positions.size());
  for (std::size_t row = 0; row < positions.size(); ++row) {
    const std::size_t j = positions[row];
    EXPECT_EQ(out.labels[row], full.labels[j]);
    for (std::size_t d = 0; d < dim; ++d)
      ASSERT_EQ(out.features.data()[row * dim + d],
                full.features.data()[j * dim + d]);
  }
}

TEST(LazyShardSource, MaterializedPopulationBitIdenticalToLazy) {
  const LazyShardSource source = make_source();
  const MaterializedPopulation mat = materialize_population(source);
  ASSERT_EQ(mat.shards.size(), source.num_clients());
  for (std::size_t c = 0; c < source.num_clients(); ++c) {
    std::vector<std::size_t> all(source.data_count(c));
    std::iota(all.begin(), all.end(), 0u);
    DataSet::Batch lazy, resident;
    source.batch_into(c, all, lazy);
    mat.shards[c].batch_into(all, resident);
    expect_batches_equal(lazy, resident);
  }
}

void fnv1a(std::uint64_t& h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

void hash_floats(std::uint64_t& h, std::span<const float> values) {
  for (const float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fnv1a(h, bits);
  }
}

void hash_batch(std::uint64_t& h, const DataSet::Batch& batch) {
  for (const auto label : batch.labels)
    fnv1a(h, static_cast<std::uint64_t>(label));
  hash_floats(h, batch.features.data());
}

/// Every synthesis entry point: lazy batches on shuffled positions (with a
/// duplicate), the resident population built from the same source, and a
/// make_synthetic set drawn from one shared stream. The odd-dim spec makes
/// make_synthetic carry a cached normal from one sample into the next.
/// Hashes are of the float bits, recorded on the scalar Box–Muller.
TEST(PinnedHashes, Synthesis) {
  SyntheticSpec odd = small_spec();
  odd.sample_shape = {7};
  odd.modes_per_class = 3;
  odd.noise_scale = 1.3;
  struct Case {
    const char* name;
    SyntheticSpec spec;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"cifar", cifar_like_spec(false), 0x0e4549fcb115b158ull},
      {"cifar_image", cifar_like_spec(true), 0x97edad3032855df6ull},
      {"sc", sc_like_spec(false), 0x233870b35e65af8eull},
      {"sc_image", sc_like_spec(true), 0x51ae2cfb9e1e51cbull},
      {"odd7", odd, 0x427c77b3d3c2bd80ull}};
  for (const Case& c : cases) {
    runtime::Rng part_rng(31);
    const LazyShardSource source(
        c.spec, descriptor_partition(small_partition(), c.spec.num_classes,
                                     part_rng));
    std::uint64_t h = 0xcbf29ce484222325ull;
    runtime::Rng order_rng(37);
    DataSet::Batch batch;
    for (std::size_t client = 0; client < source.num_clients(); client += 5) {
      std::vector<std::size_t> positions(source.data_count(client));
      std::iota(positions.begin(), positions.end(), std::size_t{0});
      order_rng.shuffle(positions);
      positions.push_back(positions.front());
      source.batch_into(client, positions, batch);
      hash_batch(h, batch);
    }
    const MaterializedPopulation mat = materialize_population(source);
    hash_floats(h, mat.dataset->features().data());
    for (const auto label : mat.dataset->labels())
      fnv1a(h, static_cast<std::uint64_t>(label));
    runtime::Rng set_rng(41);
    const DataSet set = make_synthetic(c.spec, 101, set_rng);
    hash_floats(h, set.features().data());
    for (const auto label : set.labels())
      fnv1a(h, static_cast<std::uint64_t>(label));
    fnv1a(h, set_rng.next_u64());
    EXPECT_EQ(h, c.hash) << c.name << ": 0x" << std::hex << h;
  }
}

TEST(DescriptorPartition, DeterministicInSeed) {
  runtime::Rng rng_a(5), rng_b(5);
  const ClientPopulation a =
      descriptor_partition(small_partition(), 10, rng_a);
  const ClientPopulation b =
      descriptor_partition(small_partition(), 10, rng_b);
  ASSERT_EQ(a.num_clients(), b.num_clients());
  for (std::size_t c = 0; c < a.num_clients(); ++c) {
    EXPECT_EQ(a.data_count(c), b.data_count(c));
    EXPECT_EQ(a.seed(c), b.seed(c));
    const auto ca = a.label_counts(c), cb = b.label_counts(c);
    for (std::size_t k = 0; k < ca.size(); ++k) EXPECT_EQ(ca[k], cb[k]);
  }
}

TEST(DescriptorPartition, HistogramMatchesIntendedClassLayout) {
  const LazyShardSource source = make_source();
  const ClientPopulation& pop = source.population();
  const PartitionSpec part = small_partition();
  for (std::size_t c = 0; c < pop.num_clients(); ++c) {
    EXPECT_GE(pop.data_count(c), part.size_min) << "client " << c;
    EXPECT_LE(pop.data_count(c), part.size_max) << "client " << c;
  }
  for (std::size_t c = 0; c < pop.num_clients(); c += 7) {
    std::vector<std::size_t> seen(pop.num_classes(), 0);
    for (std::size_t j = 0; j < pop.data_count(c); ++j)
      ++seen[pop.intended_class(c, j)];
    const auto counts = pop.label_counts(c);
    for (std::size_t k = 0; k < counts.size(); ++k)
      EXPECT_EQ(seen[k], counts[k]);
  }
}

// Training through the lazy store must be bit-identical for ANY thread-pool
// size — each sample's RNG stream is keyed by (client seed, local index),
// never by which thread synthesizes it.
TEST(LazyTraining, PoolSizeInvariant) {
  core::ExperimentSpec spec;
  spec.num_clients = 48;
  spec.num_edges = 2;
  spec.size_mean = 30;
  spec.size_std = 10;
  spec.size_min = 10;
  spec.size_max = 50;
  spec.test_size = 100;
  spec.mlp_hidden = 16;
  spec.seed = 11;
  spec.client_state = core::ClientStateMode::kLazy;
  const core::Experiment exp = core::build_experiment(spec);

  core::GroupFelConfig cfg;
  cfg.global_rounds = 2;
  cfg.group_rounds = 2;
  cfg.local_epochs = 1;
  cfg.sampled_groups = 3;
  cfg.local.batch_size = 8;
  cfg.grouping_params.min_group_size = 5;
  cfg.seed = 123;
  const auto model =
      core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg);

  std::vector<float> reference;
  for (const std::size_t workers : {0u, 2u, 24u}) {
    runtime::ThreadPool pool(workers);
    core::GroupFelTrainer trainer(exp.topology, cfg, model, &pool);
    const core::TrainResult result = trainer.train();
    if (reference.empty()) {
      reference = result.final_params;
      continue;
    }
    ASSERT_EQ(reference.size(), result.final_params.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      ASSERT_EQ(reference[i], result.final_params[i])
          << "param " << i << " diverged at pool size " << workers;
  }
}

TEST(GroupSizeHistogram, CountsGroupsBySize) {
  std::vector<core::FormedGroup> groups(4);
  groups[0].clients = {1, 2, 3};
  groups[1].clients = {4, 5};
  groups[2].clients = {6, 7, 8};
  groups[3].clients = {9, 10, 11, 12, 13};
  const std::vector<std::size_t> hist = core::group_size_histogram(groups);
  ASSERT_EQ(hist.size(), 6u);
  EXPECT_EQ(hist[0], 0u);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[3], 2u);
  EXPECT_EQ(hist[5], 1u);
}

}  // namespace
}  // namespace groupfel::data
