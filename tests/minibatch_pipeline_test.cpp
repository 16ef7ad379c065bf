// Zero-alloc minibatch pipeline tests: gather_into/batch_into must copy
// exactly the selected rows, run_local_sgd's thread-local scratch must not
// leak state from an earlier call (a dirty scratch gives the same result as
// a fresh thread's), and steady-state calls must construct zero tensors.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "algorithms/local_trainer.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "nn/tensor.hpp"

namespace groupfel {
namespace {

std::shared_ptr<data::DataSet> make_dataset(std::size_t n,
                                            std::uint64_t seed = 3,
                                            std::size_t features = 8) {
  runtime::Rng rng(seed);
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.sample_shape = {features};
  return std::make_shared<data::DataSet>(data::make_synthetic(spec, n, rng));
}

void expect_batches_equal(const data::DataSet::Batch& a,
                          const data::DataSet::Batch& b) {
  ASSERT_EQ(a.features.shape(), b.features.shape());
  ASSERT_EQ(a.labels, b.labels);
  const auto va = a.features.data();
  const auto vb = b.features.data();
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
}

TEST(GatherInto, BitIdenticalToGather) {
  const auto ds = make_dataset(32);
  const std::vector<std::size_t> idx{5, 0, 31, 7, 7, 12};
  const data::DataSet::Batch fresh = ds->gather(idx);
  data::DataSet::Batch reused;
  ds->gather_into(idx, reused);
  expect_batches_equal(fresh, reused);
}

TEST(GatherInto, ReusedAcrossShrinkingAndGrowingBatches) {
  const auto ds = make_dataset(32);
  data::DataSet::Batch reused;
  // Full batch -> ragged tail -> full batch again: the buffer must track
  // the logical batch size while reusing capacity.
  for (const std::size_t n : {8UL, 3UL, 8UL, 1UL, 5UL}) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{2});
    ds->gather_into(idx, reused);
    expect_batches_equal(ds->gather(idx), reused);
  }
}

TEST(GatherInto, SteadyStateConstructsNoTensors) {
  const auto ds = make_dataset(32);
  std::vector<std::size_t> idx(8);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  data::DataSet::Batch reused;
  ds->gather_into(idx, reused);  // warm-up: capacity grows once
  const std::uint64_t c0 = nn::tensor_construction_count();
  for (int r = 0; r < 10; ++r) ds->gather_into(idx, reused);
  EXPECT_EQ(nn::tensor_construction_count(), c0);
}

TEST(BatchInto, BitIdenticalToBatch) {
  const auto ds = make_dataset(32);
  const std::vector<std::size_t> indices{9, 4, 22, 17, 30, 1};
  const data::ClientShard shard(ds, indices);
  const std::vector<std::size_t> pos{3, 0, 5, 2};
  data::DataSet::Batch reused;
  shard.batch_into(pos, reused);
  // Row i of the batch is dataset row indices[pos[i]], features and label.
  ASSERT_EQ(reused.features.shape(),
            (std::vector<std::size_t>{pos.size(), ds->sample_size()}));
  ASSERT_EQ(reused.labels.size(), pos.size());
  const std::size_t stride = ds->sample_size();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const std::size_t src = indices[pos[i]];
    EXPECT_EQ(reused.labels[i], ds->label(src)) << "row " << i;
    for (std::size_t f = 0; f < stride; ++f)
      EXPECT_EQ(reused.features.raw()[i * stride + f],
                ds->features().raw()[src * stride + f])
          << "row " << i << " feature " << f;
  }
}

// run_local_sgd keeps its permutation, batch and loss buffers in
// thread-local scratch across calls. A call after the scratch was used for
// a different shard size, batch size and feature width must match the same
// call on a thread whose scratch is brand new.
TEST(LocalSgd, DirtyScratchMatchesFreshThread) {
  const auto ds = make_dataset(64);
  std::vector<std::size_t> idx(64);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const data::ClientShard shard(ds, idx);

  algorithms::LocalTrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;

  nn::Model start = nn::make_mlp(8, 16, 4);
  runtime::Rng init(17);
  start.init(init);

  struct Run {
    double loss = 0.0;
    std::vector<float> params;
    std::uint64_t next_draw = 0;
  };
  const auto train = [&] {
    nn::Model model = start.clone();
    runtime::Rng rng(21);
    Run run;
    run.loss = algorithms::run_local_sgd(model, shard, cfg, rng, nullptr);
    run.params = model.flat_parameters();
    run.next_draw = rng.next_u64();
    return run;
  };

  {
    // Dirty this thread's scratch: 37 samples of width 12, batch size 5.
    const auto other = make_dataset(37, 11, 12);
    std::vector<std::size_t> other_idx(37);
    std::iota(other_idx.begin(), other_idx.end(), std::size_t{0});
    nn::Model other_model = nn::make_mlp(12, 16, 4);
    runtime::Rng other_init(19);
    other_model.init(other_init);
    algorithms::LocalTrainConfig other_cfg = cfg;
    other_cfg.batch_size = 5;
    runtime::Rng other_rng(23);
    (void)algorithms::run_local_sgd(
        other_model, data::ClientShard(other, other_idx), other_cfg,
        other_rng, nullptr);
  }
  const Run dirty = train();
  Run fresh;
  std::thread([&] { fresh = train(); }).join();

  EXPECT_EQ(dirty.loss, fresh.loss);
  ASSERT_EQ(dirty.params.size(), fresh.params.size());
  EXPECT_EQ(std::memcmp(dirty.params.data(), fresh.params.data(),
                        dirty.params.size() * sizeof(float)),
            0);
  EXPECT_EQ(dirty.next_draw, fresh.next_draw);
}

TEST(LocalSgd, SteadyStateConstructsNoTensors) {
  const auto ds = make_dataset(64);
  std::vector<std::size_t> idx(64);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const data::ClientShard shard(ds, idx);

  algorithms::LocalTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;

  nn::Model model = nn::make_mlp(8, 16, 4);
  runtime::Rng init(23);
  model.init(init);

  runtime::Rng rng(29);
  // Warm-up: thread-local scratch and layer buffers size themselves.
  (void)algorithms::run_local_sgd(model, shard, cfg, rng, nullptr);
  const std::uint64_t c0 = nn::tensor_construction_count();
  (void)algorithms::run_local_sgd(model, shard, cfg, rng, nullptr);
  EXPECT_EQ(nn::tensor_construction_count(), c0);
}

}  // namespace
}  // namespace groupfel
