// The full Algorithm 1 loop must be bit-identical across pool sizes, and
// the per-thread model replicas it trains on must carry no state from one
// client to the next. Any divergence here means a performance change
// silently altered simulation semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "algorithms/local_trainer.hpp"
#include "core/cloud.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "nn/serialize.hpp"
#include "runtime/replica_cache.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "sampling/weights.hpp"

namespace groupfel::core {
namespace {

ExperimentSpec tiny_spec(std::uint64_t seed = 21) {
  ExperimentSpec spec;
  spec.num_clients = 24;
  spec.num_edges = 2;
  spec.alpha = 0.2;
  spec.size_mean = 24;
  spec.size_std = 6;
  spec.size_min = 12;
  spec.size_max = 36;
  spec.test_size = 400;
  spec.mlp_hidden = 32;
  spec.seed = seed;
  return spec;
}

GroupFelConfig tiny_cfg() {
  GroupFelConfig cfg;
  cfg.global_rounds = 3;
  cfg.group_rounds = 2;
  cfg.local_epochs = 1;
  cfg.local.lr = 0.1f;
  cfg.local.batch_size = 8;
  cfg.sampled_groups = 3;
  cfg.grouping_params.min_group_size = 4;
  cfg.grouping_params.max_cov = 0.6;
  cfg.eval_every = 1;
  cfg.seed = 77;
  return cfg;
}

cost::CostModel tiny_cost() {
  return build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg);
}

TrainResult run_with_pool(const Experiment& exp, const GroupFelConfig& cfg,
                          std::size_t threads) {
  runtime::ThreadPool pool(threads);
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost(), &pool);
  return trainer.train();
}

void expect_identical(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].accuracy, b.history[i].accuracy);
    EXPECT_DOUBLE_EQ(a.history[i].test_loss, b.history[i].test_loss);
    EXPECT_DOUBLE_EQ(a.history[i].train_loss, b.history[i].train_loss);
  }
}

void expect_pool_invariant(const Experiment& exp, const GroupFelConfig& cfg) {
  const TrainResult serial = run_with_pool(exp, cfg, 0);
  expect_identical(serial, run_with_pool(exp, cfg, 2));
  expect_identical(serial, run_with_pool(exp, cfg, 24));
}

GroupFelConfig fedclar_cfg() {
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedClar, cfg);
  cfg.fedclar.cluster_round = 1;
  cfg.global_rounds = 3;
  return cfg;
}

TEST(TrainerDeterminism, BitIdenticalAcrossPoolSizes) {
  const Experiment exp = build_experiment(tiny_spec());
  expect_pool_invariant(exp, tiny_cfg());
  // FedCLAR's sub-groups (one per sampled group and cluster) train in
  // parallel and merge per cluster.
  expect_pool_invariant(exp, fedclar_cfg());
}

std::vector<float> random_params(std::size_t dim, runtime::Rng& rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void expect_same_bits_as(const std::vector<float>& expected,
                         std::span<const float> got) {
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(expected[i], got[i]) << "param " << i;
}

// The trainer's edge (Algorithm 1 line 14) and cloud (line 15) steps run the
// fixed-shape parallel reduction in place. The serial copy-chain they
// replaced is rebuilt here from public APIs (nn::weighted_average over
// owned vectors, with the cloud weights from sampling::aggregation_weights)
// and must agree bitwise for every pool size and aggregation mode.
TEST(TrainerDeterminism, LegacyAndOptimizedPathsAgree) {
  const Experiment exp = build_experiment(tiny_spec());
  const GroupFelConfig cfg = tiny_cfg();
  runtime::ThreadPool inline_pool(0);
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost(), &inline_pool);
  const std::vector<FormedGroup>& groups = trainer.groups();
  ASSERT_GE(groups.size(), 2u);
  const std::size_t dim = exp.topology.model_factory().param_count();
  ASSERT_GT(dim, 0u);
  runtime::Rng rng(9);

  // Edge step: members weighted by n_i / n_g.
  const FormedGroup& group = groups.front();
  std::vector<std::vector<float>> members;
  std::vector<double> member_w;
  for (const std::size_t cid : group.clients) {
    members.push_back(random_params(dim, rng));
    member_w.push_back(
        static_cast<double>(exp.topology.clients.data_count(cid)) /
        static_cast<double>(group.data_count));
  }
  const std::vector<float> edge_legacy = nn::weighted_average(members, member_w);
  const std::vector<std::span<const float>> member_views(members.begin(),
                                                         members.end());

  // Cloud step: every group sampled once, one model per sampled group.
  std::vector<FormedGroup> cloud_groups = groups;
  std::vector<std::size_t> sampled;
  std::vector<std::size_t> sizes;
  std::vector<std::vector<float>> group_models;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    sampled.push_back(g);
    sizes.push_back(groups[g].data_count);
    group_models.push_back(random_params(dim, rng));
  }
  const std::vector<std::span<const float>> group_views(group_models.begin(),
                                                        group_models.end());

  for (const std::size_t threads : {0, 2, 24}) {
    SCOPED_TRACE(threads);
    runtime::ThreadPool pool(threads);
    std::vector<float> out(dim);
    nn::weighted_average_into(out, member_views, member_w, &pool);
    expect_same_bits_as(edge_legacy, out);

    for (const auto mode : {sampling::AggregationMode::kBiased,
                            sampling::AggregationMode::kUnbiased,
                            sampling::AggregationMode::kStabilized}) {
      SCOPED_TRACE(sampling::to_string(mode));
      Cloud cloud(cfg.sampling, mode);
      cloud.set_groups(cloud_groups, &pool);
      const std::vector<float> cloud_legacy = nn::weighted_average(
          group_models, sampling::aggregation_weights(
                            mode, sampled, cloud.probabilities(), sizes));
      cloud.aggregate_into(out, sampled, group_views, &pool);
      expect_same_bits_as(cloud_legacy, out);
    }
  }
}

/// The trainer's stream key: (a*P + b)*P + c with P = 1000003.
std::uint64_t stream_tag(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return (a * 1000003ull + b) * 1000003ull + c;
}

// FedCLAR merges each cluster's sub-group models through
// nn::weighted_average_into, weighted by data count. With a merge threshold
// above the largest cosine distance (2) every client joins one cluster, so
// after one post-clustering round the trainer's final model IS that
// cluster's merge. The round is rebuilt here from public APIs: the sampled
// groups (Cloud::sample on the trainer's round-0 stream), each member's
// local SGD from the starting model on its (round, group, k, client)
// stream, the edge average by n_i/n_g, and the cluster merge by
// n_g / sum n_g in job order.
TEST(TrainerDeterminism, FedClarClusterMergeMatchesRebuild) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedClar, cfg);
  cfg.fedclar.cluster_round = 0;
  cfg.fedclar.merge_threshold = 3.0;
  cfg.global_rounds = 1;
  cfg.group_rounds = 1;

  runtime::ThreadPool inline_pool(0);
  GroupFelConfig init_cfg = cfg;
  init_cfg.global_rounds = 0;  // no round runs: final_params = initial model
  GroupFelTrainer init_trainer(exp.topology, init_cfg, tiny_cost(),
                               &inline_pool);
  const std::vector<float> start = init_trainer.train().final_params;
  const std::vector<FormedGroup> groups = init_trainer.groups();

  Cloud cloud(cfg.sampling, cfg.aggregation);
  cloud.set_groups(groups, &inline_pool);
  runtime::Rng sample_rng =
      runtime::Rng(cfg.seed).fork(stream_tag(0x5a3bull, 0, 0));
  const std::vector<std::size_t> sampled =
      cloud.sample(cfg.sampled_groups, sample_rng);
  ASSERT_GE(sampled.size(), 2u);

  algorithms::LocalTrainConfig local_cfg = cfg.local;
  local_cfg.epochs = cfg.local_epochs;
  algorithms::SgdRule rule;
  const data::ClientDataStore& clients = exp.topology.clients;
  std::vector<std::vector<float>> group_models;
  std::vector<double> group_data;
  double cluster_data = 0.0;
  for (const std::size_t gi : sampled) {
    const FormedGroup& group = groups[gi];
    const std::uint64_t tag = gi * 31 /* + cluster 0 */;
    std::vector<std::vector<float>> locals;
    std::vector<double> member_data;
    double surviving = 0.0;
    for (const std::size_t cid : group.clients) {
      nn::Model model = exp.topology.model_factory();
      model.set_flat_parameters(start);
      runtime::Rng client_rng =
          runtime::Rng(cfg.seed).fork(stream_tag(0, tag * 131, cid));
      (void)rule.train_client(model, clients.client(cid), start, cid,
                              local_cfg, client_rng);
      locals.push_back(model.flat_parameters());
      member_data.push_back(static_cast<double>(clients.data_count(cid)));
      surviving += member_data.back();
    }
    for (double& w : member_data) w /= surviving;
    const std::vector<std::span<const float>> views(locals.begin(),
                                                    locals.end());
    group_models.push_back(start);
    nn::weighted_average_into(group_models.back(), views, member_data);
    group_data.push_back(surviving);
    cluster_data += group_data.back();
  }
  for (double& w : group_data) w /= cluster_data;
  const std::vector<std::span<const float>> group_views(group_models.begin(),
                                                        group_models.end());
  std::vector<float> merged(start.size());
  nn::weighted_average_into(merged, group_views, group_data);

  for (const std::size_t threads : {0, 2, 24}) {
    SCOPED_TRACE(threads);
    const TrainResult result = run_with_pool(exp, cfg, threads);
    expect_same_bits_as(merged, result.final_params);
  }
}

// Dropout exercises the survivor renormalization plus the stale-loss zeroing
// (a member dropped in round k must not resubmit its round k-1 loss).
TEST(TrainerDeterminism, DropoutPathsAgreeAndLossesAreFresh) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.client_dropout_rate = 0.3;
  expect_pool_invariant(exp, cfg);
}

// FLAME builds each update in place and lends the buffer to the filter.
TEST(TrainerDeterminism, FlameDefensePathsAgree) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 2;
  cfg.backdoor.defense = true;
  expect_pool_invariant(exp, cfg);
}

// Secagg scales each member's buffer in place before masking.
TEST(TrainerDeterminism, SecAggInPlaceScalingAgrees) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 1;
  cfg.sampled_groups = 2;
  cfg.use_real_secagg = true;
  expect_pool_invariant(exp, cfg);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The trainer resets a thread's replica with set_flat_parameters and trains
// the next client on it. Whatever client A left behind (gradients, layer
// activation caches, optimizer state) must not reach client B: B trained on
// the reused replica equals B trained on a fresh clone of the prototype.
TEST(TrainerDeterminism, ReusedReplicaLeaksNoStateBetweenClients) {
  const Experiment exp = build_experiment(tiny_spec());
  const data::ClientDataStore& clients = exp.topology.clients;
  nn::Model prototype = exp.topology.model_factory();
  runtime::Rng init(5);
  prototype.init(init);
  const std::vector<float> start = prototype.flat_parameters();
  // A different shard size leaves differently shaped ragged-tail state.
  const std::size_t client_a = 0;
  std::size_t client_b = 1;
  while (clients.data_count(client_b) == clients.data_count(client_a))
    ++client_b;

  for (const float momentum : {0.0f, 0.9f}) {
    SCOPED_TRACE(momentum);
    algorithms::LocalTrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 8;
    cfg.lr = 0.1f;
    cfg.momentum = momentum;
    algorithms::SgdRule rule;

    runtime::ModelReplicaCache<nn::Model> replicas(prototype);
    nn::Model& replica = replicas.local();
    replica.set_flat_parameters(start);
    runtime::Rng rng_a(41);
    (void)rule.train_client(replica, clients.client(client_a), start,
                            client_a, cfg, rng_a);
    ASSERT_FALSE(same_bits(replica.flat_parameters(), start));

    replica.set_flat_parameters(start);
    runtime::Rng rng_reused(43);
    const double loss_reused = rule.train_client(
        replica, clients.client(client_b), start, client_b, cfg, rng_reused);

    nn::Model fresh = prototype.clone();
    fresh.set_flat_parameters(start);
    runtime::Rng rng_fresh(43);
    const double loss_fresh = rule.train_client(
        fresh, clients.client(client_b), start, client_b, cfg, rng_fresh);

    EXPECT_EQ(loss_reused, loss_fresh);
    EXPECT_TRUE(same_bits(replica.flat_parameters(), fresh.flat_parameters()));
    EXPECT_EQ(rng_reused.next_u64(), rng_fresh.next_u64());
    EXPECT_EQ(replicas.clone_count(), 1u);
  }
}

TEST(TrainerDeterminism, ParallelSecAggMaskingWithDropoutAcrossPools) {
  // Members mask concurrently; dropout makes the server recover masks from
  // Shamir shares, and the fp16 wire narrows the fixed-point encoder.
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 2;
  cfg.use_real_secagg = true;
  cfg.client_dropout_rate = 0.2;
  cfg.precision.wire = compression::Codec::kFp16;
  expect_pool_invariant(exp, cfg);
}

// Trained weights, pinned: FNV-1a over the final_params bits. The MLP cases
// put local SGD on both sides of the GEMM dispatch's skinny-row cut (batch 8
// and 32 rows) at two widths; the CNN5 case covers the conv im2col path.
// Every case must give the same bits with an inline pool and with two
// workers. A kernel change that moves trained low bits is a re-baseline:
// update the values here and say so. A build whose kernels contract a*b + c
// into FMAs rounds differently from one without, so each pins its own
// column (this TU is compiled with the kernels' native ISA).
TEST(PinnedHashes, TrainedParams) {
  struct Case {
    ModelKind model;
    std::size_t batch, hidden;
    std::uint64_t fma_hash, portable_hash;
  };
  const Case cases[] = {
      {ModelKind::kMlp, 8, 32, 0x5cb0f8b6f644dee5ull,
       0xb98625da02fe6165ull},
      {ModelKind::kMlp, 8, 64, 0x202588dfaaf2f51bull,
       0xa23465b32f9dc7c8ull},
      {ModelKind::kMlp, 32, 32, 0x19dcf7d24a376b96ull,
       0x516f4d20a6557817ull},
      {ModelKind::kMlp, 32, 64, 0x5d4e300804277280ull,
       0xf81ae049f82c41e8ull},
      {ModelKind::kCnn5, 8, 0, 0xa583ca5b04a790eeull,
       0xc8215129544e5721ull}};
  for (const Case& c : cases) {
    ExperimentSpec spec = tiny_spec();
    GroupFelConfig cfg = tiny_cfg();
    cfg.local.batch_size = c.batch;
    if (c.model == ModelKind::kMlp) {
      spec.mlp_hidden = c.hidden;
    } else {
      spec.task = cost::Task::kSpeechCommands;
      spec.model = c.model;
      spec.num_clients = 8;
      spec.size_mean = 12;
      spec.size_std = 2;
      spec.size_min = 8;
      spec.size_max = 16;
      spec.test_size = 60;
      cfg.global_rounds = 2;
      cfg.group_rounds = 1;
      cfg.sampled_groups = 2;
      cfg.local.lr = 0.05f;
      cfg.grouping_params.min_group_size = 3;
    }
#ifdef __FMA__
    const std::uint64_t want = c.fma_hash;
#else
    const std::uint64_t want = c.portable_hash;
#endif
    const Experiment exp = build_experiment(spec);
    for (const std::size_t threads : {0, 2}) {
      const std::vector<float> params =
          run_with_pool(exp, cfg, threads).final_params;
      const std::uint64_t h = nn::fnv1a(std::as_bytes(std::span(params)));
      EXPECT_EQ(h, want) << "model " << static_cast<int>(c.model) << " batch "
                         << c.batch << " hidden " << c.hidden << " pool "
                         << threads << ": 0x" << std::hex << h;
    }
  }
}

TEST(TrainerDeterminism, SteadyStateAddsNoModelConstructions) {
  const Experiment exp = build_experiment(tiny_spec());
  const GroupFelConfig cfg = tiny_cfg();
  runtime::ThreadPool pool(0);  // inline: the participating-thread set is fixed
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost(), &pool);
  const TrainResult first = trainer.train();
  EXPECT_EQ(trainer.replica_clone_count(), 1u);
  EXPECT_EQ(trainer.replica_thread_count(), 1u);
  const TrainResult second = trainer.train();
  EXPECT_EQ(trainer.replica_clone_count(), 1u);
  expect_identical(first, second);
}

}  // namespace
}  // namespace groupfel::core
