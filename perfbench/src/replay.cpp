#include "replay.hpp"

#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "backdoor/flame.hpp"
#include "compression/compressor.hpp"
#include "core/edge_server.hpp"
#include "core/evaluator.hpp"
#include "data/client_descriptor.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "runtime/replica_cache.hpp"
#include "secagg/secure_aggregator.hpp"

namespace perfbench {

namespace core = groupfel::core;
namespace data = groupfel::data;
namespace nn = groupfel::nn;
using groupfel::runtime::Rng;
using groupfel::runtime::ThreadPool;

namespace {

// Stream domains of the replay.
constexpr std::uint64_t kMirrorStream = 0x6d697272;  // "mirr"
constexpr std::uint64_t kPartStream = 0x70617274;    // "part"
constexpr std::uint64_t kGroupStream = 0x67727073;   // "grps"
constexpr std::uint64_t kInitStream = 0x696e6974;    // "init"
constexpr std::uint64_t kSampleStream = 0x73616d70;  // "samp"
constexpr std::uint64_t kDropStream = 0x64726f70;    // "drop"
constexpr std::uint64_t kClientStream = 0x636c6e74;  // "clnt"
constexpr std::uint64_t kWireStream = 0x77697265;    // "wire"
constexpr std::uint64_t kFlameStream = 0x666c616d;   // "flam"
constexpr std::uint64_t kSecaggStream = 0x73656361;  // "seca"

struct SgdScratch {
  std::vector<std::size_t> order;
  data::DataSet::Batch batch;
  nn::LossResult loss;
};

void add(std::atomic<std::uint64_t>& counter, std::uint64_t v) {
  counter.fetch_add(v, std::memory_order_relaxed);
}

/// One sampled group's K group rounds, as GroupFelTrainer::run_group does
/// them: dropout and quorum, members trained in parallel, the attack, the
/// uplink wire codec, then FLAME, secure aggregation or the weighted
/// average.
class GroupReplay {
 public:
  GroupReplay(const Workload& w, const core::FederationTopology& topology,
              std::uint64_t seed, ThreadPool& pool,
              groupfel::runtime::ModelReplicaCache<nn::Model>& replicas,
              Tracer& tracer, Counters& counters)
      : cfg_(w.cfg),
        topo_(topology),
        seed_(seed),
        pool_(pool),
        replicas_(replicas),
        tracer_(tracer),
        counters_(counters) {
    local_ = cfg_.local;
    local_.epochs = cfg_.local_epochs;
  }

  std::vector<float> run(const core::FormedGroup& group,
                         const std::vector<float>& start, std::size_t round,
                         std::size_t group_index, SpanId group_span) const {
    std::vector<float> params = start;
    if (group.data_count == 0) return params;
    const std::size_t members = group.clients.size();
    const std::size_t dim = params.size();
    std::vector<std::vector<float>> locals(members, std::vector<float>(dim));
    std::vector<bool> dropped(members, false);
    std::vector<std::size_t> survivors;

    for (std::size_t k = 0; k < cfg_.group_rounds; ++k) {
      std::fill(dropped.begin(), dropped.end(), false);
      survivors.clear();
      if (cfg_.client_dropout_rate > 0.0) {
        Rng drop = bench_stream(seed_, kDropStream, round, group_index, k);
        for (std::size_t m = 0; m < members; ++m)
          dropped[m] = drop.next_double() < cfg_.client_dropout_rate;
      }
      for (std::size_t m = 0; m < members; ++m)
        if (!dropped[m]) survivors.push_back(m);
      if (survivors.size() < (2 * members + 2) / 3) {
        if (cfg_.use_real_secagg) {
          add(counters_.secagg_group_rounds, 1);
          add(counters_.secagg_aborts, 1);
        }
        continue;
      }

      pool_.parallel_for(members, [&](std::size_t m) {
        if (dropped[m]) return;
        const ScopedSpan span(&tracer_, SpanKind::kTrainClient, group_span);
        const std::size_t cid = group.clients[m];
        Rng rng =
            bench_stream(seed_, kClientStream, round, group_index, k, cid);
        nn::Model& model = replicas_.local();
        model.set_flat_parameters(params);
        (void)mirror_local_sgd(model, topo_.clients.client(cid), local_, rng,
                               &tracer_, span.id(), &counters_);
        model.flat_parameters_into(locals[m]);
        add(counters_.client_updates, 1);
      });

      if (cfg_.backdoor.attack && !topo_.malicious.empty()) {
        const auto scale = static_cast<float>(cfg_.backdoor.attack_scale);
        for (auto m : survivors) {
          if (!topo_.malicious[group.clients[m]]) continue;
          for (std::size_t i = 0; i < dim; ++i)
            locals[m][i] = params[i] - scale * (locals[m][i] - params[i]);
        }
      }

      const auto codec = cfg_.precision.wire;
      add(counters_.uplink_bytes,
          survivors.size() * dim * groupfel::compression::code_bytes(codec));
      if (codec != groupfel::compression::Codec::kFloat32) {
        for (auto m : survivors) {
          const ScopedSpan span(&tracer_, SpanKind::kWire, group_span);
          const std::uint64_t wire_seed =
              bench_stream(seed_, kWireStream, round, group_index, k,
                           group.clients[m])
                  .next_u64();
          for (std::size_t i = 0; i < dim; ++i) locals[m][i] -= params[i];
          groupfel::compression::wire_round_trip(locals[m], codec, wire_seed);
          for (std::size_t i = 0; i < dim; ++i) locals[m][i] += params[i];
        }
      }

      if (cfg_.backdoor.defense) {
        flame(locals, survivors, params, round, group_index, k, group_span);
        continue;
      }

      double surviving_data = 0.0;
      for (auto m : survivors)
        surviving_data +=
            static_cast<double>(topo_.clients.data_count(group.clients[m]));
      if (surviving_data <= 0.0) continue;
      std::vector<double> weights;
      for (auto m : survivors)
        weights.push_back(
            static_cast<double>(topo_.clients.data_count(group.clients[m])) /
            surviving_data);

      if (cfg_.use_real_secagg) {
        secure_aggregate(locals, survivors, weights, params, round,
                         group_index, k, group_span);
      } else {
        const ScopedSpan span(&tracer_, SpanKind::kGroupAverage, group_span);
        std::vector<std::span<const float>> views;
        for (auto m : survivors) views.emplace_back(locals[m]);
        nn::weighted_average_into(params, views, weights, &pool_);
      }
    }
    return params;
  }

 private:
  void flame(std::vector<std::vector<float>>& locals,
             const std::vector<std::size_t>& survivors,
             std::vector<float>& params, std::size_t round,
             std::size_t group_index, std::size_t k,
             SpanId group_span) const {
    std::vector<std::vector<float>> updates;
    updates.reserve(survivors.size());
    for (auto m : survivors) {
      for (std::size_t i = 0; i < params.size(); ++i)
        locals[m][i] -= params[i];
      updates.push_back(std::move(locals[m]));
    }
    Rng rng = bench_stream(seed_, kFlameStream, round, group_index, k);
    groupfel::backdoor::FlameResult filtered;
    {
      const ScopedSpan span(&tracer_, SpanKind::kFlame, group_span);
      filtered = groupfel::backdoor::flame_filter(updates, cfg_.backdoor.flame,
                                                  rng);
    }
    add(counters_.flame_submitted, survivors.size());
    add(counters_.flame_accepted, survivors.size() - filtered.num_rejected);
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i] += filtered.aggregated[i];
    for (std::size_t s = 0; s < survivors.size(); ++s)
      locals[survivors[s]] = std::move(updates[s]);
  }

  void secure_aggregate(std::vector<std::vector<float>>& locals,
                        const std::vector<std::size_t>& survivors,
                        const std::vector<double>& weights,
                        std::vector<float>& params, std::size_t round,
                        std::size_t group_index, std::size_t k,
                        SpanId group_span) const {
    const std::size_t members = locals.size();
    add(counters_.secagg_group_rounds, 1);
    Rng rng = bench_stream(seed_, kSecaggStream, round, group_index, k);
    groupfel::secagg::SecAggConfig sa;
    sa.round_tag = rng.next_u64() & 0xFFFFFFFFull;
    sa.frac_bits = core::secagg_frac_bits(cfg_.precision.wire);
    std::optional<groupfel::secagg::SecureAggregator> agg;
    {
      const ScopedSpan span(&tracer_, SpanKind::kSecaggSetup, group_span);
      agg.emplace(members, params.size(), sa, rng);
    }
    std::vector<std::optional<std::vector<groupfel::secagg::Fe>>> slots(
        members);
    for (std::size_t s = 0; s < survivors.size(); ++s) {
      const std::size_t m = survivors[s];
      const auto w = static_cast<float>(weights[s]);
      for (auto& v : locals[m]) v *= w;
      const ScopedSpan span(&tracer_, SpanKind::kSecaggMask, group_span);
      slots[m] = agg->client_masked_input(m, locals[m]);
    }
    const ScopedSpan span(&tracer_, SpanKind::kSecaggUnmask, group_span);
    try {
      params = agg->aggregate(slots);
      add(counters_.secagg_recovered, members - survivors.size());
    } catch (const std::runtime_error&) {
      add(counters_.secagg_aborts, 1);  // below threshold: model carries over
    }
  }

  const core::GroupFelConfig& cfg_;
  const core::FederationTopology& topo_;
  std::uint64_t seed_;
  ThreadPool& pool_;
  groupfel::runtime::ModelReplicaCache<nn::Model>& replicas_;
  Tracer& tracer_;
  Counters& counters_;
  groupfel::algorithms::LocalTrainConfig local_;
};

}  // namespace

std::uint64_t forward_macs_per_sample(const nn::Model& model) {
  std::uint64_t macs = 0;
  for (std::size_t i = 0; i < model.layer_count(); ++i)
    if (const auto* lin = dynamic_cast<const nn::Linear*>(&model.layer(i)))
      macs += lin->in_features() * lin->out_features();
  return macs;
}

double mirror_local_sgd(nn::Model& model, data::ClientDataRef data,
                        const groupfel::algorithms::LocalTrainConfig& cfg,
                        Rng& rng, Tracer* tracer, SpanId parent,
                        Counters* counters) {
  if (data.size() == 0) return 0.0;
  nn::SgdOptimizer opt({.lr = cfg.lr,
                        .momentum = cfg.momentum,
                        .weight_decay = cfg.weight_decay});
  thread_local SgdScratch scratch;
  std::vector<std::size_t>& order = scratch.order;
  order.resize(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Forward 2 flops per MAC, backward 4 (input and weight gradients).
  const std::uint64_t flops_per_sample =
      counters ? 6 * forward_macs_per_sample(model) : 0;

  double loss_sum = 0.0;
  std::size_t loss_batches = 0;
  model.zero_grad();
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      const std::span<const std::size_t> batch_idx(order.data() + start,
                                                   end - start);
      {
        const ScopedSpan span(tracer, SpanKind::kBatch, parent);
        data.batch_into(batch_idx, scratch.batch);
      }
      const nn::Tensor* logits = nullptr;
      {
        const ScopedSpan span(tracer, SpanKind::kForward, parent);
        logits = &model.forward(scratch.batch.features, /*train=*/true);
      }
      {
        const ScopedSpan span(tracer, SpanKind::kLoss, parent);
        nn::softmax_cross_entropy_into(*logits, scratch.batch.labels,
                                       scratch.loss);
      }
      {
        const ScopedSpan span(tracer, SpanKind::kBackward, parent);
        model.backward(scratch.loss.grad);
      }
      {
        const ScopedSpan span(tracer, SpanKind::kOptimizer, parent);
        opt.step(model, nullptr, /*zero_grads=*/true);
      }
      loss_sum += scratch.loss.loss;
      ++loss_batches;
      if (counters) {
        add(counters->samples, end - start);
        add(counters->steps, 1);
        add(counters->flops, flops_per_sample * (end - start));
      }
    }
  }
  return loss_batches > 0 ? loss_sum / static_cast<double>(loss_batches) : 0.0;
}

std::size_t mirror_gate(const core::FederationTopology& topology,
                        const core::GroupFelConfig& cfg,
                        std::span<const float> start, std::size_t clients,
                        std::uint64_t seed) {
  groupfel::algorithms::LocalTrainConfig local = cfg.local;
  local.epochs = cfg.local_epochs;
  const std::size_t n = topology.clients.num_clients();
  const nn::Model prototype = topology.model_factory();
  groupfel::algorithms::SgdRule rule;
  std::size_t differ = 0;
  for (std::size_t j = 0; j < clients; ++j) {
    const std::size_t cid = j * n / clients;
    const Rng rng = bench_stream(seed, kMirrorStream, cid);
    Rng rng_rule = rng, rng_mirror = rng;
    nn::Model a = prototype.clone();
    nn::Model b = prototype.clone();
    a.set_flat_parameters(start);
    b.set_flat_parameters(start);
    const double loss_rule = rule.train_client(
        a, topology.clients.client(cid), start, cid, local, rng_rule);
    const double loss_mirror =
        mirror_local_sgd(b, topology.clients.client(cid), local, rng_mirror,
                         nullptr, 0, nullptr);
    const std::vector<float> pa = a.flat_parameters();
    const std::vector<float> pb = b.flat_parameters();
    const bool same =
        pa.size() == pb.size() &&
        std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)) == 0 &&
        loss_rule == loss_mirror &&
        rng_rule.next_u64() == rng_mirror.next_u64();
    if (!same) ++differ;
  }
  return differ;
}

void replay_setup(const Workload& w, const core::FederationTopology& topology,
                  const std::vector<core::FormedGroup>& groups,
                  core::Cloud& cloud, ThreadPool& pool, Tracer& tracer) {
  tracer.set_round(kSetupRound);
  const data::SyntheticSpec data_spec =
      w.spec.task == groupfel::cost::Task::kCifar
          ? data::cifar_like_spec(false)
          : data::sc_like_spec(false);
  data::PartitionSpec part;
  part.num_clients = w.spec.num_clients;
  part.alpha = w.spec.alpha;
  part.size_mean = w.spec.size_mean;
  part.size_std = w.spec.size_std;
  part.size_min = w.spec.size_min;
  part.size_max = w.spec.size_max;
  {
    Rng rng = bench_stream(w.spec.seed, kPartStream);
    const ScopedSpan span(&tracer, SpanKind::kPartition);
    const data::ClientPopulation pop =
        data::descriptor_partition(part, data_spec.num_classes, rng, &pool);
  }
  data::LabelMatrix matrix;
  {
    const ScopedSpan span(&tracer, SpanKind::kLabelMatrix);
    matrix = topology.clients.label_matrix(&pool);
  }
  {
    std::vector<core::EdgeServer> servers;
    for (std::size_t e = 0; e < topology.edges.size(); ++e)
      servers.emplace_back(e, topology.edges[e]);
    std::vector<std::vector<core::FormedGroup>> per_edge(servers.size());
    const auto run_edge = [&](std::size_t e) {
      Rng rng = bench_stream(w.cfg.seed, kGroupStream, e);
      per_edge[e] = servers[e].form_groups(matrix, w.cfg.grouping,
                                           w.cfg.grouping_params, rng, &pool);
    };
    const ScopedSpan span(&tracer, SpanKind::kGrouping);
    if (pool.size() > 1 && servers.size() > 1)
      pool.parallel_for(servers.size(), run_edge);
    else
      for (std::size_t e = 0; e < servers.size(); ++e) run_edge(e);
  }
  std::vector<core::FormedGroup> copy = groups;
  const ScopedSpan span(&tracer, SpanKind::kProbabilities);
  cloud.set_groups(std::move(copy), &pool);
}

std::vector<RoundOutcome> replay_rounds(
    const Workload& w, const core::FederationTopology& topology,
    const core::Cloud& cloud, std::size_t rounds, std::uint64_t seed,
    ThreadPool& pool, Tracer& tracer, Counters& counters) {
  nn::Model prototype = topology.model_factory();
  Rng init = bench_stream(seed, kInitStream);
  prototype.init(init);
  groupfel::runtime::ModelReplicaCache<nn::Model> replicas(prototype);
  std::vector<float> params = prototype.flat_parameters();
  const GroupReplay group_replay(w, topology, seed, pool, replicas, tracer,
                                 counters);

  std::vector<RoundOutcome> out(rounds);
  for (std::size_t t = 0; t < rounds; ++t) {
    tracer.set_round(static_cast<std::uint32_t>(t));
    const ScopedSpan round_span(&tracer, SpanKind::kRound);
    std::vector<std::size_t> sampled;
    {
      Rng rng = bench_stream(seed, kSampleStream, t);
      const ScopedSpan span(&tracer, SpanKind::kSample);
      sampled = cloud.sample(w.cfg.sampled_groups, rng);
    }
    std::vector<std::vector<float>> group_models(sampled.size());
    {
      const ScopedSpan fanout(&tracer, SpanKind::kFanout);
      const SpanId fanout_id = fanout.id();
      pool.parallel_for(sampled.size(), [&](std::size_t i) {
        const ScopedSpan span(&tracer, SpanKind::kGroup, fanout_id);
        group_models[i] = group_replay.run(cloud.groups()[sampled[i]], params,
                                           t, sampled[i], span.id());
      });
    }
    {
      const ScopedSpan span(&tracer, SpanKind::kGlobalAggregate);
      const std::vector<std::span<const float>> views(group_models.begin(),
                                                      group_models.end());
      cloud.aggregate_into(params, sampled, views, &pool);
    }
    if (t % w.cfg.eval_every == 0 || t + 1 == rounds) {
      const ScopedSpan span(&tracer, SpanKind::kEvaluate);
      nn::Model& model = replicas.local();
      model.set_flat_parameters(params);
      const core::EvalResult ev =
          core::evaluate(model, *topology.test_set, 256, &pool, &replicas);
      out[t] = {ev.accuracy, ev.loss, true};
    }
  }
  return out;
}

}  // namespace perfbench
