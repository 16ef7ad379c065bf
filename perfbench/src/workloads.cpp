#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace core = groupfel::core;
using groupfel::runtime::Rng;

namespace {

// Stream domains of the benchmark's own inputs.
constexpr std::uint64_t kSpecSeed = 0x73706563;   // "spec"
constexpr std::uint64_t kTrainSeed = 0x7472616e;  // "tran"
constexpr std::uint64_t kMaliciousSeed = 0x6d616c69;  // "mali"

core::GroupFelConfig group_fel(std::size_t rounds, std::size_t s,
                               std::size_t k, std::size_t e,
                               std::size_t min_group_size) {
  core::GroupFelConfig cfg;
  core::apply_method(core::Method::kGroupFel, cfg);
  cfg.global_rounds = rounds;
  cfg.sampled_groups = s;
  cfg.group_rounds = k;
  cfg.local_epochs = e;
  cfg.grouping_params.min_group_size = min_group_size;
  cfg.eval_every = 1;
  return cfg;
}

// Local SGD on small GEMMs and the groups x members fan-out: 99 clients,
// ~19 CoVG groups of ~5, resident client data.
Workload round_mlp(bool toy) {
  Workload w;
  w.spec = core::default_cifar_spec(toy ? 0.1 : 0.33);
  w.spec.client_state = core::ClientStateMode::kDescriptorResident;
  w.spec.mlp_hidden = 64;
  w.cfg = group_fel(toy ? 4 : 200, 6, 5, 2, 5);
  w.cfg.local.batch_size = 8;
  w.traced_rounds = toy ? 4 : 100;
  w.accuracy_floor = toy ? 0.0 : 0.3;
  w.mirror_clients = toy ? 2 : 8;
  return w;
}

// Real secure aggregation (with Shamir recovery of dropped clients) on
// groups of ~11-16, fp16 wire codec, per-sample synthesized minibatches.
Workload round_secure(bool toy) {
  Workload w;
  w.spec = core::default_sc_spec(toy ? 0.1 : 0.33);
  // Accuracy is ~0.12 on 35 classes: a large test set keeps its sampling
  // error small against the spread between federations.
  w.spec.test_size = 10000;
  w.spec.client_state = core::ClientStateMode::kLazy;
  w.spec.mlp_hidden = 64;
  w.cfg = group_fel(toy ? 3 : 20, 4, 2, 1, toy ? 8 : 16);
  w.cfg.use_real_secagg = true;
  w.cfg.client_dropout_rate = 0.1;
  w.cfg.precision.wire = groupfel::compression::Codec::kFp16;
  w.min_repetitions = toy ? 3 : 8;
  w.traced_rounds = toy ? 3 : 20;
  w.accuracy_floor = toy ? 0.0 : 0.05;
  w.mirror_clients = toy ? 2 : 8;
  return w;
}

// Control plane at fleet scale: a million descriptor-only clients, windowed
// parallel CoVG into ~100-client groups, Eq. 34 over ~10^4 groups, and
// FLAME's pairwise cosine on every sampled group.
Workload fleet_1m(bool toy) {
  Workload w;
  w.spec.num_clients = toy ? 20000 : 1000000;
  w.spec.num_edges = toy ? 4 : 100;
  w.spec.size_mean = 200.0;
  w.spec.size_std = 80.0;
  w.spec.size_min = 50;
  w.spec.size_max = 400;
  w.spec.test_size = 5000;
  w.spec.mlp_hidden = 32;
  w.spec.client_state = core::ClientStateMode::kLazy;
  w.cfg = group_fel(toy ? 2 : 10, 16, 1, 1, 100);
  w.cfg.grouping_params.greedy_window = 256;
  w.cfg.grouping_params.parallel_windows = true;
  w.cfg.local.batch_size = 32;
  w.cfg.local.lr = 0.1f;
  w.cfg.backdoor.attack = true;
  w.cfg.backdoor.defense = true;
  w.malicious_share = 0.05;
  w.traced_rounds = toy ? 3 : 20;
  w.accuracy_floor = toy ? 0.0 : 0.1;
  w.mirror_clients = toy ? 2 : 8;
  return w;
}

}  // namespace

Rng bench_stream(std::uint64_t seed, std::uint64_t domain, std::uint64_t a,
                 std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  return Rng(seed).fork(domain).fork(a).fork(b).fork(c).fork(d);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t repetition, bool toy) {
  Workload w;
  if (name == "round_mlp")
    w = round_mlp(toy);
  else if (name == "round_secure")
    w = round_secure(toy);
  else if (name == "fleet_1m")
    w = fleet_1m(toy);
  else
    throw std::invalid_argument("unknown workload '" + name + "'");
  w.name = name;
  w.spec.seed = bench_stream(seed, kSpecSeed, repetition).next_u64();
  w.cfg.seed = bench_stream(seed, kTrainSeed, repetition).next_u64();
  w.malicious_seed = bench_stream(seed, kMaliciousSeed, repetition).next_u64();
  return w;
}

void mark_malicious(core::FederationTopology& topology, double share,
                    std::uint64_t seed) {
  const std::size_t n = topology.clients.num_clients();
  topology.malicious.assign(n, false);
  const auto count = static_cast<std::size_t>(std::llround(share * n));
  if (count == 0) return;
  Rng rng(seed);
  for (std::size_t c : rng.sample_without_replacement(n, count))
    topology.malicious[c] = true;
}

}  // namespace perfbench
