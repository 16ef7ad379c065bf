// The traced pass: replays a workload's setup and rounds in benchmark code
// with the public calls GroupFelTrainer::train() makes, in the same order
// and shapes, wrapping each call in a span. Randomness comes from the
// benchmark's own streams, so the replay does the same kind and amount of
// work as train() without reproducing its RNG keying.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "algorithms/local_trainer.hpp"
#include "core/cloud.hpp"
#include "core/trainer.hpp"
#include "runtime/thread_pool.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Work counts recorded at the same boundaries as the spans.
struct Counters {
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint64_t> flops{0};
  std::atomic<std::uint64_t> client_updates{0};
  std::atomic<std::uint64_t> uplink_bytes{0};
  std::atomic<std::uint64_t> secagg_group_rounds{0};
  std::atomic<std::uint64_t> secagg_aborts{0};
  std::atomic<std::uint64_t> secagg_recovered{0};
  std::atomic<std::uint64_t> flame_submitted{0};
  std::atomic<std::uint64_t> flame_accepted{0};
};

/// Multiply-accumulates per sample of one forward pass (Linear layers).
[[nodiscard]] std::uint64_t forward_macs_per_sample(
    const groupfel::nn::Model& model);

/// Step loop of algorithms::run_local_sgd, written out call by call:
/// ClientDataRef::batch_into -> Model::forward -> softmax_cross_entropy_into
/// -> Model::backward -> SgdOptimizer::step. With a tracer each call gets a
/// span under `parent`. Returns the mean batch loss.
double mirror_local_sgd(groupfel::nn::Model& model,
                        groupfel::data::ClientDataRef data,
                        const groupfel::algorithms::LocalTrainConfig& cfg,
                        groupfel::runtime::Rng& rng, Tracer* tracer,
                        SpanId parent, Counters* counters);

/// SGD-mirror fidelity gate: for `clients` evenly spaced client ids, trains
/// from `start` with algorithms::SgdRule::train_client and with
/// mirror_local_sgd on the same RNG and compares the resulting parameters
/// bit for bit. Returns the number of clients that differ.
[[nodiscard]] std::size_t mirror_gate(
    const groupfel::core::FederationTopology& topology,
    const groupfel::core::GroupFelConfig& cfg, std::span<const float> start,
    std::size_t clients, std::uint64_t seed);

/// Re-runs the control plane with spans: descriptor partition, label
/// matrix, per-edge grouping (edges concurrent) and the cloud's Eq. 34
/// probabilities over `groups` (the trainer's), which `cloud` keeps for the
/// round replay.
void replay_setup(const Workload& w,
                  const groupfel::core::FederationTopology& topology,
                  const std::vector<groupfel::core::FormedGroup>& groups,
                  groupfel::core::Cloud& cloud,
                  groupfel::runtime::ThreadPool& pool, Tracer& tracer);

struct RoundOutcome {
  double accuracy = 0.0;
  double loss = 0.0;
  bool evaluated = false;
};

/// Replays `rounds` global rounds from a freshly initialized model and
/// returns each round's evaluation.
std::vector<RoundOutcome> replay_rounds(
    const Workload& w, const groupfel::core::FederationTopology& topology,
    const groupfel::core::Cloud& cloud, std::size_t rounds, std::uint64_t seed,
    groupfel::runtime::ThreadPool& pool, Tracer& tracer, Counters& counters);

}  // namespace perfbench
