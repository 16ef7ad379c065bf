// The benchmark's named workloads: one ExperimentSpec + GroupFelConfig
// each, generated from the workload seed. The names, and the metric names
// in BENCHMARK.json, are the vocabulary later performance claims use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  groupfel::core::ExperimentSpec spec;
  groupfel::core::GroupFelConfig cfg;
  /// Share of clients the benchmark marks malicious (backdoor attack on),
  /// chosen from malicious_seed.
  double malicious_share = 0.0;
  std::uint64_t malicious_seed = 0;
  /// Repetitions (federations) every untraced run trains; final_accuracy
  /// is their mean, so it repeats exactly for a given seed. Runs add timed
  /// repetitions beyond these while --seconds have not passed.
  std::size_t min_repetitions = 3;
  /// Rounds the traced pass replays.
  std::size_t traced_rounds = 0;
  /// Output check: final accuracy must reach this (well below measured).
  double accuracy_floor = 0.0;
  /// Clients the SGD-mirror gate retrains both ways.
  std::size_t mirror_clients = 0;
};

/// Builds workload `name` for `seed`. Each repetition of a run trains its
/// own federation, drawn from (seed, repetition), so one run averages over
/// several federations of the same shape. `toy` shrinks the workload to run
/// in seconds (self-test sizes: same layers exercised, accuracy floor 0).
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     std::size_t repetition, bool toy);

/// Marks round(share * n) distinct clients malicious, chosen from `seed`.
void mark_malicious(groupfel::core::FederationTopology& topology,
                    double share, std::uint64_t seed);

/// A stream owned by the benchmark, keyed by a domain and up to four
/// indices through chained Rng::fork (never the trainer's own keying).
[[nodiscard]] groupfel::runtime::Rng bench_stream(std::uint64_t seed,
                                                  std::uint64_t domain,
                                                  std::uint64_t a = 0,
                                                  std::uint64_t b = 0,
                                                  std::uint64_t c = 0,
                                                  std::uint64_t d = 0);

}  // namespace perfbench
