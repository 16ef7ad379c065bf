// End-to-end simulation-round benchmark. Runs the full Algorithm 1 loop
// (T global rounds x K group rounds x E local epochs) on the MLP surrogate
// at 64 clients / 8 groups and measures rounds/sec, heap-allocation traffic
// per round, and model constructions in steady state.
//
//   ./sim_round            timed run, writes BENCH_sim.json
//   ./sim_round --smoke    fast bit-identity + steady-state-clones gate
//                          for ctest (tiny topology, no JSON)
//
// The steady-state check re-runs train() on the same trainer on an inline
// pool: the calling thread already holds its replica, so the second run
// must perform ZERO model constructions. Its final parameters must also
// equal the timed run's (shared pool) bit for bit; this binary hard-fails
// on either violation, in both modes.
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>  // lint:allow(naked-new)
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "util/csv.hpp"

// ---- Global allocation counter -------------------------------------------
// Counts every scalar/array operator new in the process; deltas around the
// timed region give allocations per simulated round. Counting only — the
// underlying allocation still goes through malloc.
namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// Counting replacement of the global allocator, not an ownership site.
void* operator new[](std::size_t n) { return operator new(n); }  // lint:allow(naked-new)
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace groupfel;

namespace {

struct RunResult {
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  double allocs_per_round = 0.0;
  double final_accuracy = 0.0;
  std::vector<float> final_params;
};

core::GroupFelConfig bench_config(std::size_t global_rounds) {
  core::GroupFelConfig cfg;
  cfg.global_rounds = global_rounds;
  cfg.group_rounds = 5;  // paper: K = 5
  cfg.local_epochs = 2;  // paper: E = 2
  cfg.sampled_groups = 8;
  cfg.local.batch_size = 8;
  cfg.local.lr = 0.1f;
  cfg.grouping = grouping::GroupingMethod::kRandom;
  cfg.grouping_params.min_group_size = 8;
  cfg.eval_every = 1;
  cfg.seed = 42;
  return cfg;
}

/// Best-of-N timing (train() is restartable — every RNG stream forks from
/// per-round logical tags, so repeat runs are bit-identical). Allocation
/// traffic is read on the last pass, when caches and arenas are warm.
RunResult timed_run(const core::Experiment& exp,
                    const core::GroupFelConfig& cfg, std::size_t reps) {
  core::GroupFelTrainer trainer(
      exp.topology, cfg,
      core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg));
  RunResult r;
  r.seconds = 1e300;
  core::TrainResult res;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::size_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    runtime::Timer t;
    res = trainer.train();
    r.seconds = std::min(r.seconds, t.seconds());
    const std::size_t allocs1 = g_allocs.load(std::memory_order_relaxed);
    r.allocs_per_round = static_cast<double>(allocs1 - allocs0) /
                         static_cast<double>(cfg.global_rounds);
  }
  r.rounds_per_sec = static_cast<double>(cfg.global_rounds) / r.seconds;
  r.final_accuracy = res.final_accuracy;
  r.final_params = std::move(res.final_params);
  return r;
}

struct SteadyState {
  std::size_t clones = 0;
  std::vector<float> final_params;
};

/// Model constructions performed by a SECOND full train() on an
/// already-warm trainer. Uses an inline (single-thread) pool so the set of
/// participating threads is fixed — on a shared multi-worker pool an idle
/// worker could join late and legitimately clone once, making the 0-gate
/// flaky. Must be 0: every thread already holds its replica.
SteadyState steady_state(const core::Experiment& exp,
                         const core::GroupFelConfig& cfg) {
  runtime::ThreadPool inline_pool(0);
  core::GroupFelTrainer trainer(
      exp.topology, cfg,
      core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg),
      &inline_pool);
  (void)trainer.train();  // warm-up: the calling thread clones its replica
  const std::size_t before = trainer.replica_clone_count();
  SteadyState s;
  s.final_params = trainer.train().final_params;
  s.clones = trainer.replica_clone_count() - before;
  return s;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

void write_json(const RunResult& run, std::size_t steady_clones,
                std::size_t clients, std::size_t groups, std::size_t rounds,
                std::size_t param_count) {
  const std::string path = "BENCH_sim.json";
  std::ofstream out(path);
  out << "{\n  \"schema\": \"groupfel-sim-bench-v2\",\n"
      << "  \"context\": " << bench::hardware_context_json() << ",\n"
      << "  \"scenario\": {\"clients\": " << clients
      << ", \"groups\": " << groups << ", \"global_rounds\": " << rounds
      << ", \"group_rounds\": 5, \"local_epochs\": 2, \"model\": \"mlp-h64\""
      << ", \"param_count\": " << param_count << "},\n"
      << "  \"rounds_per_sec\": " << util::format_double(run.rounds_per_sec)
      << ",\n"
      << "  \"allocs_per_round\": "
      << util::format_double(run.allocs_per_round) << ",\n"
      << "  \"steady_state_model_constructions\": " << steady_clones << ",\n"
      << "  \"final_params_bit_identical_across_pools\": true\n"
      << "}\n";
  std::cout << "wrote " << path << "\n";
}

int fail(const std::string& msg) {
  std::cerr << "sim_round: FAIL: " << msg << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  core::ExperimentSpec spec;
  spec.num_clients = smoke ? 24 : 64;
  spec.num_edges = 2;
  spec.size_mean = 40;
  spec.size_std = 10;
  spec.size_min = 16;
  spec.size_max = 64;
  spec.test_size = smoke ? 200 : 1000;
  spec.mlp_hidden = smoke ? 32 : 64;
  spec.seed = 7;
  const core::Experiment exp = core::build_experiment(spec);

  core::GroupFelConfig cfg = bench_config(smoke ? 2 : 10);
  if (smoke) {
    cfg.group_rounds = 2;
    cfg.local_epochs = 1;
    cfg.sampled_groups = 3;
    cfg.grouping_params.min_group_size = 5;
  }

  const std::size_t reps = smoke ? 1 : 3;
  const RunResult run = timed_run(exp, cfg, reps);
  const SteadyState steady = steady_state(exp, cfg);

  if (!bit_identical(run.final_params, steady.final_params))
    return fail("shared-pool and inline-pool runs diverged (final_params)");
  if (steady.clones != 0)
    return fail("replica cache constructed " + std::to_string(steady.clones) +
                " models in steady state (expected 0)");

  const nn::Model proto = exp.topology.model_factory();
  std::cout << "sim_round: " << spec.num_clients << " clients, "
            << "param_count=" << proto.param_count() << "\n"
            << "  " << util::format_double(run.rounds_per_sec)
            << " rounds/s, " << util::format_double(run.allocs_per_round)
            << " allocs/round, steady-state model ctors = " << steady.clones
            << " (acc " << util::format_double(run.final_accuracy) << ")\n"
            << "  bit-identical final params across pools: yes\n";

  if (!smoke) {
    // Group count comes out of the grouping pass; report the real number.
    core::GroupFelTrainer probe(
        exp.topology, cfg,
        core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg));
    write_json(run, steady.clones, spec.num_clients, probe.groups().size(),
               cfg.global_rounds, proto.param_count());
  }
  return 0;
}
