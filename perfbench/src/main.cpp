// groupfel_perf — the repository's end-to-end benchmark binary.
//
//   groupfel_perf --workload <round_mlp|round_secure|fleet_1m> --seed <n>
//                 --seconds <s> --trace <0|1> [--toy]
//
// --trace 0 times Algorithm 1 through the public API: each repetition
// builds its own federation (core::build_experiment), constructs a
// core::GroupFelTrainer and runs train() for the workload's fixed T rounds.
// A run trains the workload's fixed number of repetitions and adds more
// until --seconds have passed. It reports the median set-up time, rounds/s
// over train(), the mean final accuracy of the fixed repetitions and the
// peak RSS.
//
// --trace 1 replays the workload's set-up and rounds in benchmark code with
// a span around every call into a groupfel layer (replay.hpp) and reports
// per-layer self times and counts; the spans go to
// .bench_out/<workload>.spans.tsv under the working directory.
//
// Both modes check the trainer's outputs (checks.hpp) and run the
// SGD-mirror fidelity gate. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only if
// every check passed. --toy shrinks every workload to run in seconds (the
// self-test, perfbench/test_bench.py).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "replay.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace core = groupfel::core;
using groupfel::runtime::ThreadPool;
using groupfel::runtime::Timer;

namespace perfbench {
namespace {

// Stop starting repetitions past this point so that a run ends well within
// 180 s even on a slow host.
constexpr double kRepetitionDeadlineS = 120.0;
constexpr const char* kTraceDir = ".bench_out";
// Set-ups counted toward setup_s's median: at least kMinSetups unless they
// already took kSetupBudgetS.
constexpr std::size_t kMinSetups = 15;
constexpr double kSetupBudgetS = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  bool toy = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  std::vector<std::string> argl(argv + 1, argv + argc);
  for (std::size_t i = 0; i < argl.size(); ++i) {
    const std::string key = argl[i];
    const auto eq = key.find('=');
    const auto next = [&]() -> std::string {
      if (eq != std::string::npos) return key.substr(eq + 1);
      if (i + 1 >= argl.size())
        throw std::invalid_argument(key + " needs a value");
      return argl[++i];
    };
    const std::string name = key.substr(0, eq);
    if (name == "--workload")
      a.workload = next();
    else if (name == "--seed")
      a.seed = std::stoull(next());
    else if (name == "--seconds")
      a.seconds = std::stod(next());
    else if (name == "--trace")
      a.trace = std::stoi(next()) != 0;
    else if (name == "--toy")
      a.toy = true;
    else
      throw std::invalid_argument("unknown argument '" + key + "'");
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Rounds over train() wall time, summed over the repetitions. With five or
/// more, the fastest and the slowest are left out: a burst of load from
/// outside the process moves one repetition, not the run.
double rounds_per_s(std::vector<double> train_s, std::size_t rounds) {
  std::sort(train_s.begin(), train_s.end());
  const std::size_t trim = train_s.size() >= 5 ? 1 : 0;
  const double total = std::accumulate(train_s.begin() + trim,
                                       train_s.end() - trim, 0.0);
  return static_cast<double>(rounds * (train_s.size() - 2 * trim)) / total;
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOutput {
  CheckReport report;
  bool gate_ok = true;
  std::vector<Metric> metrics;
};

/// Set-up as a user pays it: spec -> federation -> trainer ready for round
/// 0. `seconds` excludes marking malicious clients (benchmark input) and
/// the copy into `keep`.
std::unique_ptr<core::GroupFelTrainer> set_up(
    const Workload& w, ThreadPool& pool, double& seconds,
    core::FederationTopology* keep = nullptr) {
  const auto cost =
      core::build_cost_model(w.spec.task, core::cost_group_op(core::Method::kGroupFel));
  Timer t;
  core::Experiment exp = core::build_experiment(w.spec, &pool);
  seconds = t.seconds();
  if (w.malicious_share > 0.0)
    mark_malicious(exp.topology, w.malicious_share, w.malicious_seed);
  if (keep != nullptr) *keep = exp.topology;
  t.reset();
  auto trainer = std::make_unique<core::GroupFelTrainer>(
      std::move(exp.topology), w.cfg, cost, &pool);
  seconds += t.seconds();
  return trainer;
}

bool run_gate(const Workload& w, const core::FederationTopology& topology,
              const std::vector<float>& start, const Args& args,
              RunOutput& out) {
  const std::size_t differ =
      mirror_gate(topology, w.cfg, start, w.mirror_clients, args.seed);
  std::cout << "sgd-mirror gate: " << w.mirror_clients - differ << "/"
            << w.mirror_clients << " clients bit-identical\n";
  if (differ == 0) return true;
  out.report.problems.push_back("SGD-mirror gate: " + std::to_string(differ) +
                                " clients differ from SgdRule::train_client");
  out.report.failed = out.report.attempted;
  return false;
}

/// Trains the toy size of the workload once, untimed, so that thread
/// start-up, allocator arenas and first-touch page faults are paid before
/// anything is measured.
void warm_up(const Args& args, ThreadPool& pool) {
  double seconds = 0.0;
  const auto trainer =
      set_up(make_workload(args.workload, args.seed, 0, true), pool, seconds);
  (void)trainer->train();
}

RunOutput run_untraced(const Args& args, ThreadPool& pool) {
  RunOutput out;
  warm_up(args, pool);
  std::vector<double> setup_s;
  std::vector<double> train_s;  // one train() per repetition, T rounds each
  double accuracy_sum = 0.0;
  std::size_t trained = 0, rounds = 0;
  core::FederationTopology gate_topology;
  std::vector<float> gate_start;
  const Timer elapsed;
  const std::size_t min_repetitions =
      make_workload(args.workload, args.seed, 0, args.toy).min_repetitions;
  while (trained < min_repetitions ||
         (elapsed.seconds() < args.seconds &&
          elapsed.seconds() < kRepetitionDeadlineS)) {
    const Workload w =
        make_workload(args.workload, args.seed, trained, args.toy);
    double seconds = 0.0;
    auto trainer =
        set_up(w, pool, seconds, trained == 0 ? &gate_topology : nullptr);
    setup_s.push_back(seconds);
    const Timer t;
    const core::TrainResult result = trainer->train();
    train_s.push_back(t.seconds());
    rounds = w.cfg.global_rounds;
    std::cout << "repetition " << trained << ": setup_s " << seconds
              << ", rounds_per_s "
              << static_cast<double>(rounds) / train_s.back()
              << ", final_accuracy " << result.final_accuracy << "\n";
    if (trained < min_repetitions) accuracy_sum += result.final_accuracy;
    merge(out.report,
          check_train_result(result, w.cfg.global_rounds, w.accuracy_floor));
    if (trained == 0) gate_start = result.final_params;
    ++trained;
  }
  // Small set-ups are repeated on their own until their median is steady.
  double setup_total = std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
  while (setup_s.size() < kMinSetups && setup_total < kSetupBudgetS) {
    const Workload w =
        make_workload(args.workload, args.seed, setup_s.size(), args.toy);
    double seconds = 0.0;
    (void)set_up(w, pool, seconds);
    setup_s.push_back(seconds);
    setup_total += seconds;
  }
  const Workload w0 = make_workload(args.workload, args.seed, 0, args.toy);
  out.gate_ok = run_gate(w0, gate_topology, gate_start, args, out);
  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"rounds_per_s", rounds_per_s(train_s, rounds), "1/s"},
      {"final_accuracy", accuracy_sum / static_cast<double>(min_repetitions),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::cout << "repetitions: " << trained << " trained, " << setup_s.size()
            << " set up\n";
  return out;
}

RunOutput run_traced(const Args& args, ThreadPool& pool) {
  RunOutput out;
  const Workload w = make_workload(args.workload, args.seed, 0, args.toy);
  const std::size_t rounds = w.cfg.global_rounds;
  warm_up(args, pool);
  core::FederationTopology topology;
  double setup_seconds = 0.0;
  const auto trainer = set_up(w, pool, setup_seconds, &topology);
  const Timer t;
  const core::TrainResult result = trainer->train();
  const double untraced_round_s = t.seconds() / static_cast<double>(rounds);
  merge(out.report, check_train_result(result, rounds, w.accuracy_floor));

  Tracer tracer;
  core::Cloud cloud(w.cfg.sampling, w.cfg.aggregation);
  replay_setup(w, topology, trainer->groups(), cloud, pool, tracer);
  Counters counters;
  const std::vector<RoundOutcome> outcomes = replay_rounds(
      w, topology, cloud, w.traced_rounds, args.seed, pool, tracer, counters);
  out.report.attempted += outcomes.size();
  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    const RoundOutcome& o = outcomes[r];
    if (o.evaluated && (!std::isfinite(o.accuracy) || o.accuracy < 0.0 ||
                        o.accuracy > 1.0 || !std::isfinite(o.loss))) {
      out.report.problems.push_back("replay round " + std::to_string(r) +
                                    ": non-finite evaluation");
      ++out.report.failed;
    }
  }
  out.gate_ok = run_gate(w, topology, result.final_params, args, out);

  const std::vector<Tracer::Record> records = tracer.records();
  const TraceSummary s = summarize(records);
  std::filesystem::create_directories(kTraceDir);
  const std::string trace_path =
      std::string(kTraceDir) + "/" + w.name + ".spans.tsv";
  if (tracer.write_tsv(trace_path))
    std::cout << "spans: " << records.size() << " written to " << trace_path
              << "\n";

  const double n = static_cast<double>(std::max<std::size_t>(s.rounds, 1));
  const auto self = [&](SpanKind k) {
    return s.self_s[static_cast<std::size_t>(k)];
  };
  const auto per_round = [&](SpanKind k) { return self(k) / n; };
  const auto count = [&](const std::atomic<std::uint64_t>& c) {
    return static_cast<double>(c.load()) / n;
  };
  const double threads = static_cast<double>(pool.size() + 1);

  const auto& groups = trainer->groups();
  double cov_sum = 0.0, undersized = 0.0;
  for (const auto& g : groups) {
    cov_sum += g.cov;
    if (g.clients.size() < w.cfg.grouping_params.min_group_size)
      undersized += 1.0;
  }
  std::vector<double> p = trainer->sampling_probabilities();
  std::sort(p.rbegin(), p.rend());
  const double top2 = p.empty() ? 0.0 : p[0] + (p.size() > 1 ? p[1] : 0.0);

  std::vector<double> round_s = s.round_s;
  std::sort(round_s.begin(), round_s.end());
  double tail_pct = 50.0;
  for (double q : {99.0, 95.0, 90.0, 75.0}) {
    const double beyond =
        static_cast<double>(round_s.size()) -
        std::ceil(q / 100.0 * static_cast<double>(round_s.size()));
    if (beyond >= 10.0) {
      tail_pct = q;
      break;
    }
  }
  const double round_sum = std::accumulate(round_s.begin(), round_s.end(), 0.0);
  const double fwd_bwd_s = self(SpanKind::kForward) + self(SpanKind::kBackward);
  const double secagg_rounds =
      static_cast<double>(counters.secagg_group_rounds.load());
  const double submitted = static_cast<double>(counters.flame_submitted.load());

  out.metrics = {
      {"runtime.fanout_idle_share",
       s.fanout_wall_s > 0.0
           ? 1.0 - s.fanout_busy_s / (threads * s.fanout_wall_s)
           : 0.0,
       "ratio"},
      {"runtime.group_straggler_s", mean(s.group_straggler_s), "s"},
      {"data.partition_s", self(SpanKind::kPartition), "s"},
      {"data.label_matrix_s", self(SpanKind::kLabelMatrix), "s"},
      {"data.batch_s", per_round(SpanKind::kBatch), "s"},
      {"data.samples", count(counters.samples), "count"},
      {"grouping.form_s", self(SpanKind::kGrouping), "s"},
      {"grouping.groups", static_cast<double>(groups.size()), "count"},
      {"grouping.avg_cov",
       groups.empty() ? 0.0 : cov_sum / static_cast<double>(groups.size()),
       "ratio"},
      {"grouping.undersized_groups", undersized, "count"},
      {"sampling.probabilities_s", self(SpanKind::kProbabilities), "s"},
      {"sampling.sample_s", per_round(SpanKind::kSample), "s"},
      {"sampling.top2_mass", top2, "ratio"},
      {"algorithms.train_client_s", per_round(SpanKind::kTrainClient), "s"},
      {"algorithms.client_updates", count(counters.client_updates), "count"},
      {"nn.forward_s", per_round(SpanKind::kForward), "s"},
      {"nn.loss_s", per_round(SpanKind::kLoss), "s"},
      {"nn.backward_s", per_round(SpanKind::kBackward), "s"},
      {"nn.optimizer_s", per_round(SpanKind::kOptimizer), "s"},
      {"nn.steps", count(counters.steps), "count"},
      {"nn.train_gflops",
       fwd_bwd_s > 0.0
           ? static_cast<double>(counters.flops.load()) / fwd_bwd_s * 1e-9
           : 0.0,
       "GFLOP/s"},
      {"nn.group_average_s", per_round(SpanKind::kGroupAverage), "s"},
      {"compression.wire_s", per_round(SpanKind::kWire), "s"},
      {"compression.uplink_bytes", count(counters.uplink_bytes), "B"},
      {"secagg.setup_s", per_round(SpanKind::kSecaggSetup), "s"},
      {"secagg.mask_s", per_round(SpanKind::kSecaggMask), "s"},
      {"secagg.unmask_s", per_round(SpanKind::kSecaggUnmask), "s"},
      {"secagg.recovered_clients", count(counters.secagg_recovered), "count"},
      {"secagg.abort_share",
       secagg_rounds > 0.0
           ? static_cast<double>(counters.secagg_aborts.load()) / secagg_rounds
           : 0.0,
       "ratio"},
      {"backdoor.flame_s", per_round(SpanKind::kFlame), "s"},
      {"backdoor.accept_ratio",
       submitted > 0.0
           ? static_cast<double>(counters.flame_accepted.load()) / submitted
           : 1.0,
       "ratio"},
      {"core.global_aggregate_s", per_round(SpanKind::kGlobalAggregate), "s"},
      {"core.evaluate_s", per_round(SpanKind::kEvaluate), "s"},
      {"trace.round_s_p50", round_s.empty() ? 0.0 : percentile(round_s, 50.0),
       "s"},
      {"trace.round_s_tail",
       round_s.empty() ? 0.0 : percentile(round_s, tail_pct), "s"},
      {"trace.round_tail_pct", tail_pct, "%"},
      {"trace.coverage", round_sum > 0.0 ? s.round_covered_s / round_sum : 0.0,
       "ratio"},
      {"trace.overhead",
       round_s.empty() ? 0.0 : round_sum / n / untraced_round_s, "ratio"},
  };
  return out;
}

void print_context(const Args& args, std::size_t nproc, std::size_t workers) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::cout << "context: {\"workload\": " << json_string(args.workload)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"toy\": " << (args.toy ? "true" : "false")
            << ", \"nproc\": " << nproc << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"pool_workers\": " << workers
            << ", \"cpu_model\": " << json_string(cpu_model())
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(compiler)
            << ", \"native_kernels\": "
            << (PERFBENCH_NATIVE_KERNELS ? "true" : "false") << "}\n";
}

/// Prints the result line; returns whether the run is correct.
bool print_result(const RunOutput& out) {
  bool finite = true;
  std::ostringstream metrics;
  metrics << std::setprecision(17);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) metrics << ", ";
    metrics << json_string(m.name) << ": {\"value\": ";
    if (std::isfinite(m.value)) {
      metrics << m.value;
    } else {
      metrics << "null";
      finite = false;
    }
    metrics << ", \"unit\": " << json_string(m.unit) << "}";
  }
  const bool correct = finite && out.gate_ok && out.report.failed == 0 &&
                       out.report.problems.empty();
  for (const std::string& p : out.report.problems)
    std::cerr << "check failed: " << p << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.report.attempted
            << ", \"failed\": " << out.report.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
    (void)make_workload(args.workload, args.seed, 0, args.toy);
  } catch (const std::exception& e) {
    std::cerr << "groupfel_perf: " << e.what() << "\n";
    return 2;
  }
  const std::size_t nproc = affinity_cpus();
  // parallel_for also runs work on the calling thread, so nproc - 1 workers
  // keep every core busy without oversubscribing it.
  const std::size_t workers = std::max<std::size_t>(1, nproc - 1);
  print_context(args, nproc, workers);
  ThreadPool pool(workers);
  const RunOutput out =
      args.trace ? run_traced(args, pool) : run_untraced(args, pool);
  return print_result(out) ? 0 : 1;
}
