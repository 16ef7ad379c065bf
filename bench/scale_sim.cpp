// Million-client scale benchmark — the gate for the O(bytes) client-state
// engine AND the parallel control plane. Builds descriptor-backed (kLazy)
// federations at 1k / 10k / 100k / 1M clients and, per scale, measures
//   - the four control-plane phases (descriptor partition, label matrix,
//     grouping, Eq. 34 sampling + size histogram) twice: serial (no pool)
//     and parallel (multi-thread pool, windows run concurrently) — the
//     serial-vs-parallel A/B,
//   - setup time (descriptor partition, no sample materialization),
//   - grouping time (label matrix from population histograms + windowed
//     CoV greedy per edge + streaming Eq. 34 probabilities),
//   - one full Algorithm 1 global round (only sampled clients ever
//     synthesize data) as rounds/s,
//   - resident client-state bytes vs the naive projection of keeping every
//     training sample in memory (sum_i n_i * sample_dim * 4 bytes), and
//   - process peak RSS, gated: at >= 100k clients peak RSS must stay under
//     10% of the naive resident projection.
// Speedup gate: at 1M clients the combined control plane must reach >= 1.8x
// at 4 threads — enforced only on hosts with >= 4 hardware threads; on
// smaller hosts the JSON carries a speedup_note instead (the BENCH_sweep
// convention), since all threads multiplex the same cores.
// Writes BENCH_scale.json (schema v2) and prints the group-size
// distribution as an ASCII histogram.
//
//   ./scale_sim                        full run up to --max-clients
//                                      (default 1000000; pass
//                                      --max-clients=100000 for a CI-sized
//                                      run — the 1M row takes minutes)
//   ./scale_sim --progress=5           progress lines (clients partitioned,
//                                      edges grouped) every 5 s during long
//                                      rows
//   ./scale_sim --threads=N            pool for the parallel arm (default:
//                                      an owned 4-thread pool)
//   ./scale_sim --smoke                ctest gate, no JSON: at 64 clients
//                                      (a) kDescriptorResident and kLazy
//                                      training must be bit-identical, and
//                                      (b) the control plane must be
//                                      bit-identical serial vs pooled
//                                      (combine with --threads=2 in CI)
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"
#include "core/edge_server.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "data/client_descriptor.hpp"
#include "data/label_matrix.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/tensor.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "sampling/sampler.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"

using namespace groupfel;

namespace {

// ---- Process memory probes (Linux; 0 elsewhere, which skips the gate) ----

std::size_t peak_rss_bytes() {
#if defined(__linux__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // ru_maxrss is KiB
#else
  return 0;
#endif
}

std::size_t current_rss_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      std::size_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(1 << 12, '\n');
  }
#endif
  return 0;
}

// ---- Scenario -------------------------------------------------------------

/// Descriptor-mode spec for `clients` clients. Data sizes follow the
/// paper's §7.2 distribution at full scale (mean 200 here so the naive
/// resident projection is a realistic multi-GB figure at 100k+).
core::ExperimentSpec scale_spec(std::size_t clients) {
  core::ExperimentSpec spec;
  spec.num_clients = clients;
  // ~10k clients per edge keeps the per-edge windowed greedy tractable and
  // mirrors a metro-area edge deployment.
  spec.num_edges = std::max<std::size_t>(2, clients / 10000);
  spec.size_mean = 200.0;
  spec.size_std = 80.0;
  spec.size_min = 50;
  spec.size_max = 400;
  spec.test_size = 512;
  spec.mlp_hidden = 32;
  spec.seed = 7;
  spec.client_state = core::ClientStateMode::kLazy;
  return spec;
}

/// One-global-round Algorithm 1 config: CoV grouping (windowed) + streaming
/// ESRCoV sampling — the paper's default method at fleet scale. Group size
/// ~100 (MinGS) so 100k clients form ~1k groups.
core::GroupFelConfig scale_config() {
  core::GroupFelConfig cfg;
  cfg.global_rounds = 1;
  cfg.group_rounds = 1;
  cfg.local_epochs = 1;
  cfg.sampled_groups = 16;
  cfg.local.batch_size = 32;
  cfg.local.lr = 0.1f;
  cfg.grouping = grouping::GroupingMethod::kCov;
  cfg.grouping_params.min_group_size = 100;
  cfg.grouping_params.greedy_window = 256;
  cfg.grouping_params.parallel_windows = true;
  cfg.sampling = sampling::SamplingMethod::kESRCov;
  cfg.eval_every = 1;
  cfg.seed = 42;
  return cfg;
}

// ---- Progress ticks -------------------------------------------------------

/// Completion-count progress lines for the long rows, rate-limited to one
/// line per --progress seconds (quiet when the flag is unset). Thread-safe:
/// the grouping phase ticks from pool workers.
class Progress {
 public:
  Progress(std::string phase, std::size_t total, std::string unit)
      : phase_(std::move(phase)), unit_(std::move(unit)), total_(total) {}

  void tick(std::size_t completed) {
    const double every = bench::options().progress;
    if (every <= 0.0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    if (elapsed_.seconds() - last_ < every && completed < total_) return;
    if (completed >= total_ && last_ == 0.0) return;  // fast phase: no spam
    last_ = elapsed_.seconds();
    std::cout << "scale_sim: " << phase_ << " " << completed << "/" << total_
              << " " << unit_ << " ("
              << util::format_double(elapsed_.seconds()) << " s)\n";
  }

 private:
  std::string phase_;
  std::string unit_;
  std::size_t total_;
  std::mutex mu_;
  runtime::Timer elapsed_;
  double last_ = 0.0;
};

// ---- Control-plane phase driver ------------------------------------------

struct PhaseTimings {
  double partition_seconds = 0.0;
  double label_matrix_seconds = 0.0;
  double grouping_seconds = 0.0;
  double sampling_seconds = 0.0;
  [[nodiscard]] double combined() const {
    return partition_seconds + label_matrix_seconds + grouping_seconds +
           sampling_seconds;
  }
};

struct ControlPlaneResult {
  PhaseTimings timings;
  std::vector<core::FormedGroup> groups;
  std::vector<double> probabilities;
  std::vector<std::size_t> size_histogram;
};

/// Runs the four control-plane phases exactly as build_experiment + the
/// trainer constructor do — same forks (partition root.fork(0xd15c), grouping
/// run_rng.fork("grup").fork(edge_id)), same edge assignment — but with the
/// trainer's model/test-set machinery stripped away so each phase can be
/// timed in isolation. `pool == nullptr` is the serial arm.
ControlPlaneResult run_control_plane(const core::ExperimentSpec& spec,
                                     const core::GroupFelConfig& cfg,
                                     runtime::ThreadPool* pool) {
  ControlPlaneResult out;
  const data::SyntheticSpec data_spec =
      data::cifar_like_spec(spec.model != core::ModelKind::kMlp);

  data::PartitionSpec part;
  part.num_clients = spec.num_clients;
  part.alpha = spec.alpha;
  part.size_mean = spec.size_mean;
  part.size_std = spec.size_std;
  part.size_min = spec.size_min;
  part.size_max = spec.size_max;

  // Phase 1: descriptor partition, in slabs so --progress can tick between
  // them. Filling every slab reproduces descriptor_partition bit for bit
  // (per-client streams are forked by index from a const parent).
  runtime::Rng root(spec.seed);
  const runtime::Rng part_rng = root.fork(0xd15cull);
  runtime::Timer partition_t;
  data::ClientPopulation pop(spec.num_clients, data_spec.num_classes);
  {
    constexpr std::size_t kSlab = 65536;
    Progress progress("partition", spec.num_clients, "clients");
    for (std::size_t begin = 0; begin < spec.num_clients; begin += kSlab) {
      const std::size_t end = std::min(spec.num_clients, begin + kSlab);
      data::descriptor_partition_range(pop, part, part_rng, begin, end, pool);
      progress.tick(end);
    }
  }
  out.timings.partition_seconds = partition_t.seconds();

  // Phase 2: label matrix from the population histograms.
  runtime::Timer matrix_t;
  const data::LabelMatrix matrix = data::LabelMatrix::from_population(pop, pool);
  out.timings.label_matrix_seconds = matrix_t.seconds();

  // Phase 3: per-edge grouping, edges concurrent like the trainer (each
  // edge's stream is forked by edge id from a const parent), groups emitted
  // in edge order.
  runtime::Timer grouping_t;
  {
    const std::vector<std::vector<std::size_t>> edges =
        data::assign_to_edges(spec.num_clients, spec.num_edges);
    std::vector<core::EdgeServer> servers;
    servers.reserve(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e)
      servers.emplace_back(e, edges[e]);

    runtime::Rng run_rng(cfg.seed);
    const runtime::Rng group_rng = run_rng.fork(0x67727570ull /*"grup"*/);
    std::vector<std::vector<core::FormedGroup>> per_edge(servers.size());
    std::atomic<std::size_t> edges_done{0};
    Progress progress("grouping", servers.size(), "edges");
    const auto run_edge = [&](std::size_t e) {
      runtime::Rng edge_rng = group_rng.fork(servers[e].id());
      per_edge[e] = servers[e].form_groups(matrix, cfg.grouping,
                                           cfg.grouping_params, edge_rng, pool);
      progress.tick(edges_done.fetch_add(1) + 1);
    };
    if (pool != nullptr && pool->size() > 1 && servers.size() > 1)
      pool->parallel_for(servers.size(), run_edge);
    else
      for (std::size_t e = 0; e < servers.size(); ++e) run_edge(e);
    for (auto& groups : per_edge)
      for (auto& g : groups) out.groups.push_back(std::move(g));
  }
  out.timings.grouping_seconds = grouping_t.seconds();

  // Phase 4: Eq. 34 probabilities + group-size histogram (the cloud's
  // per-regroup work), both via fixed-shape blocked reductions.
  runtime::Timer sampling_t;
  {
    std::vector<double> covs;
    covs.reserve(out.groups.size());
    for (const core::FormedGroup& g : out.groups) covs.push_back(g.cov);
    sampling::sampling_probabilities_into(cfg.sampling, covs,
                                          out.probabilities,
                                          sampling::kDefaultCovFloor, pool);
    out.size_histogram = core::group_size_histogram(out.groups, pool);
  }
  out.timings.sampling_seconds = sampling_t.seconds();
  return out;
}

/// Pool for the parallel arm: --threads when given, else an owned 4-thread
/// pool (the gate's reference point).
runtime::ThreadPool* parallel_pool() {
  if (runtime::ThreadPool* pool = bench::bench_pool()) return pool;
  static runtime::ThreadPool pool(4);
  return &pool;
}

struct ScaleRow {
  std::size_t clients = 0;
  std::size_t edges = 0;
  std::size_t groups = 0;
  PhaseTimings serial;
  PhaseTimings parallel;
  double control_plane_speedup = 0.0;
  double setup_seconds = 0.0;
  double grouping_seconds = 0.0;
  double rounds_per_sec = 0.0;
  std::size_t resident_state_bytes = 0;
  std::size_t naive_resident_bytes = 0;
  std::size_t rss_after_setup_bytes = 0;
  std::size_t peak_rss_bytes = 0;
  double peak_rss_fraction_of_naive = 0.0;
  double final_accuracy = 0.0;
};

/// Projection of the FedML-style resident layout this engine replaces:
/// every client's feature tensor held in memory for the whole run.
std::size_t naive_resident_projection(const data::ClientDataStore& store,
                                      std::size_t sample_floats) {
  std::size_t total = 0;
  for (std::size_t c = 0; c < store.num_clients(); ++c)
    total += store.data_count(c) * sample_floats * sizeof(float);
  return total;
}

void print_group_size_histogram(std::span<const core::FormedGroup> groups) {
  const std::vector<std::size_t> hist = core::group_size_histogram(groups);
  // Compact to nonzero sizes; bin into ranges if the support is wide.
  std::vector<std::pair<std::size_t, std::size_t>> nonzero;
  for (std::size_t s = 0; s < hist.size(); ++s)
    if (hist[s] > 0) nonzero.emplace_back(s, hist[s]);
  std::vector<std::string> labels;
  std::vector<std::size_t> counts;
  constexpr std::size_t kMaxRows = 16;
  if (nonzero.size() <= kMaxRows) {
    for (const auto& [size, count] : nonzero) {
      labels.push_back("size " + std::to_string(size));
      counts.push_back(count);
    }
  } else {
    const std::size_t lo = nonzero.front().first, hi = nonzero.back().first;
    const std::size_t bin = (hi - lo) / kMaxRows + 1;
    labels.assign(kMaxRows, {});
    counts.assign(kMaxRows, 0);
    for (const auto& [size, count] : nonzero) {
      const std::size_t b = std::min(kMaxRows - 1, (size - lo) / bin);
      counts[b] += count;
    }
    for (std::size_t b = 0; b < kMaxRows; ++b)
      labels[b] = "size " + std::to_string(lo + b * bin) + "-" +
                  std::to_string(lo + (b + 1) * bin - 1);
  }
  std::cout << util::ascii_histogram("group-size distribution", labels, counts);
}

int fail(const std::string& msg) {
  std::cerr << "scale_sim: FAIL: " << msg << "\n";
  return 1;
}

// ---- Smoke gates ----------------------------------------------------------

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

bool same_groups(const std::vector<core::FormedGroup>& a,
                 const std::vector<core::FormedGroup>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].edge_id != b[i].edge_id || a[i].clients != b[i].clients ||
        a[i].data_count != b[i].data_count || a[i].cov != b[i].cov)
      return false;
  }
  return true;
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// Serial-vs-pooled bit-identity over the whole control plane. The pooled
/// arm uses --threads when given (CI passes --threads=2), else the owned
/// 4-thread pool.
int smoke_control_plane() {
  core::ExperimentSpec spec = scale_spec(3000);
  spec.num_edges = 3;
  core::GroupFelConfig cfg = scale_config();
  cfg.grouping_params.min_group_size = 20;
  cfg.grouping_params.greedy_window = 64;

  runtime::ThreadPool* pool = parallel_pool();
  const ControlPlaneResult serial = run_control_plane(spec, cfg, nullptr);
  const ControlPlaneResult pooled = run_control_plane(spec, cfg, pool);
  if (!same_groups(serial.groups, pooled.groups))
    return fail("control plane: groups diverge serial vs pool=" +
                std::to_string(pool->size()));
  if (!same_doubles(serial.probabilities, pooled.probabilities))
    return fail("control plane: Eq. 34 probabilities diverge serial vs pool");
  if (serial.size_histogram != pooled.size_histogram)
    return fail("control plane: size histogram diverges serial vs pool");
  std::cout << "scale_sim --smoke: control plane bit-identical serial vs "
            << pool->size() << "-thread pool\n";
  return 0;
}

int run_smoke() {
  core::ExperimentSpec spec = scale_spec(64);
  spec.num_edges = 2;
  spec.size_mean = 40;
  spec.size_std = 10;
  spec.size_min = 16;
  spec.size_max = 64;
  spec.test_size = 200;

  core::GroupFelConfig cfg = scale_config();
  cfg.global_rounds = 2;
  cfg.group_rounds = 2;
  cfg.sampled_groups = 3;
  cfg.local.batch_size = 8;
  cfg.grouping_params.min_group_size = 5;
  cfg.grouping_params.greedy_window = 0;  // classic Algorithm 2

  runtime::ThreadPool* pool = bench::bench_pool();
  spec.client_state = core::ClientStateMode::kDescriptorResident;
  const core::Experiment res_exp = core::build_experiment(spec, pool);
  spec.client_state = core::ClientStateMode::kLazy;
  const core::Experiment lazy_exp = core::build_experiment(spec, pool);

  if (res_exp.train_set == nullptr)
    return fail("descriptor-resident arm has no materialized train set");
  if (lazy_exp.train_set != nullptr)
    return fail("lazy arm materialized a train set");

  const std::size_t res_bytes = res_exp.topology.clients.resident_bytes();
  const std::size_t lazy_bytes = lazy_exp.topology.clients.resident_bytes();
  if (lazy_bytes * 10 >= res_bytes)
    return fail("lazy client state (" + std::to_string(lazy_bytes) +
                " B) is not <10% of resident (" + std::to_string(res_bytes) +
                " B)");

  const auto model = core::build_cost_model(cost::Task::kCifar,
                                            cost::GroupOp::kSecAgg);
  core::GroupFelTrainer res_trainer(res_exp.topology, cfg, model, pool);
  core::GroupFelTrainer lazy_trainer(lazy_exp.topology, cfg, model, pool);
  const core::TrainResult res = res_trainer.train();
  const core::TrainResult lazy = lazy_trainer.train();

  if (!bit_identical(res.final_params, lazy.final_params))
    return fail("lazy and descriptor-resident training diverged "
                "(final_params)");
  if (res.final_accuracy != lazy.final_accuracy)
    return fail("lazy and descriptor-resident accuracies diverged");

  std::cout << "scale_sim --smoke: 64 clients, lazy vs resident "
               "bit-identical (acc "
            << util::format_double(res.final_accuracy) << "), lazy state "
            << lazy_bytes << " B vs resident " << res_bytes << " B\n";
  return smoke_control_plane();
}

// ---- Full run -------------------------------------------------------------

ScaleRow run_scale(std::size_t clients) {
  ScaleRow row;
  row.clients = clients;

  const core::ExperimentSpec spec = scale_spec(clients);
  core::GroupFelConfig cfg = scale_config();
  runtime::ThreadPool* pool = parallel_pool();

  // Control-plane A/B: serial arm (no pool) vs parallel arm (pool).
  {
    row.serial = run_control_plane(spec, cfg, nullptr).timings;
    row.parallel = run_control_plane(spec, cfg, pool).timings;
    row.control_plane_speedup =
        row.parallel.combined() > 0.0
            ? row.serial.combined() / row.parallel.combined()
            : 0.0;
  }

  // End-to-end arm: full experiment build + Algorithm 1 round on the pool,
  // with the windows run concurrently (the fleet-scale configuration).
  runtime::Timer setup_t;
  const core::Experiment exp = core::build_experiment(spec, pool);
  row.setup_seconds = setup_t.seconds();
  row.edges = exp.topology.edges.size();
  row.rss_after_setup_bytes = current_rss_bytes();
  row.resident_state_bytes = exp.topology.clients.resident_bytes();
  row.naive_resident_bytes = naive_resident_projection(
      exp.topology.clients, nn::shape_size(exp.data_spec.sample_shape));

  // Trainer construction runs the whole grouping pipeline: label matrix
  // from descriptor histograms, per-edge windowed CoV greedy, streaming
  // Eq. 34 probabilities.
  runtime::Timer group_t;
  core::GroupFelTrainer trainer(
      exp.topology, cfg,
      core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg),
      pool);
  row.grouping_seconds = group_t.seconds();
  row.groups = trainer.groups().size();

  runtime::Timer round_t;
  const core::TrainResult result = trainer.train();
  row.rounds_per_sec =
      static_cast<double>(cfg.global_rounds) / round_t.seconds();
  row.final_accuracy = result.final_accuracy;
  row.peak_rss_bytes = peak_rss_bytes();
  if (row.naive_resident_bytes > 0)
    row.peak_rss_fraction_of_naive =
        static_cast<double>(row.peak_rss_bytes) /
        static_cast<double>(row.naive_resident_bytes);

  std::cout << "scale_sim: " << clients << " clients / " << row.edges
            << " edges -> " << row.groups << " groups\n"
            << "  control plane serial "
            << util::format_double(row.serial.combined()) << " s (partition "
            << util::format_double(row.serial.partition_seconds)
            << ", matrix "
            << util::format_double(row.serial.label_matrix_seconds)
            << ", grouping "
            << util::format_double(row.serial.grouping_seconds)
            << ", sampling "
            << util::format_double(row.serial.sampling_seconds) << ")\n"
            << "  control plane parallel(" << pool->size() << " threads) "
            << util::format_double(row.parallel.combined()) << " s -> "
            << util::format_double(row.control_plane_speedup) << "x\n"
            << "  setup " << util::format_double(row.setup_seconds)
            << " s, grouping " << util::format_double(row.grouping_seconds)
            << " s, " << util::format_double(row.rounds_per_sec)
            << " rounds/s (acc " << util::format_double(row.final_accuracy)
            << ")\n"
            << "  client state " << row.resident_state_bytes
            << " B resident vs naive projection " << row.naive_resident_bytes
            << " B; peak RSS " << row.peak_rss_bytes << " B ("
            << util::format_double(100.0 * row.peak_rss_fraction_of_naive)
            << "% of naive)\n";
  print_group_size_histogram(trainer.groups());
  return row;
}

std::string phases_json(const PhaseTimings& t) {
  return "{\"partition_seconds\": " + util::format_double(t.partition_seconds) +
         ", \"label_matrix_seconds\": " +
         util::format_double(t.label_matrix_seconds) +
         ", \"grouping_seconds\": " +
         util::format_double(t.grouping_seconds) +
         ", \"sampling_seconds\": " +
         util::format_double(t.sampling_seconds) +
         ", \"combined_seconds\": " + util::format_double(t.combined()) + "}";
}

void write_json(const std::vector<ScaleRow>& rows,
                const std::string& speedup_note) {
  const std::string path = "BENCH_scale.json";
  std::ofstream out(path);
  out << "{\n  \"schema\": \"groupfel-scale-bench-v2\",\n"
      << "  \"context\": " << bench::hardware_context_json() << ",\n"
      << "  \"scenario\": {\"model\": \"mlp-h32\", \"grouping\": "
         "\"CoVG window=256 MinGS=100\", \"sampling\": \"ESRCoV\", "
         "\"global_rounds\": 1, \"group_rounds\": 1, \"local_epochs\": 1, "
         "\"sampled_groups\": 16, \"parallel_threads\": "
      << parallel_pool()->size() << "},\n"
      << "  \"speedup_note\": \"" << speedup_note << "\",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    out << "    {\"clients\": " << r.clients << ", \"edges\": " << r.edges
        << ", \"groups\": " << r.groups
        << ",\n     \"control_plane_serial\": " << phases_json(r.serial)
        << ",\n     \"control_plane_parallel\": " << phases_json(r.parallel)
        << ",\n     \"control_plane_speedup\": "
        << util::format_double(r.control_plane_speedup)
        << ",\n     \"setup_seconds\": "
        << util::format_double(r.setup_seconds)
        << ", \"grouping_seconds\": "
        << util::format_double(r.grouping_seconds)
        << ", \"rounds_per_sec\": " << util::format_double(r.rounds_per_sec)
        << ", \"resident_state_bytes\": " << r.resident_state_bytes
        << ", \"naive_resident_bytes\": " << r.naive_resident_bytes
        << ", \"rss_after_setup_bytes\": " << r.rss_after_setup_bytes
        << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
        << ", \"peak_rss_fraction_of_naive\": "
        << util::format_double(r.peak_rss_fraction_of_naive)
        << ", \"final_accuracy\": " << util::format_double(r.final_accuracy)
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"note\": \"kLazy client state: resident bytes are the "
         "descriptor table (label histogram + size + seed per client) plus "
         "class prototypes; naive_resident_bytes projects the conventional "
         "layout holding every client's feature tensor in memory. "
         "peak_rss_bytes is process-wide and cumulative across rows (rows "
         "run in ascending order). Gate: at >= 100k clients peak RSS must "
         "be < 10% of the naive projection. control_plane_serial runs the "
         "four phases with no pool; control_plane_parallel runs them on the "
         "pool, greedy windows concurrently (bit-identical output). "
         "Gate: at 1M clients combined speedup >= 1.8x at 4 threads on "
         "hosts with >= 4 hardware threads.\"\n"
      << "}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags = bench::init(argc, argv);
  if (flags.get_bool("smoke", false)) return run_smoke();

  const std::size_t max_clients = static_cast<std::size_t>(
      flags.get_int("max-clients", 1000000));
  const std::size_t scales[] = {1000, 10000, 100000, 1000000};

  std::vector<ScaleRow> rows;
  for (std::size_t clients : scales) {
    if (clients > max_clients) continue;
    rows.push_back(run_scale(clients));
  }
  if (rows.empty()) return fail("--max-clients excludes every scale");

  // Acceptance gate: the descriptor engine must hold a 100k-client (and
  // larger) federation in well under a tenth of the naive resident memory.
  for (const ScaleRow& r : rows) {
    if (r.clients < 100000 || r.peak_rss_bytes == 0) continue;
    if (r.peak_rss_fraction_of_naive >= 0.10)
      return fail("peak RSS at " + std::to_string(r.clients) +
                  " clients is " +
                  std::to_string(100.0 * r.peak_rss_fraction_of_naive) +
                  "% of the naive resident projection (gate: < 10%)");
  }

  // Speedup gate: only meaningful when the host can actually run the
  // 4-thread arm on distinct cores (BENCH_sweep.json convention: annotate,
  // don't fail, on smaller hosts).
  const unsigned hw = std::thread::hardware_concurrency();
  std::string speedup_note;
  const ScaleRow& last = rows.back();
  if (hw >= 4) {
    speedup_note = "multi-core host (hardware_threads = " +
                   std::to_string(hw) + "): speedup gate enforced";
    if (last.clients >= 1000000 && last.control_plane_speedup < 1.8)
      return fail("combined control-plane speedup at " +
                  std::to_string(last.clients) + " clients is " +
                  std::to_string(last.control_plane_speedup) +
                  "x (gate: >= 1.8x at 4 threads)");
  } else {
    speedup_note =
        "single-core host (hardware_threads = " + std::to_string(hw) +
        "): all pool threads multiplex the same core, so the parallel arm "
        "measures scheduling overhead only; the >= 1.8x combined-speedup "
        "gate at 1M clients is annotated, not enforced — re-run on a "
        "multi-core host to measure the control-plane speedup";
  }

  write_json(rows, speedup_note);
  return 0;
}
