// Parallel control plane: bit-identity gates for every parallelized stage.
//
// The contract under test (docs/DEVELOPMENT.md "Parallel control plane"):
// each stage — descriptor partition, label-matrix build, parallel-windows
// greedy, CDG bucketing, Eq. 34 sampling reduction, size histogram — must
// produce BIT-identical output for any ThreadPool size, including none.
// Randomness is keyed by logical index (client / window), never thread
// identity, and float reductions have a fixed block shape, so pools of
// 0 (nullptr), 2, and 24 threads are interchangeable.
//
// Also gated here: the CoVG and KLDG greedies (one label-major skeleton)
// must stay byte-identical to the historical erase-based greedy (reference
// implementations embedded below), the partition, CoVG and KLDG outputs
// must match hashes pinned on the scalar loops, and the per-window RNG
// streams must be independent of window execution order.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "core/edge_server.hpp"
#include "data/client_descriptor.hpp"
#include "data/label_matrix.hpp"
#include "grouping/grouping.hpp"
#include "runtime/thread_pool.hpp"
#include "sampling/sampler.hpp"
#include "util/stats.hpp"

namespace groupfel {
namespace {

/// Runs `body(pool)` with no pool and with 2- and 24-thread pools. The
/// body compares its pooled result against a serial baseline.
template <typename Body>
void for_each_pool(Body&& body) {
  body(nullptr);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{24}}) {
    runtime::ThreadPool pool(threads);
    body(&pool);
  }
}

data::PartitionSpec partition_spec(std::size_t clients) {
  data::PartitionSpec part;
  part.num_clients = clients;
  part.alpha = 0.1;
  part.size_mean = 40.0;
  part.size_std = 15.0;
  part.size_min = 10;
  part.size_max = 80;
  return part;
}

data::ClientPopulation make_population(std::size_t clients,
                                       std::uint64_t seed = 11,
                                       runtime::ThreadPool* pool = nullptr) {
  runtime::Rng rng(seed);
  return data::descriptor_partition(partition_spec(clients), 10, rng, pool);
}

/// Label matrix from a (serial) descriptor partition — the fleet-scale path.
data::LabelMatrix make_matrix(std::size_t clients, std::uint64_t seed = 11) {
  return data::LabelMatrix::from_population(make_population(clients, seed));
}

bool same_population(const data::ClientPopulation& a,
                     const data::ClientPopulation& b) {
  if (a.num_clients() != b.num_clients() ||
      a.num_classes() != b.num_classes())
    return false;
  for (std::size_t c = 0; c < a.num_clients(); ++c) {
    if (a.data_count(c) != b.data_count(c) || a.seed(c) != b.seed(c))
      return false;
    const auto ra = a.label_counts(c), rb = b.label_counts(c);
    for (std::size_t j = 0; j < ra.size(); ++j)
      if (ra[j] != rb[j]) return false;
  }
  return true;
}

bool same_matrix(const data::LabelMatrix& a, const data::LabelMatrix& b) {
  if (a.num_clients() != b.num_clients() || a.num_labels() != b.num_labels())
    return false;
  for (std::size_t c = 0; c < a.num_clients(); ++c) {
    const auto ra = a.row(c), rb = b.row(c);
    for (std::size_t j = 0; j < ra.size(); ++j)
      if (ra[j] != rb[j]) return false;
  }
  return true;
}

// ---- Stage 1: descriptor partition ---------------------------------------

TEST(ParallelPartition, BitIdenticalAcrossPools) {
  // 5000 clients = 5 partition blocks of 1024.
  const data::ClientPopulation serial = make_population(5000);
  for_each_pool([&](runtime::ThreadPool* pool) {
    const data::ClientPopulation pooled = make_population(5000, 11, pool);
    EXPECT_TRUE(same_population(serial, pooled));
  });
}

TEST(ParallelPartition, RangeSlabsReproduceFullPartition) {
  // Filling arbitrary slabs (out of order) must reproduce the one-shot
  // partition bit for bit — the contract scale_sim's progress ticks rely on.
  const data::ClientPopulation full = make_population(3000);
  runtime::Rng rng(11);
  data::ClientPopulation slabbed(3000, 10);
  // Slabs cover [0, 3000) but run out of order with uneven boundaries.
  const std::pair<std::size_t, std::size_t> slabs[] = {
      {2048, 3000}, {0, 700}, {700, 2048}};
  for (const auto& [begin, end] : slabs)
    data::descriptor_partition_range(slabbed, partition_spec(3000), rng,
                                     begin, end);
  EXPECT_TRUE(same_population(full, slabbed));
}

// ---- Stage 2: label matrix ------------------------------------------------

TEST(ParallelLabelMatrix, BitIdenticalAcrossPools) {
  // 9000 clients = 3 row blocks of 4096.
  const data::ClientPopulation pop = make_population(9000);
  const data::LabelMatrix serial = data::LabelMatrix::from_population(pop);
  for_each_pool([&](runtime::ThreadPool* pool) {
    EXPECT_TRUE(
        same_matrix(serial, data::LabelMatrix::from_population(pop, pool)));
  });
}

// ---- Stage 3: grouping ----------------------------------------------------

// parallel_windows only chooses whether the windows run concurrently, so
// both values must give the serial baseline's groups for every pool.

TEST(ParallelWindows, CovBitIdenticalAcrossPools) {
  const data::LabelMatrix matrix = make_matrix(600);
  grouping::GroupingParams params;
  params.min_group_size = 8;
  params.greedy_window = 64;
  runtime::Rng base(5);
  const grouping::Grouping serial =
      grouping::cov_grouping(matrix, params, base, nullptr);
  grouping::validate_partition(serial, matrix.num_clients());
  for (const bool parallel_windows : {false, true}) {
    params.parallel_windows = parallel_windows;
    for_each_pool([&](runtime::ThreadPool* pool) {
      runtime::Rng rng(5);
      EXPECT_EQ(serial, grouping::cov_grouping(matrix, params, rng, pool))
          << "parallel_windows " << parallel_windows;
    });
  }
}

TEST(ParallelWindows, KldgBitIdenticalAcrossPools) {
  const data::LabelMatrix matrix = make_matrix(300);
  grouping::GroupingParams params;
  params.min_group_size = 6;
  params.greedy_window = 48;
  runtime::Rng base(9);
  const grouping::Grouping serial =
      grouping::kldg_grouping(matrix, params, base, nullptr);
  grouping::validate_partition(serial, matrix.num_clients());
  for (const bool parallel_windows : {false, true}) {
    params.parallel_windows = parallel_windows;
    for_each_pool([&](runtime::ThreadPool* pool) {
      runtime::Rng rng(9);
      EXPECT_EQ(serial, grouping::kldg_grouping(matrix, params, rng, pool))
          << "parallel_windows " << parallel_windows;
    });
  }
}

TEST(ParallelCdg, BitIdenticalAcrossPools) {
  // 5000 clients > one 4096 block, so the k-means assignment, centroid
  // reduction, and counting-sort bucketing all run multi-block.
  const data::LabelMatrix matrix = make_matrix(5000, 23);
  grouping::GroupingParams params;
  params.min_group_size = 50;
  runtime::Rng base(13);
  const grouping::Grouping serial =
      grouping::cdg_grouping(matrix, params, base, nullptr);
  grouping::validate_partition(serial, matrix.num_clients());
  for_each_pool([&](runtime::ThreadPool* pool) {
    runtime::Rng rng(13);
    EXPECT_EQ(serial, grouping::cdg_grouping(matrix, params, rng, pool));
  });
}

TEST(ParallelWindows, StreamsIndependentOfExecutionOrder) {
  // Each window's RNG stream is rng.fork(window_index) off the post-shuffle
  // state, and fork is const — so running the windows in ANY order must
  // give the same groups. Replicate the windowed pipeline by hand, windows
  // in reverse, via submatrices + the classic whole-pool greedy.
  const data::LabelMatrix matrix = make_matrix(200, 31);
  grouping::GroupingParams params;
  params.min_group_size = 7;
  params.greedy_window = 50;
  runtime::Rng rng(77);
  const grouping::Grouping expected =
      grouping::cov_grouping(matrix, params, rng, nullptr);

  runtime::Rng replay(77);
  std::vector<std::size_t> order(matrix.num_clients());
  std::iota(order.begin(), order.end(), std::size_t{0});
  replay.shuffle(order);
  const std::size_t w = params.greedy_window;
  const std::size_t num_windows = (order.size() + w - 1) / w;
  std::vector<grouping::Grouping> per_window(num_windows);
  for (std::size_t i = num_windows; i-- > 0;) {  // reverse execution order
    const std::size_t start = i * w;
    const std::size_t end = std::min(order.size(), start + w);
    const std::vector<std::size_t> items(
        order.begin() + static_cast<std::ptrdiff_t>(start),
        order.begin() + static_cast<std::ptrdiff_t>(end));
    grouping::GroupingParams classic = params;
    classic.greedy_window = 0;
    runtime::Rng wrng = replay.fork(i);
    grouping::Grouping local = grouping::cov_grouping(
        matrix.submatrix(items), classic, wrng, nullptr);
    for (auto& group : local)
      for (auto& member : group) member = items[member];
    per_window[i] = std::move(local);
  }
  grouping::Grouping assembled;
  for (auto& wg : per_window)
    for (auto& g : wg) assembled.push_back(std::move(g));
  EXPECT_EQ(expected, assembled);
}

// ---- Stage 4: Eq. 34 sampling + histogram ---------------------------------

TEST(ParallelSampling, ProbabilitiesBitIdenticalAcrossPools) {
  // 5000 groups = 3 blocks of 2048: the blocked Kahan tree reduction runs
  // multi-block in every weight mode.
  runtime::Rng rng(41);
  std::vector<double> covs(5000);
  for (double& c : covs) c = 0.01 + 1.99 * rng.next_double();
  for (const auto method :
       {sampling::SamplingMethod::kRandom, sampling::SamplingMethod::kRCov,
        sampling::SamplingMethod::kSRCov, sampling::SamplingMethod::kESRCov}) {
    std::vector<double> serial;
    sampling::sampling_probabilities_into(method, covs, serial);
    for_each_pool([&](runtime::ThreadPool* pool) {
      std::vector<double> pooled;
      sampling::sampling_probabilities_into(
          method, covs, pooled, sampling::kDefaultCovFloor, pool);
      ASSERT_EQ(serial.size(), pooled.size());
      for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], pooled[i]) << "method/group "
                                        << static_cast<int>(method) << "/"
                                        << i;
    });
  }
}

TEST(ParallelSampling, HistogramBitIdenticalAcrossPools) {
  // 9000 groups = 3 blocks of 4096.
  runtime::Rng rng(43);
  std::vector<core::FormedGroup> groups(9000);
  for (auto& g : groups)
    g.clients.resize(1 + rng.next_below(37));
  const std::vector<std::size_t> serial = core::group_size_histogram(groups);
  for_each_pool([&](runtime::ThreadPool* pool) {
    EXPECT_EQ(serial, core::group_size_histogram(groups, pool));
  });
}

// ---- Pinned output hashes -------------------------------------------------
//
// FNV-1a hashes of the partition, CoVG and KLDG outputs, recorded on the
// scalar per-sample categorical loop, the scalar value_with candidate scan
// and the per-candidate KLD re-sum that the batched draw and the label-major
// scans replaced. The CoVG "64, serial" entries equal their "64, parallel"
// twins: every window draws from its own fork. A reference compiled into
// this TU cannot catch FMA contraction or flag drift in the production TUs
// (it would drift with them); a constant can.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void fnv1a(std::uint64_t& h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

std::uint64_t population_hash(const data::ClientPopulation& pop) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t c = 0; c < pop.num_clients(); ++c) {
    fnv1a(h, pop.data_count(c));
    fnv1a(h, pop.seed(c));
    for (const auto count : pop.label_counts(c)) fnv1a(h, count);
  }
  return h;
}

std::uint64_t grouping_hash(const grouping::Grouping& groups) {
  std::uint64_t h = kFnvOffset;
  for (const auto& group : groups) {
    fnv1a(h, group.size());
    for (const auto member : group) fnv1a(h, member);
  }
  return h;
}

TEST(PinnedHashes, DescriptorPartition) {
  struct Case {
    std::size_t classes;
    double alpha;
    std::uint64_t hash;
  };
  const Case cases[] = {{10, 0.5, 0xf3d2701cc5748adeull},
                        {10, 0.01, 0xe2bafc6e3355f0ddull},
                        {35, 0.5, 0x589f75bbab2fdd12ull},
                        {35, 0.01, 0xc6d6b5d9384ccf60ull}};
  for (const Case& c : cases) {
    data::PartitionSpec spec = partition_spec(20000);
    spec.alpha = c.alpha;
    for_each_pool([&](runtime::ThreadPool* pool) {
      runtime::Rng rng(2023);
      const std::uint64_t h = population_hash(
          data::descriptor_partition(spec, c.classes, rng, pool));
      EXPECT_EQ(h, c.hash) << "classes " << c.classes << " alpha " << c.alpha
                           << ": 0x" << std::hex << h;
    });
  }
}

/// One-hot clients of a few sizes: many candidates tie in exact
/// arithmetic, so the scan's pick rests on the last bit of each lane's CoV.
/// That is where FMA contraction of `s + d * d` shows.
data::LabelMatrix one_hot_matrix(std::size_t clients, std::size_t labels) {
  std::vector<std::vector<std::size_t>> rows(
      clients, std::vector<std::size_t>(labels, 0));
  for (std::size_t c = 0; c < clients; ++c)
    rows[c][(c * 7) % labels] = 30 * (1 + c % 3);
  return data::LabelMatrix(std::move(rows), labels);
}

TEST(PinnedHashes, CovGrouping) {
  struct Case {
    std::size_t classes;
    bool one_hot;
    std::size_t window;
    bool parallel_windows;
    std::uint64_t hash;
  };
  const Case cases[] = {{10, false, 0, false, 0xa832bfbff5229b7dull},
                        {10, false, 64, false, 0x9cb680ab7b55ef25ull},
                        {10, false, 64, true, 0x9cb680ab7b55ef25ull},
                        {35, false, 0, false, 0xdc77e00482879957ull},
                        {35, false, 64, false, 0x6adac3798f56d75dull},
                        {35, false, 64, true, 0x6adac3798f56d75dull},
                        {10, true, 0, false, 0x0bd6f75063d36125ull},
                        {10, true, 64, false, 0xd097558688c3e98dull},
                        {35, true, 64, true, 0x0f7733f762fcdfd9ull}};
  for (const Case& c : cases) {
    runtime::Rng part_rng(19);
    const data::LabelMatrix matrix =
        c.one_hot ? one_hot_matrix(700, c.classes)
                  : data::LabelMatrix::from_population(data::descriptor_partition(
                        partition_spec(700), c.classes, part_rng));
    grouping::GroupingParams params;
    params.min_group_size = 8;
    params.greedy_window = c.window;
    params.parallel_windows = c.parallel_windows;
    for_each_pool([&](runtime::ThreadPool* pool) {
      runtime::Rng rng(29);
      const std::uint64_t h =
          grouping_hash(grouping::cov_grouping(matrix, params, rng, pool));
      EXPECT_EQ(h, c.hash) << "classes " << c.classes << " one-hot "
                           << c.one_hot << " window " << c.window
                           << " parallel " << c.parallel_windows << ": 0x"
                           << std::hex << h;
    });
  }
}

TEST(PinnedHashes, KldgGrouping) {
  struct Case {
    std::size_t classes;
    bool one_hot;
    std::size_t window;
    std::uint64_t hash;
  };
  const Case cases[] = {{10, false, 0, 0xe82b1e4407fb0a0dull},
                        {10, false, 64, 0xbe87e807f3aeb2a9ull},
                        {35, false, 0, 0x3899fae51abc060full},
                        {35, false, 64, 0x5dd20237c9af1b6full},
                        {10, true, 0, 0x69f369c4d48ca6cdull},
                        {10, true, 64, 0x50b1d89c972dfc7bull}};
  for (const Case& c : cases) {
    runtime::Rng part_rng(37);
    const data::LabelMatrix matrix =
        c.one_hot ? one_hot_matrix(300, c.classes)
                  : data::LabelMatrix::from_population(data::descriptor_partition(
                        partition_spec(300), c.classes, part_rng));
    grouping::GroupingParams params;
    params.min_group_size = 6;
    params.greedy_window = c.window;
    params.parallel_windows = true;
    for_each_pool([&](runtime::ThreadPool* pool) {
      runtime::Rng rng(43);
      const std::uint64_t h =
          grouping_hash(grouping::kldg_grouping(matrix, params, rng, pool));
      EXPECT_EQ(h, c.hash) << "classes " << c.classes << " one-hot "
                           << c.one_hot << " window " << c.window << ": 0x"
                           << std::hex << h;
    });
  }
}

// ---- Production greedy vs the historical erase-based greedy ---------------
//
// Reference implementations: verbatim copies of the erase-based greedy
// (O(n) vector::erase per admission, scalar value_with scan, KLD re-summed
// from the member rows per candidate). The production skeleton must stay
// BYTE-identical to these — same candidate visit order, same first-minimum
// tie-breaking — in classic and windowed mode (window w on rng.fork(w)).

void reference_cov_greedy(const data::LabelMatrix& matrix,
                          const grouping::GroupingParams& params,
                          runtime::Rng& rng, std::vector<std::size_t>& pool,
                          grouping::Grouping& groups) {
  while (!pool.empty()) {
    const std::size_t first_pos = rng.next_below(pool.size());
    std::vector<std::size_t> group{pool[first_pos]};
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(first_pos));

    grouping::IncrementalCov inc(matrix.num_labels());
    inc.add(matrix.row(group[0]));

    while ((inc.value() > params.max_cov ||
            group.size() < params.min_group_size) &&
           !pool.empty()) {
      double best_cov = std::numeric_limits<double>::infinity();
      std::size_t best_pos = 0;
      for (std::size_t pos = 0; pos < pool.size(); ++pos) {
        const double c = inc.value_with(matrix.row(pool[pos]));
        if (c < best_cov) {
          best_cov = c;
          best_pos = pos;
        }
      }
      if (best_cov < inc.value() || group.size() < params.min_group_size) {
        inc.add(matrix.row(pool[best_pos]));
        group.push_back(pool[best_pos]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
      } else {
        break;
      }
    }
    groups.push_back(std::move(group));
  }
}

grouping::Grouping reference_cov_grouping(
    const data::LabelMatrix& matrix, const grouping::GroupingParams& params,
    runtime::Rng& rng) {
  const std::size_t n = matrix.num_clients();
  grouping::Grouping groups;
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});

  const std::size_t window = params.greedy_window;
  if (window == 0 || n <= window) {
    reference_cov_greedy(matrix, params, rng, pool, groups);
    return groups;
  }
  rng.shuffle(pool);
  std::vector<std::size_t> window_pool;
  for (std::size_t start = 0; start < n; start += window) {
    const std::size_t end = std::min(n, start + window);
    window_pool.assign(pool.begin() + static_cast<std::ptrdiff_t>(start),
                       pool.begin() + static_cast<std::ptrdiff_t>(end));
    runtime::Rng wrng = rng.fork(start / window);
    reference_cov_greedy(matrix, params, wrng, window_pool, groups);
  }
  return groups;
}

double reference_group_kld(const data::LabelMatrix& matrix,
                           const std::vector<std::size_t>& group,
                           std::size_t extra_client,
                           const std::vector<double>& global_dist,
                           std::vector<double>& counts) {
  counts.assign(matrix.num_labels(), 0.0);
  for (auto c : group) {
    const auto row = matrix.row(c);
    for (std::size_t j = 0; j < counts.size(); ++j)
      counts[j] += static_cast<double>(row[j]);
  }
  const auto row = matrix.row(extra_client);
  for (std::size_t j = 0; j < counts.size(); ++j)
    counts[j] += static_cast<double>(row[j]);
  return util::kl_divergence(counts, global_dist);
}

void reference_kldg_greedy(const data::LabelMatrix& matrix,
                           const grouping::GroupingParams& params,
                           runtime::Rng& rng,
                           const std::vector<double>& global_dist,
                           std::vector<std::size_t>& pool,
                           grouping::Grouping& groups) {
  std::vector<double> scratch;
  while (!pool.empty()) {
    const std::size_t first_pos = rng.next_below(pool.size());
    std::vector<std::size_t> group{pool[first_pos]};
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(first_pos));

    auto current_kld = [&] {
      scratch.assign(matrix.num_labels(), 0.0);
      for (auto c : group) {
        const auto row = matrix.row(c);
        for (std::size_t j = 0; j < scratch.size(); ++j)
          scratch[j] += static_cast<double>(row[j]);
      }
      return util::kl_divergence(scratch, global_dist);
    };

    while ((current_kld() > params.kld_threshold ||
            group.size() < params.min_group_size) &&
           !pool.empty()) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_pos = 0;
      for (std::size_t pos = 0; pos < pool.size(); ++pos) {
        const double kld = reference_group_kld(matrix, group, pool[pos],
                                               global_dist, scratch);
        if (kld < best) {
          best = kld;
          best_pos = pos;
        }
      }
      if (best < current_kld() || group.size() < params.min_group_size) {
        group.push_back(pool[best_pos]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
      } else {
        break;
      }
    }
    groups.push_back(std::move(group));
  }
}

grouping::Grouping reference_kldg_grouping(
    const data::LabelMatrix& matrix, const grouping::GroupingParams& params,
    runtime::Rng& rng) {
  const std::size_t n = matrix.num_clients();
  const auto global_counts = matrix.global_counts();
  std::vector<double> global_dist(global_counts.size());
  for (std::size_t j = 0; j < global_counts.size(); ++j)
    global_dist[j] = static_cast<double>(global_counts[j]);

  grouping::Grouping groups;
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});

  const std::size_t window = params.greedy_window;
  if (window == 0 || n <= window) {
    reference_kldg_greedy(matrix, params, rng, global_dist, pool, groups);
    return groups;
  }
  rng.shuffle(pool);
  std::vector<std::size_t> window_pool;
  for (std::size_t start = 0; start < n; start += window) {
    const std::size_t end = std::min(n, start + window);
    window_pool.assign(pool.begin() + static_cast<std::ptrdiff_t>(start),
                       pool.begin() + static_cast<std::ptrdiff_t>(end));
    runtime::Rng wrng = rng.fork(start / window);
    reference_kldg_greedy(matrix, params, wrng, global_dist, window_pool,
                          groups);
  }
  return groups;
}

TEST(GreedySkeleton, CovByteIdenticalToEraseBasedGreedy) {
  for (const std::uint64_t seed : {3ull, 17ull}) {
    const data::LabelMatrix matrix = make_matrix(160, seed);
    for (const std::size_t window : {std::size_t{0}, std::size_t{48}}) {
      grouping::GroupingParams params;
      params.min_group_size = 6;
      params.greedy_window = window;
      runtime::Rng a(seed * 7 + 1), b(seed * 7 + 1);
      EXPECT_EQ(reference_cov_grouping(matrix, params, a),
                grouping::cov_grouping(matrix, params, b))
          << "seed " << seed << " window " << window;
    }
  }
}

TEST(GreedySkeleton, KldgByteIdenticalToEraseBasedGreedy) {
  for (const std::uint64_t seed : {3ull, 17ull}) {
    const data::LabelMatrix matrix = make_matrix(120, seed);
    for (const std::size_t window : {std::size_t{0}, std::size_t{40}}) {
      grouping::GroupingParams params;
      params.min_group_size = 5;
      params.greedy_window = window;
      runtime::Rng a(seed * 9 + 2), b(seed * 9 + 2);
      EXPECT_EQ(reference_kldg_grouping(matrix, params, a),
                grouping::kldg_grouping(matrix, params, b))
          << "seed " << seed << " window " << window;
    }
  }
}

}  // namespace
}  // namespace groupfel
