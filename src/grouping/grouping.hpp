// Common grouping interface.
//
// A grouping is a partition of the clients of ONE edge server (identified by
// their row index in that edge's LabelMatrix) into mutually exclusive
// groups, per §3.1. Four algorithms are provided:
//   - CoVG  : the paper's CoV-Grouping greedy (Algorithm 2)
//   - RG    : random grouping (FedAvg/FedProx/SCAFFOLD baseline)
//   - CDG   : clustering-then-distribution, ported from OUEA [13]
//   - KLDG  : KL-divergence grouping, ported from SHARE [14]
#pragma once

#include <string>
#include <vector>

#include "data/label_matrix.hpp"
#include "grouping/cov.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::grouping {

/// Groups are lists of client indices (rows of the edge's LabelMatrix).
using Grouping = std::vector<std::vector<std::size_t>>;

struct GroupingParams {
  std::size_t min_group_size = 5;  ///< MinGS anonymity constraint (Eq. 31)
  double max_cov = 1.0;            ///< MaxCoV soft constraint (CoVG only)
  std::size_t num_clusters = 0;    ///< CDG: #clusters (0 = num_labels)
  double kld_threshold = 0.01;     ///< KLDG: target KLD to global dist
  /// Streaming/partitioned greedy (CoVG and KLDG): 0 runs the classic
  /// whole-pool greedy on the caller's rng. A value w > 0 shuffles the pool
  /// once and runs the greedy inside consecutive windows of w clients,
  /// window i on rng.fork(i), cutting candidate scans from O(n^2 m) to
  /// O(n w m) so an edge with 10^6 clients forms groups in seconds. Within
  /// a window the algorithm is EXACTLY Algorithm 2; the paper's guarantees
  /// are local to a group, so windowing trades only cross-window candidate
  /// choice.
  std::size_t greedy_window = 0;
  /// Windowed CoVG/KLDG only: run the windows concurrently on the caller's
  /// ThreadPool instead of one after another. Concurrency only: every
  /// window draws from its own fork either way and groups are emitted in
  /// window order, so the result is the same for both values and any pool
  /// size, including none.
  bool parallel_windows = false;

  friend bool operator==(const GroupingParams&,
                         const GroupingParams&) = default;
};

/// The paper's Algorithm 2 (greedy CoV grouping). `pool` is used only to
/// run windows concurrently (see GroupingParams::parallel_windows).
[[nodiscard]] Grouping cov_grouping(const data::LabelMatrix& matrix,
                                    const GroupingParams& params,
                                    runtime::Rng& rng,
                                    runtime::ThreadPool* pool = nullptr);

/// Uniform random partition into groups of ~min_group_size clients.
[[nodiscard]] Grouping random_grouping(const data::LabelMatrix& matrix,
                                       const GroupingParams& params,
                                       runtime::Rng& rng,
                                       runtime::ThreadPool* pool = nullptr);

/// OUEA's clustering-then-distribution: k-means over normalized label
/// distributions, then members of each cluster are dealt round-robin across
/// groups so each group mixes all client types. `pool` parallelizes the
/// feature build, the k-means inner loops, and the cluster bucketing;
/// bit-identical for any pool size.
[[nodiscard]] Grouping cdg_grouping(const data::LabelMatrix& matrix,
                                    const GroupingParams& params,
                                    runtime::Rng& rng,
                                    runtime::ThreadPool* pool = nullptr);

/// SHARE's KLD-based greedy: Algorithm 2's greedy with the Kullback–Leibler
/// divergence between the group's label distribution and the global one as
/// the criterion. Same KLD values and groups as SHARE's per-candidate
/// re-sum, at O(|K|^3 |Y|) log() calls (see greedy.cpp).
[[nodiscard]] Grouping kldg_grouping(const data::LabelMatrix& matrix,
                                     const GroupingParams& params,
                                     runtime::Rng& rng,
                                     runtime::ThreadPool* pool = nullptr);

// ---- Registry (grouping/registry.cpp) ----

enum class GroupingMethod { kRandom, kCdg, kKldg, kCov };

[[nodiscard]] Grouping form_groups(GroupingMethod method,
                                   const data::LabelMatrix& matrix,
                                   const GroupingParams& params,
                                   runtime::Rng& rng,
                                   runtime::ThreadPool* pool = nullptr);

[[nodiscard]] std::string to_string(GroupingMethod method);
[[nodiscard]] GroupingMethod grouping_method_from_string(const std::string& name);

/// Validates that `grouping` is a partition of [0, matrix.num_clients());
/// throws std::logic_error otherwise. form_groups checks its result with it
/// when debug checks are on (GROUPFEL_DEBUG_CHECKS, as for GF_DCHECK); tests
/// call it directly.
void validate_partition(const Grouping& grouping, std::size_t num_clients);

/// Summary statistics used by Table 1 and Fig. 6.
struct GroupingSummary {
  std::size_t num_groups = 0;
  std::size_t min_size = 0;
  std::size_t max_size = 0;
  double avg_size = 0.0;
  double avg_cov = 0.0;   ///< unweighted mean of group CoVs
  double max_group_cov = 0.0;
};

[[nodiscard]] GroupingSummary summarize(const data::LabelMatrix& matrix,
                                        const Grouping& grouping);

}  // namespace groupfel::grouping
