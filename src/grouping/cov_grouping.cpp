// CoV-Grouping — the paper's Algorithm 2.
//
// Greedy: open a group with a random client, then repeatedly add the client
// that minimizes the group's CoV, while the group is under MinGS or above
// MaxCoV. The group is finalized when no candidate improves the CoV and the
// size constraint is met (MaxCoV is soft — see the paper's footnote 4).
//
// With params.greedy_window > 0 the greedy runs inside windows of a
// once-shuffled pool (streaming/partitioned mode for fleet-scale edges);
// window 0 is the classic whole-pool greedy, byte-identical to the original
// implementation. params.parallel_windows runs the windows concurrently,
// each on its own counter-based RNG stream, with groups emitted in
// deterministic window order — bit-identical for any ThreadPool size.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "grouping/grouping.hpp"
#include "util/check.hpp"

namespace groupfel::grouping {

namespace {

/// Algorithm 2 over one candidate pool; consumes `live`, appends to
/// `groups`. RNG draws: one next_below per opened group (line 3).
///
/// The window's label rows are copied once into a label-major table so one
/// pass evaluates CoV(g ∪ c) for every live candidate, lane by lane. Each
/// lane runs IncrementalCov::value_with's exact operation sequence (integer
/// total, mu = T/m, s += (mu - (g_j + c_j))^2 in j order, sqrt(s/m)/mu), so
/// the values are bit-identical to it; g_j + c_j is exact in double because
/// every total stays below 2^53. Live candidates stay in pool order
/// (order-preserving erase) and the scan keeps the FIRST minimum, so
/// tie-breaking matches the historical erase-based greedy.
void greedy_over_pool(const data::LabelMatrix& matrix,
                      const GroupingParams& params, runtime::Rng& rng,
                      std::vector<std::size_t> live, Grouping& groups) {
  const std::size_t m = matrix.num_labels();
  const std::size_t n = live.size();
  const double md = static_cast<double>(m);
  // table[j * n + k]: label j of the k-th live candidate.
  std::vector<double> table(m * n);
  std::vector<std::size_t> totals(n);
  std::size_t pool_total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto row = matrix.row(live[k]);
    std::size_t t = 0;
    for (std::size_t j = 0; j < m; ++j) {
      table[j * n + k] = static_cast<double>(row[j]);
      t += row[j];
    }
    totals[k] = t;
    pool_total += t;
  }
  GF_CHECK(pool_total < (std::size_t{1} << 53),
           "cov_grouping: window total ", pool_total,
           " exceeds exact double range");

  const auto erase = [&](std::size_t k) {
    const std::size_t len = live.size();
    for (std::size_t j = 0; j < m; ++j) {
      double* col = table.data() + j * n;
      std::copy(col + k + 1, col + len, col + k);
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    totals.erase(totals.begin() + static_cast<std::ptrdiff_t>(k));
  };

  // Per live candidate: mu = T/m, and cov, which holds the squared
  // deviation sum until the last pass turns it into CoV(g ∪ c).
  std::vector<double> mu(n), cov(n);
  while (!live.empty()) {
    // Line 3: random first client — the paper notes this randomization is
    // what makes periodic regrouping produce fresh groups.
    const std::size_t first = rng.next_below(live.size());
    std::vector<std::size_t> group{live[first]};
    erase(first);

    IncrementalCov inc(m);
    inc.add(matrix.row(group[0]));

    // Line 4: loop while the group does not yet meet its requirement.
    while ((inc.value() > params.max_cov ||
            group.size() < params.min_group_size) &&
           !live.empty()) {
      // Line 5: the candidate that minimizes CoV(g ∪ c).
      const std::size_t len = live.size();
      const auto g = inc.counts();
      for (std::size_t k = 0; k < len; ++k) {
        mu[k] = static_cast<double>(inc.total() + totals[k]) / md;
        cov[k] = 0.0;
      }
      for (std::size_t j = 0; j < m; ++j) {
        const double gj = static_cast<double>(g[j]);
        const double* col = table.data() + j * n;
        for (std::size_t k = 0; k < len; ++k) {
          const double d = mu[k] - (gj + col[k]);
          cov[k] += d * d;
        }
      }
      for (std::size_t k = 0; k < len; ++k)
        cov[k] = inc.total() + totals[k] == 0
                     ? 0.0
                     : std::sqrt(cov[k] / md) / mu[k];
      double best_cov = std::numeric_limits<double>::infinity();
      std::size_t best = 0;
      for (std::size_t k = 0; k < len; ++k) {
        if (cov[k] < best_cov) {
          best_cov = cov[k];
          best = k;
        }
      }
      // Line 6: add if it improves CoV, or the group is still too small.
      if (best_cov < inc.value() || group.size() < params.min_group_size) {
        const std::size_t chosen = live[best];
        inc.add(matrix.row(chosen));
        group.push_back(chosen);
        erase(best);
      } else {
        break;  // Line 9: finalize (MaxCoV is a soft constraint).
      }
    }
    groups.push_back(std::move(group));
  }
}

}  // namespace

Grouping cov_grouping(const data::LabelMatrix& matrix,
                      const GroupingParams& params, runtime::Rng& rng,
                      runtime::ThreadPool* pool) {
  const std::size_t n = matrix.num_clients();
  Grouping groups;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  const std::size_t window = params.greedy_window;
  if (window == 0 || n <= window) {
    greedy_over_pool(matrix, params, rng, std::move(order), groups);
    return groups;
  }

  // Streaming mode: one shuffle gives every window an unbiased slice of the
  // population.
  rng.shuffle(order);
  const std::size_t num_windows = (n + window - 1) / window;
  const auto window_items = [&](std::size_t w) {
    const std::size_t start = w * window;
    const std::size_t end = std::min(n, start + window);
    return std::vector<std::size_t>(
        order.begin() + static_cast<std::ptrdiff_t>(start),
        order.begin() + static_cast<std::ptrdiff_t>(end));
  };

  if (!params.parallel_windows) {
    // Serial windows thread ONE stream through all windows in order —
    // byte-identical to previous releases.
    for (std::size_t w = 0; w < num_windows; ++w)
      greedy_over_pool(matrix, params, rng, window_items(w), groups);
    return groups;
  }

  // Parallel windows: one counter-based stream per window (fork is const,
  // so the streams do not depend on execution order), per-window output
  // slots, deterministic window-order concatenation.
  std::vector<Grouping> per_window(num_windows);
  const auto run_window = [&](std::size_t w) {
    runtime::Rng wrng = rng.fork(w);
    greedy_over_pool(matrix, params, wrng, window_items(w), per_window[w]);
  };
  if (pool != nullptr && pool->size() > 1 && num_windows > 1) {
    pool->parallel_for(num_windows, run_window);
  } else {
    for (std::size_t w = 0; w < num_windows; ++w) run_window(w);
  }
  for (auto& wg : per_window)
    for (auto& g : wg) groups.push_back(std::move(g));
  return groups;
}

}  // namespace groupfel::grouping
