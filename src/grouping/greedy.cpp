// Greedy grouping: the paper's Algorithm 2 (CoVG) and the KLDG baseline
// ported from SHARE [14], on one skeleton.
//
// Both open a group with a random client, then repeatedly admit the
// candidate with the lowest criterion value while the group is under MinGS
// or above the criterion's threshold. The group is finalized when no
// candidate improves the value and the size constraint is met (the
// threshold is soft — see the paper's footnote 4). The criteria differ only
// in the value: CoV(g ∪ c) for CoVG, KLD(g ∪ c || global) for KLDG.
//
// With params.greedy_window > 0 the greedy runs inside windows of a
// once-shuffled pool (fleet-scale edges). Window w always draws from
// rng.fork(w), so the groups do not depend on whether the windows run one
// after another or concurrently (params.parallel_windows), nor on the
// ThreadPool size; they are emitted in window order. Window 0, or a pool no
// larger than the window, runs the whole pool on the caller's rng.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "grouping/grouping.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace groupfel::grouping {

namespace {

/// The live candidates of one pool, label-major: label j of lane k is
/// table[j * stride + k], and lanes stay in pool order.
struct Lanes {
  const double* table;
  std::size_t stride;
  const std::size_t* totals;  ///< samples per lane
  std::size_t len;            ///< live lanes
};

/// CoVG: CoV(g ∪ c). Each lane runs cov()'s exact operation sequence
/// (integer total, mu = T/m, s += (mu - (g_j + c_j))^2 in j order,
/// sqrt(s/m)/mu), so the values are bit-identical to it.
struct CovCriterion {
  double threshold;

  [[nodiscard]] double value(std::span<const std::size_t> g) const {
    return cov(g);
  }

  void score(std::span<const std::size_t> g, std::size_t g_total,
             const Lanes& lanes, double* mu, double* out) const {
    const double md = static_cast<double>(g.size());
    for (std::size_t k = 0; k < lanes.len; ++k) {
      mu[k] = static_cast<double>(g_total + lanes.totals[k]) / md;
      out[k] = 0.0;
    }
    for (std::size_t j = 0; j < g.size(); ++j) {
      const double gj = static_cast<double>(g[j]);
      const double* col = lanes.table + j * lanes.stride;
      for (std::size_t k = 0; k < lanes.len; ++k) {
        const double d = mu[k] - (gj + col[k]);
        out[k] += d * d;
      }
    }
    for (std::size_t k = 0; k < lanes.len; ++k)
      out[k] = g_total + lanes.totals[k] == 0
                   ? 0.0
                   : std::sqrt(out[k] / md) / mu[k];
  }
};

/// KLDG: KLD(g ∪ c || global). SHARE re-sums the group's rows for every
/// candidate, which is where the paper's O(|K|^4 |Y|) comes from. Here the
/// skeleton keeps the group's counts, and each lane runs
/// util::kl_divergence's exact operation sequence: ps += (g_j + c_j) + eps
/// in j order, then kl += pi * log(pi / qi). The counts are integers below
/// 2^53, so g_j + c_j is the double SHARE's re-sum gives, and the KLD
/// values and groups are SHARE's; qi depends only on the global counts, so
/// it is computed once. What remains is O(|K|^3 |Y|) log() calls.
struct KldCriterion {
  double threshold;
  std::vector<double> global;  ///< global label counts
  std::vector<double> q;       ///< smoothed global distribution, qi

  KldCriterion(const data::LabelMatrix& matrix, double kld_threshold)
      : threshold(kld_threshold) {
    for (const std::size_t c : matrix.global_counts())
      global.push_back(static_cast<double>(c));
    double qs = 0.0;
    for (const double c : global) qs += c + util::kKlSmoothing;
    for (const double c : global) q.push_back((c + util::kKlSmoothing) / qs);
  }

  [[nodiscard]] double value(std::span<const std::size_t> g) const {
    std::vector<double> p(g.size());
    for (std::size_t j = 0; j < g.size(); ++j)
      p[j] = static_cast<double>(g[j]);
    return util::kl_divergence(p, global);
  }

  void score(std::span<const std::size_t> g, std::size_t /*g_total*/,
             const Lanes& lanes, double* ps, double* out) const {
    constexpr double eps = util::kKlSmoothing;
    std::fill_n(ps, lanes.len, 0.0);
    std::fill_n(out, lanes.len, 0.0);
    for (std::size_t j = 0; j < g.size(); ++j) {
      const double gj = static_cast<double>(g[j]);
      const double* col = lanes.table + j * lanes.stride;
      for (std::size_t k = 0; k < lanes.len; ++k)
        ps[k] += (gj + col[k]) + eps;
    }
    for (std::size_t j = 0; j < g.size(); ++j) {
      const double gj = static_cast<double>(g[j]);
      const double* col = lanes.table + j * lanes.stride;
      for (std::size_t k = 0; k < lanes.len; ++k) {
        const double pi = ((gj + col[k]) + eps) / ps[k];
        out[k] += pi * std::log(pi / q[j]);
      }
    }
  }
};

/// Algorithm 2 over one candidate pool; consumes `live`, appends to
/// `groups`. RNG draws: one next_below per opened group (line 3).
///
/// The pool's label rows are copied once into a label-major table, so one
/// criterion call scores every live candidate per admission. Live
/// candidates stay in pool order (order-preserving erase) and the scan
/// keeps the FIRST minimum, so tie-breaking matches the historical
/// erase-based greedy.
template <typename Criterion>
void greedy_over_pool(const data::LabelMatrix& matrix,
                      const GroupingParams& params, const Criterion& criterion,
                      runtime::Rng& rng, std::vector<std::size_t> live,
                      Grouping& groups) {
  const std::size_t m = matrix.num_labels();
  const std::size_t n = live.size();
  std::vector<double> table(m * n);
  std::vector<std::size_t> totals(n);
  std::size_t pool_total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto row = matrix.row(live[k]);
    for (std::size_t j = 0; j < m; ++j) {
      table[j * n + k] = static_cast<double>(row[j]);
      totals[k] += row[j];
    }
    pool_total += totals[k];
  }
  GF_CHECK(pool_total < (std::size_t{1} << 53), "greedy grouping: pool total ",
           pool_total, " exceeds exact double range");

  const auto erase = [&](std::size_t k) {
    const std::size_t len = live.size();
    for (std::size_t j = 0; j < m; ++j) {
      double* col = table.data() + j * n;
      std::copy(col + k + 1, col + len, col + k);
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    totals.erase(totals.begin() + static_cast<std::ptrdiff_t>(k));
  };

  std::vector<double> scratch(n), score(n);
  std::vector<std::size_t> g(m);
  while (!live.empty()) {
    std::vector<std::size_t> group;
    std::fill(g.begin(), g.end(), std::size_t{0});
    std::size_t g_total = 0;
    const auto admit = [&](std::size_t k) {
      const auto row = matrix.row(live[k]);
      for (std::size_t j = 0; j < m; ++j) g[j] += row[j];
      g_total += totals[k];
      group.push_back(live[k]);
      erase(k);
    };
    // Line 3: random first client — the paper notes this randomization is
    // what makes periodic regrouping produce fresh groups.
    admit(rng.next_below(live.size()));
    double value = criterion.value(g);

    // Line 4: loop while the group does not yet meet its requirement.
    while ((value > criterion.threshold ||
            group.size() < params.min_group_size) &&
           !live.empty()) {
      // Line 5: the candidate with the lowest value; the first minimum wins.
      const Lanes lanes{table.data(), n, totals.data(), live.size()};
      criterion.score(g, g_total, lanes, scratch.data(), score.data());
      std::size_t best = 0;
      for (std::size_t k = 1; k < lanes.len; ++k)
        if (score[k] < score[best]) best = k;
      // Line 6: add it if it improves the value, or the group is too small.
      if (score[best] < value || group.size() < params.min_group_size) {
        admit(best);
        value = criterion.value(g);
      } else {
        break;  // Line 9: finalize (the threshold is soft).
      }
    }
    groups.push_back(std::move(group));
  }
}

template <typename Criterion>
Grouping greedy_grouping(const data::LabelMatrix& matrix,
                         const GroupingParams& params,
                         const Criterion& criterion, runtime::Rng& rng,
                         runtime::ThreadPool* pool) {
  const std::size_t n = matrix.num_clients();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Grouping groups;

  const std::size_t window = params.greedy_window;
  if (window == 0 || n <= window) {
    greedy_over_pool(matrix, params, criterion, rng, std::move(order), groups);
    return groups;
  }

  // One shuffle gives every window an unbiased slice of the population.
  // fork is const, so window w's stream does not depend on execution order;
  // per-window output slots keep the concatenation in window order.
  rng.shuffle(order);
  const std::size_t num_windows = (n + window - 1) / window;
  std::vector<Grouping> per_window(num_windows);
  const auto run_window = [&](std::size_t w) {
    const std::size_t start = w * window;
    const std::size_t end = std::min(n, start + window);
    runtime::Rng wrng = rng.fork(w);
    greedy_over_pool(matrix, params, criterion, wrng,
                     std::vector<std::size_t>(
                         order.begin() + static_cast<std::ptrdiff_t>(start),
                         order.begin() + static_cast<std::ptrdiff_t>(end)),
                     per_window[w]);
  };
  if (params.parallel_windows && pool != nullptr && pool->size() > 1) {
    pool->parallel_for(num_windows, run_window);
  } else {
    for (std::size_t w = 0; w < num_windows; ++w) run_window(w);
  }
  for (auto& wg : per_window)
    for (auto& g : wg) groups.push_back(std::move(g));
  return groups;
}

}  // namespace

Grouping cov_grouping(const data::LabelMatrix& matrix,
                      const GroupingParams& params, runtime::Rng& rng,
                      runtime::ThreadPool* pool) {
  return greedy_grouping(matrix, params, CovCriterion{params.max_cov}, rng,
                         pool);
}

Grouping kldg_grouping(const data::LabelMatrix& matrix,
                       const GroupingParams& params, runtime::Rng& rng,
                       runtime::ThreadPool* pool) {
  return greedy_grouping(matrix, params,
                         KldCriterion(matrix, params.kld_threshold), rng, pool);
}

}  // namespace groupfel::grouping
