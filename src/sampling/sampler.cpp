#include "sampling/sampler.hpp"

#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace groupfel::sampling {

std::string to_string(SamplingMethod method) {
  switch (method) {
    case SamplingMethod::kRandom: return "Random";
    case SamplingMethod::kRCov: return "RCoV";
    case SamplingMethod::kSRCov: return "SRCoV";
    case SamplingMethod::kESRCov: return "ESRCoV";
  }
  return "?";
}

SamplingMethod sampling_method_from_string(const std::string& name) {
  if (name == "Random" || name == "random" || name == "RS")
    return SamplingMethod::kRandom;
  if (name == "RCoV" || name == "rcov") return SamplingMethod::kRCov;
  if (name == "SRCoV" || name == "srcov") return SamplingMethod::kSRCov;
  if (name == "ESRCoV" || name == "esrcov" || name == "CoVS")
    return SamplingMethod::kESRCov;
  throw std::invalid_argument("unknown sampling method: " + name);
}

namespace {

/// Group-block granularity for the Eq. 34 reductions. Fixed by the group
/// count alone, so the blocked sums below have the same shape — and
/// therefore the same result — for any pool size. One block (every
/// pre-fleet scenario) reproduces the historical single-stream Kahan
/// accumulation exactly.
constexpr std::size_t kGroupBlock = 2048;

/// Runs body(block_index) over ceil(n / kGroupBlock) blocks.
template <typename Body>
void for_each_group_block(std::size_t n, runtime::ThreadPool* pool,
                          const Body& body) {
  const std::size_t blocks = (n + kGroupBlock - 1) / kGroupBlock;
  if (pool != nullptr && pool->size() > 1 && blocks > 1) {
    pool->parallel_for(blocks, body);
  } else {
    for (std::size_t bi = 0; bi < blocks; ++bi) body(bi);
  }
}

}  // namespace

void sampling_probabilities_into(SamplingMethod method,
                                 std::span<const double> group_covs,
                                 std::vector<double>& out, double cov_floor,
                                 runtime::ThreadPool* pool) {
  GF_CHECK(!group_covs.empty(), "sampling_probabilities_into: no groups");
  GF_CHECK(cov_floor > 0.0,
           "sampling_probabilities_into: cov_floor must be > 0");
  const std::size_t n = group_covs.size();
  const std::size_t blocks = (n + kGroupBlock - 1) / kGroupBlock;
  out.resize(n);

  if (method == SamplingMethod::kRandom) {
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(n));
    check_probability_vector(out, "sampling_probabilities_into");
    return;
  }

  // x_g = 1 / max(CoV, floor); the floor keeps perfectly-IID groups finite.
  const auto weight_x = [&](std::size_t i) {
    GF_CHECK(group_covs[i] >= 0.0,
             "sampling_probabilities_into: negative CoV ", group_covs[i],
             " for group ", i);
    return 1.0 / std::max(group_covs[i], cov_floor);
  };
  // Per-block Kahan accumulator: a naive sum over 10^5+ groups loses
  // enough mass to trip the invariant check below.
  struct Kahan {
    double total = 0.0, comp = 0.0;
    void add(double v) {
      const double y = v - comp;
      const double t = total + y;
      comp = (t - total) - y;
      total = t;
    }
  };
  std::vector<double> block_totals(blocks, 0.0);

  double shift = 0.0;
  if (method == SamplingMethod::kESRCov) {
    // Pass 1: exponents into `out` (reused as scratch) and per-block
    // maxima; the global max shift keeps e^{x^2} overflow-free.
    std::vector<double> block_max(blocks, 0.0);
    for_each_group_block(n, pool, [&](std::size_t bi) {
      const std::size_t i0 = bi * kGroupBlock;
      const std::size_t i1 = std::min(n, i0 + kGroupBlock);
      double mx = 0.0;
      for (std::size_t i = i0; i < i1; ++i) {
        const double x = weight_x(i);
        out[i] = x * x;
        mx = std::max(mx, out[i]);
      }
      block_max[bi] = mx;
    });
    for (std::size_t bi = 0; bi < blocks; ++bi)
      shift = std::max(shift, block_max[bi]);
    // Pass 2: per-block Kahan sums of the shifted exponentials.
    for_each_group_block(n, pool, [&](std::size_t bi) {
      const std::size_t i0 = bi * kGroupBlock;
      const std::size_t i1 = std::min(n, i0 + kGroupBlock);
      Kahan local;
      for (std::size_t i = i0; i < i1; ++i) local.add(std::exp(out[i] - shift));
      block_totals[bi] = local.total;
    });
  } else {
    // One blocked pass: weights into `out`, per-block Kahan normalizer.
    for_each_group_block(n, pool, [&](std::size_t bi) {
      const std::size_t i0 = bi * kGroupBlock;
      const std::size_t i1 = std::min(n, i0 + kGroupBlock);
      Kahan local;
      for (std::size_t i = i0; i < i1; ++i) {
        const double x = weight_x(i);
        out[i] = method == SamplingMethod::kSRCov ? x * x : x;
        local.add(out[i]);
      }
      block_totals[bi] = local.total;
    });
  }
  // Combine the per-block partials in deterministic block order.
  Kahan combined;
  for (std::size_t bi = 0; bi < blocks; ++bi) combined.add(block_totals[bi]);
  const double total = combined.total;
  GF_CHECK(total > 0.0 && std::isfinite(total),
           "sampling_probabilities_into: degenerate normalizer ", total);

  for_each_group_block(n, pool, [&](std::size_t bi) {
    const std::size_t i0 = bi * kGroupBlock;
    const std::size_t i1 = std::min(n, i0 + kGroupBlock);
    if (method == SamplingMethod::kESRCov) {
      for (std::size_t i = i0; i < i1; ++i)
        out[i] = std::exp(out[i] - shift) / total;
    } else {
      for (std::size_t i = i0; i < i1; ++i) out[i] /= total;
    }
  });
  check_probability_vector(out, "sampling_probabilities_into");
}

void check_probability_vector(std::span<const double> p, const char* where) {
  double mass = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    GF_CHECK(std::isfinite(p[i]), where, ": probability ", p[i], " at ", i,
             " is not finite");
    GF_CHECK(p[i] >= 0.0, where, ": negative probability ", p[i], " at ", i);
    mass += p[i];
  }
  GF_CHECK(p.empty() || std::abs(mass - 1.0) < 1e-6, where,
           ": probabilities sum to ", mass, ", not 1");
}

std::vector<std::size_t> sample_groups(std::span<const double> p,
                                       std::size_t s, runtime::Rng& rng) {
  GF_CHECK(s <= p.size(), "sample_groups: s = ", s, " exceeds ", p.size(),
           " groups");
#if GROUPFEL_DEBUG_CHECKS
  check_probability_vector(p, "sample_groups");
#endif
  std::vector<double> weights(p.begin(), p.end());
  std::vector<std::size_t> chosen;
  chosen.reserve(s);
  for (std::size_t draw = 0; draw < s; ++draw) {
    const std::size_t idx = rng.categorical(weights);
    chosen.push_back(idx);
    weights[idx] = 0.0;  // without replacement
  }
  return chosen;
}

}  // namespace groupfel::sampling
