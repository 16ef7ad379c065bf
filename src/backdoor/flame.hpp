// FLAME-style backdoor filtering (Nguyen et al. [28]), simplified:
//   1. pairwise cosine distances between client updates (the quadratic part)
//   2. 1-D 2-means over each client's mean distance to the others; the
//      cluster closer to the crowd is accepted (majority-benign assumption)
//   3. accepted updates are norm-clipped to the median norm and averaged
//   4. optional Gaussian noise proportional to the clip norm (DP-style)
// Steps 1 and 3 read one Gram pass, G = U·Uᵀ (backdoor/cosine.hpp): its
// off-diagonal entries give the cosine distances and sqrt(G_ii) is client
// i's L2 norm for the clip.
#pragma once

#include <vector>

#include "backdoor/cosine.hpp"
#include "runtime/rng.hpp"

namespace groupfel::backdoor {

struct FlameConfig {
  /// Minimum centroid separation (in mean-cosine-distance units) before
  /// anything is rejected; below this all updates are accepted.
  double separation_threshold = 0.15;
  /// Gaussian noise stddev as a fraction of the clip norm (0 disables).
  double noise_factor = 0.0;
};

struct FlameResult {
  std::vector<bool> accepted;       ///< per-client verdict
  std::vector<float> aggregated;    ///< clipped mean of accepted updates
  double clip_norm = 0.0;           ///< median L2 norm used for clipping
  std::size_t num_rejected = 0;
};

/// Filters and aggregates `updates` (all same length, at least 1).
[[nodiscard]] FlameResult flame_filter(
    const std::vector<std::vector<float>>& updates, const FlameConfig& config,
    runtime::Rng& rng);

}  // namespace groupfel::backdoor
