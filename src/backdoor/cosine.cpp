#include "backdoor/cosine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace groupfel::backdoor {

namespace {

// Gram kernel G = U·Uᵀ, lane-batched: one double accumulator per (i, j)
// pair, kRows rows by kLanes columns at a time, each summing
// double(u_i[k]) * double(u_j[k]) in ascending k. A float times a float is
// exact in double, so the only rounding is the running sum's, in the same
// order as a scalar `dot += x * y` loop: the lanes vectorize without
// reassociation and every entry is bit-identical to that loop in any build.
//
// The updates are packed kTile elements at a time into a thread-local
// k-major panel (one row of `padded` doubles per k, zero past column n) that
// serves both the row broadcasts and the column lanes. The running sums live
// in the output itself, laid out padded x padded until the last tile.
constexpr std::size_t kLanes = 8;
constexpr std::size_t kRows = 4;
constexpr std::size_t kTile = 64;
static_assert(kLanes % kRows == 0, "row blocks must fit inside the padding");

/// Overwrites `g` with the n x n Gram matrix of `rows` (each `dim` floats).
void gram_into(std::span<const float* const> rows, std::size_t dim,
               std::vector<double>& g) {
  const std::size_t n = rows.size();
  const std::size_t padded = (n + kLanes - 1) / kLanes * kLanes;
  thread_local std::vector<double> panel;
  panel.assign(kTile * padded, 0.0);
  g.assign(padded * padded, 0.0);

  for (std::size_t k0 = 0; k0 < dim; k0 += kTile) {
    const std::size_t kt = std::min(kTile, dim - k0);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < kt; ++k)
        panel[k * padded + j] = static_cast<double>(rows[j][k0 + k]);

    for (std::size_t i0 = 0; i0 < n; i0 += kRows)
      for (std::size_t j0 = i0 / kLanes * kLanes; j0 < n; j0 += kLanes) {
        double* sums = g.data() + i0 * padded + j0;
        double acc[kRows][kLanes];
        for (std::size_t r = 0; r < kRows; ++r)
          for (std::size_t l = 0; l < kLanes; ++l)
            acc[r][l] = sums[r * padded + l];
        for (std::size_t k = 0; k < kt; ++k) {
          const double* p = panel.data() + k * padded;
          for (std::size_t r = 0; r < kRows; ++r) {
            const double a = p[i0 + r];
            for (std::size_t l = 0; l < kLanes; ++l)
              acc[r][l] += a * p[j0 + l];
          }
        }
        for (std::size_t r = 0; r < kRows; ++r)
          for (std::size_t l = 0; l < kLanes; ++l)
            sums[r * padded + l] = acc[r][l];
      }
  }

  // Every pair (i, j >= i) was summed. Compact to stride n in place, in
  // row-major order: each write lands at or before its unread source, and
  // the lower triangle mirrors entries already compacted.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      g[i * n + j] = j < i ? g[j * n + i] : g[i * padded + j];
  g.resize(n * n);
}

/// Cosine similarity from a Gram entry and the two squared norms; 0 when
/// either vector is zero.
double similarity_from(double dot, double na, double nb) {
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace

double cosine_similarity(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("cosine_similarity: size mismatch");
  const float* const rows[2] = {a.data(), b.data()};
  std::vector<double> g;
  gram_into(rows, a.size(), g);
  return similarity_from(g[1], g[0], g[3]);
}

std::vector<double> gram_matrix(
    const std::vector<std::vector<float>>& updates) {
  const std::size_t n = updates.size();
  const std::size_t dim = n == 0 ? 0 : updates[0].size();
  std::vector<const float*> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (updates[i].size() != dim)
      throw std::invalid_argument("gram_matrix: ragged updates");
    rows[i] = updates[i].data();
  }
  std::vector<double> g;
  gram_into(rows, dim, g);
  return g;
}

double cosine_distance(std::span<const double> gram, std::size_t n,
                       std::size_t i, std::size_t j) {
  if (i > j) std::swap(i, j);
  return 1.0 -
         similarity_from(gram[i * n + j], gram[i * n + i], gram[j * n + j]);
}

std::vector<std::vector<double>> pairwise_cosine_distance(
    const std::vector<std::vector<float>>& updates) {
  const std::size_t n = updates.size();
  const std::vector<double> gram = gram_matrix(updates);
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      dist[i][j] = dist[j][i] = cosine_distance(gram, n, i, j);
  return dist;
}

}  // namespace groupfel::backdoor
