// Pairwise cosine similarity over client model updates — the O(|g|^2 d)
// kernel of FLAME-style backdoor detection (the paper's second quadratic
// group operation, Fig. 2a / Fig. 8) and of FedCLAR's clustering.
//
// Everything here goes through one Gram kernel, G = U·Uᵀ: every pairwise
// dot product and every squared norm (G's diagonal) in one pass. Each entry
// sums double(u_i[k]) * double(u_j[k]) in ascending k, so it is
// bit-identical to a scalar double-precision loop in every build.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace groupfel::backdoor {

/// Cosine similarity in [-1, 1]; returns 0 when either vector is zero.
[[nodiscard]] double cosine_similarity(std::span<const float> a,
                                       std::span<const float> b);

/// Gram matrix of `updates` (all the same length), row-major n x n and
/// symmetric: entry (i, j) is the dot product of updates i and j, and the
/// diagonal holds the squared L2 norms.
[[nodiscard]] std::vector<double> gram_matrix(
    const std::vector<std::vector<float>>& updates);

/// Cosine DISTANCE (1 - similarity; 1 when either vector is zero) between
/// updates i and j, read from their n x n Gram matrix. Symmetric in i, j.
[[nodiscard]] double cosine_distance(std::span<const double> gram,
                                     std::size_t n, std::size_t i,
                                     std::size_t j);

/// Full pairwise cosine DISTANCE matrix, symmetric with a zero diagonal.
[[nodiscard]] std::vector<std::vector<double>> pairwise_cosine_distance(
    const std::vector<std::vector<float>>& updates);

}  // namespace groupfel::backdoor
