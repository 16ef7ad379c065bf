// Non-IID client partitioning following the paper's protocol (§7.2):
// each client's per-label proportions are drawn from Dirichlet(alpha)
// (Hsu et al. [36]) and its sample count from a clamped normal
// distribution (20..200 in the paper's CIFAR setup). The draws themselves
// live in data::descriptor_partition (data/client_descriptor.hpp).
#pragma once

#include <cstddef>
#include <vector>

namespace groupfel::data {

struct PartitionSpec {
  std::size_t num_clients = 300;
  double alpha = 0.5;        ///< Dirichlet concentration; smaller = more skew
  double size_mean = 110.0;  ///< client sample count ~ N(mean, std)
  double size_std = 45.0;
  std::size_t size_min = 20;
  std::size_t size_max = 200;
};

/// Assigns clients to edge servers contiguously (paper: 3 edges x 100
/// clients). Returns per-edge client-index lists.
[[nodiscard]] std::vector<std::vector<std::size_t>> assign_to_edges(
    std::size_t num_clients, std::size_t num_edges);

}  // namespace groupfel::data
