#include "data/partition.hpp"

#include <stdexcept>

namespace groupfel::data {

std::vector<std::vector<std::size_t>> assign_to_edges(std::size_t num_clients,
                                                      std::size_t num_edges) {
  if (num_edges == 0) throw std::invalid_argument("assign_to_edges: 0 edges");
  std::vector<std::vector<std::size_t>> edges(num_edges);
  const std::size_t base = num_clients / num_edges;
  const std::size_t extra = num_clients % num_edges;
  std::size_t next = 0;
  for (std::size_t e = 0; e < num_edges; ++e) {
    const std::size_t count = base + (e < extra ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) edges[e].push_back(next++);
  }
  return edges;
}

}  // namespace groupfel::data
