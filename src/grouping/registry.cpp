#include <stdexcept>

#include "grouping/grouping.hpp"
#include "util/check.hpp"

namespace groupfel::grouping {

namespace {
Grouping dispatch(GroupingMethod method, const data::LabelMatrix& matrix,
                  const GroupingParams& params, runtime::Rng& rng,
                  runtime::ThreadPool* pool) {
  switch (method) {
    case GroupingMethod::kRandom:
      return random_grouping(matrix, params, rng, pool);
    case GroupingMethod::kCdg: return cdg_grouping(matrix, params, rng, pool);
    case GroupingMethod::kKldg:
      return kldg_grouping(matrix, params, rng, pool);
    case GroupingMethod::kCov: return cov_grouping(matrix, params, rng, pool);
  }
  throw std::invalid_argument("form_groups: unknown method");
}
}  // namespace

Grouping form_groups(GroupingMethod method, const data::LabelMatrix& matrix,
                     const GroupingParams& params, runtime::Rng& rng,
                     runtime::ThreadPool* pool) {
  GF_CHECK(params.min_group_size >= 1,
           "form_groups: min_group_size must be >= 1");
  GF_CHECK(matrix.num_clients() > 0, "form_groups: no clients");
  Grouping groups = dispatch(method, matrix, params, rng, pool);
#if GROUPFEL_DEBUG_CHECKS
  validate_partition(groups, matrix.num_clients());
#endif
  return groups;
}

std::string to_string(GroupingMethod method) {
  switch (method) {
    case GroupingMethod::kRandom: return "RG";
    case GroupingMethod::kCdg: return "CDG";
    case GroupingMethod::kKldg: return "KLDG";
    case GroupingMethod::kCov: return "CoVG";
  }
  return "?";
}

GroupingMethod grouping_method_from_string(const std::string& name) {
  if (name == "RG" || name == "random") return GroupingMethod::kRandom;
  if (name == "CDG" || name == "cdg") return GroupingMethod::kCdg;
  if (name == "KLDG" || name == "kldg") return GroupingMethod::kKldg;
  if (name == "CoVG" || name == "cov") return GroupingMethod::kCov;
  throw std::invalid_argument("unknown grouping method: " + name);
}

void validate_partition(const Grouping& grouping, std::size_t num_clients) {
  std::vector<bool> seen(num_clients, false);
  std::size_t total = 0;
  for (std::size_t gi = 0; gi < grouping.size(); ++gi) {
    const auto& g = grouping[gi];
    GF_CHECK(!g.empty(), "validate_partition: group ", gi, " is empty");
    for (auto c : g) {
      GF_CHECK(c < num_clients, "validate_partition: client ", c,
               " out of range [0, ", num_clients, ")");
      GF_CHECK(!seen[c], "validate_partition: client ", c,
               " appears in two groups");
      seen[c] = true;
      ++total;
    }
  }
  GF_CHECK_EQ(total, num_clients,
              "validate_partition: not all clients grouped");
}

GroupingSummary summarize(const data::LabelMatrix& matrix,
                          const Grouping& grouping) {
  GroupingSummary s;
  s.num_groups = grouping.size();
  if (grouping.empty()) return s;
  s.min_size = grouping[0].size();
  double size_sum = 0.0, cov_sum = 0.0;
  for (const auto& g : grouping) {
    s.min_size = std::min(s.min_size, g.size());
    s.max_size = std::max(s.max_size, g.size());
    size_sum += static_cast<double>(g.size());
    const double c = group_cov(matrix, g);
    cov_sum += c;
    s.max_group_cov = std::max(s.max_group_cov, c);
  }
  s.avg_size = size_sum / static_cast<double>(grouping.size());
  s.avg_cov = cov_sum / static_cast<double>(grouping.size());
  return s;
}

}  // namespace groupfel::grouping
