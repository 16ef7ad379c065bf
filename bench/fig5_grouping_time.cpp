// Fig. 5: running time of the grouping methods over the number of clients.
//
// Paper: RG and CDG group 1000 clients almost instantly; CoVG takes ~6 s
// (O(|K|^3), cheap arithmetic); KLDG is the slowest (O(|K|^4 |Y|) plus
// floating-point log()).
//
// Reproduction: wall-clock time of our four implementations on identical
// Dirichlet-partitioned label matrices, client counts 200..1000 (scaled by
// GROUPFEL_BENCH_SCALE). Expected ordering: RG < CDG < CoVG << KLDG.
#include "bench_common.hpp"
#include "data/client_descriptor.hpp"
#include "data/label_matrix.hpp"
#include "grouping/grouping.hpp"
#include "runtime/timer.hpp"

using namespace groupfel;

namespace {
data::LabelMatrix make_matrix(std::size_t clients, std::uint64_t seed) {
  runtime::Rng rng(seed);
  data::PartitionSpec part;
  part.num_clients = clients;
  part.alpha = 0.1;
  part.size_mean = 25;
  part.size_std = 8;
  part.size_min = 10;
  part.size_max = 40;
  return data::LabelMatrix::from_population(
      data::descriptor_partition(part, /*num_classes=*/10, rng));
}
}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const double scale = bench::bench_scale();
  std::vector<std::size_t> counts;
  for (std::size_t base : {200u, 400u, 600u, 800u, 1000u})
    counts.push_back(std::max<std::size_t>(
        20, static_cast<std::size_t>(static_cast<double>(base) * scale)));

  grouping::GroupingParams params;
  params.min_group_size = 5;
  params.max_cov = 0.5;
  params.kld_threshold = 0.05;

  const std::vector<grouping::GroupingMethod> methods{
      grouping::GroupingMethod::kRandom, grouping::GroupingMethod::kCdg,
      grouping::GroupingMethod::kKldg, grouping::GroupingMethod::kCov};

  std::vector<util::Series> series;
  for (const auto method : methods) {
    util::Series s;
    s.name = grouping::to_string(method);
    for (const auto n : counts) {
      const data::LabelMatrix matrix = make_matrix(n, 7);
      runtime::Rng rng(13);
      runtime::Timer timer;
      const auto groups = grouping::form_groups(method, matrix, params, rng);
      const double secs = timer.seconds();
      grouping::validate_partition(groups, n);
      s.x.push_back(static_cast<double>(n));
      s.y.push_back(secs);
      std::cout << s.name << " n=" << n << ": " << util::fixed(secs * 1e3, 2)
                << " ms (" << groups.size() << " groups)\n";
    }
    series.push_back(std::move(s));
  }

  std::cout << util::ascii_plot(series, "Fig 5: grouping time vs #clients",
                                "#clients", "time (s)");
  bench::write_series_csv("fig5_grouping_time.csv", "clients", "seconds",
                          series);
  std::cout << "expected shape: RG ~ CDG (near-zero) < CoVG << KLDG, with "
               "KLDG's gap widening with client count.\n";
  return 0;
}
