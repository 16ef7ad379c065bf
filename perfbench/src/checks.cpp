#include "checks.hpp"

#include <cmath>

namespace perfbench {

CheckReport check_train_result(const groupfel::core::TrainResult& result,
                               std::size_t rounds, double accuracy_floor) {
  CheckReport report;
  report.attempted = rounds;
  std::vector<bool> bad(rounds, false);
  bool run_failed = false;
  const auto problem = [&](std::string what) {
    report.problems.push_back(std::move(what));
  };

  if (result.history.size() != rounds) {
    problem("history has " + std::to_string(result.history.size()) +
            " entries for " + std::to_string(rounds) + " rounds");
    run_failed = true;
  }
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const auto& m = result.history[i];
    const std::size_t r = m.round < rounds ? m.round : rounds - 1;
    if (!std::isfinite(m.accuracy) || m.accuracy < 0.0 || m.accuracy > 1.0 ||
        !std::isfinite(m.test_loss) || !std::isfinite(m.train_loss) ||
        !std::isfinite(m.cumulative_cost) ||
        !std::isfinite(m.cumulative_comm_bytes)) {
      problem("round " + std::to_string(m.round) +
              ": non-finite or out-of-range metrics");
      bad[r] = true;
    }
    if (i > 0) {
      const auto& prev = result.history[i - 1];
      if (m.cumulative_cost < prev.cumulative_cost ||
          m.cumulative_comm_bytes < prev.cumulative_comm_bytes) {
        problem("round " + std::to_string(m.round) +
                ": cumulative cost or bytes decreased");
        bad[r] = true;
      }
    }
  }
  for (float v : result.final_params)
    if (!std::isfinite(v)) {
      problem("final parameters are not finite");
      run_failed = true;
      break;
    }
  if (result.final_params.empty()) {
    problem("no final parameters");
    run_failed = true;
  }
  if (!(result.final_accuracy >= accuracy_floor)) {
    problem("final accuracy " + std::to_string(result.final_accuracy) +
            " below floor " + std::to_string(accuracy_floor));
    run_failed = true;
  }
  for (std::size_t r = 0; r < rounds; ++r)
    if (run_failed || bad[r]) ++report.failed;
  return report;
}

void merge(CheckReport& total, const CheckReport& run) {
  total.attempted += run.attempted;
  total.failed += run.failed;
  total.problems.insert(total.problems.end(), run.problems.begin(),
                        run.problems.end());
}

}  // namespace perfbench
