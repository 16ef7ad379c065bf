// Output checks on a GroupFelTrainer::train() result. A round fails when
// its RoundMetrics entry is non-finite or out of range, or when a run-level
// check fails (then every round of the run counts as failed).
#pragma once

#include <string>
#include <vector>

#include "core/trainer.hpp"

namespace perfbench {

struct CheckReport {
  std::size_t attempted = 0;  ///< global rounds run
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failed check
};

/// Checks one train() result of `rounds` rounds evaluated every round:
///   - one finite RoundMetrics entry per round, accuracy in [0, 1];
///   - cumulative_cost and cumulative_comm_bytes never decrease;
///   - finite final parameters;
///   - final_accuracy >= accuracy_floor.
[[nodiscard]] CheckReport check_train_result(
    const groupfel::core::TrainResult& result, std::size_t rounds,
    double accuracy_floor);

/// Folds `run` into `total`.
void merge(CheckReport& total, const CheckReport& run);

}  // namespace perfbench
