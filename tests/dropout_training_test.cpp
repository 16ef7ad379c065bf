// Client-churn tests: training under per-round client dropout, with both
// plain aggregation (survivor renormalization) and the real
// secure-aggregation protocol (Shamir mask recovery / abort).
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace groupfel::core {
namespace {

struct Scenario {
  Experiment exp;
  GroupFelConfig cfg;

  Scenario() {
    ExperimentSpec spec;
    spec.num_clients = 24;
    spec.num_edges = 2;
    spec.alpha = 0.5;
    spec.size_mean = 24;
    spec.size_std = 6;
    spec.size_min = 12;
    spec.size_max = 36;
    spec.test_size = 400;
    spec.mlp_hidden = 32;
    spec.seed = 32;
    exp = build_experiment(spec);

    cfg.global_rounds = 8;
    cfg.group_rounds = 2;
    cfg.local_epochs = 2;
    cfg.local.lr = 0.1f;
    cfg.local.batch_size = 8;
    cfg.sampled_groups = 3;
    cfg.grouping_params.min_group_size = 4;
    cfg.seed = 13;
    apply_method(Method::kGroupFel, cfg);
  }

  TrainResult run(double dropout, bool real_secagg = false) {
    GroupFelConfig c = cfg;
    c.client_dropout_rate = dropout;
    c.use_real_secagg = real_secagg;
    GroupFelTrainer trainer(
        exp.topology, c,
        build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg));
    return trainer.train();
  }
};

TEST(DropoutTraining, ZeroDropoutMatchesBaseline) {
  Scenario s;
  const TrainResult a = s.run(0.0);
  GroupFelConfig c = s.cfg;  // explicit zero (the default) — same path
  GroupFelTrainer t(s.exp.topology, c,
                    build_cost_model(cost::Task::kCifar,
                                     cost::GroupOp::kSecAgg));
  const TrainResult b = t.train();
  EXPECT_EQ(a.final_params, b.final_params);
}

TEST(DropoutTraining, ModerateChurnStillLearns) {
  Scenario s;
  const TrainResult result = s.run(0.2);
  EXPECT_GT(result.final_accuracy, 0.3);
}

TEST(DropoutTraining, HeavyChurnDegradesButDoesNotCrash) {
  Scenario s;
  const TrainResult heavy = s.run(0.8);
  const TrainResult light = s.run(0.1);
  EXPECT_GE(light.best_accuracy, heavy.best_accuracy - 0.05);
  for (const auto& m : heavy.history) {
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_LE(m.accuracy, 1.0);
  }
}

TEST(DropoutTraining, TotalChurnLeavesModelUntouched) {
  Scenario s;
  GroupFelConfig c = s.cfg;
  c.client_dropout_rate = 1.0;
  c.global_rounds = 3;
  GroupFelTrainer trainer(
      s.exp.topology, c,
      build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg));
  // Capture the initial model by running zero rounds' worth of training.
  const TrainResult result = trainer.train();
  // Nobody ever reports: accuracy stays at the random-init level.
  for (const auto& m : result.history) EXPECT_LT(m.accuracy, 0.3);
}

TEST(DropoutTraining, RealSecAggSurvivesChurn) {
  // Dropped members' pairwise masks are reconstructed from Shamir shares;
  // training still converges.
  Scenario s;
  const TrainResult result = s.run(0.15, /*real_secagg=*/true);
  EXPECT_GT(result.final_accuracy, 0.3);
}

TEST(DropoutTraining, RealSecAggMatchesPlainUnderSameChurn) {
  // Identical dropout draws (same seeds): the secure path must track the
  // plain path up to fixed-point rounding. Few rounds — the ~2^-16
  // per-aggregation rounding is amplified by training dynamics, so long
  // runs diverge bitwise even though both learn equally well.
  Scenario s;
  s.cfg.global_rounds = 2;
  const TrainResult plain = s.run(0.2, false);
  const TrainResult secure = s.run(0.2, true);
  ASSERT_EQ(plain.final_params.size(), secure.final_params.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < plain.final_params.size(); ++i)
    max_diff = std::max(
        max_diff, std::abs(static_cast<double>(plain.final_params[i]) -
                           static_cast<double>(secure.final_params[i])));
  EXPECT_LT(max_diff, 5e-2);
}

TEST(DropoutTraining, DeterministicChurn) {
  Scenario s;
  const TrainResult a = s.run(0.3);
  const TrainResult b = s.run(0.3);
  EXPECT_EQ(a.final_params, b.final_params);
}

}  // namespace
}  // namespace groupfel::core
