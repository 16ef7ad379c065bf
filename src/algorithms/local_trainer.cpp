#include "algorithms/local_trainer.hpp"

#include <numeric>

namespace groupfel::algorithms {

namespace {

/// Per-thread minibatch scratch: the epoch permutation, the gathered batch,
/// and the loss result (with its gradient tensor) persist across clients
/// and rounds, so steady-state SGD steps perform zero tensor constructions.
/// Thread-local because run_local_sgd runs concurrently for different
/// clients on the trainer's pool.
struct SgdScratch {
  std::vector<std::size_t> order;
  data::DataSet::Batch batch;
  nn::LossResult loss;
};

}  // namespace

double run_local_sgd(nn::Model& model, data::ClientDataRef data,
                     const LocalTrainConfig& cfg, runtime::Rng& rng,
                     const nn::SgdOptimizer::GradAdjust& adjust) {
  if (data.size() == 0) return 0.0;
  nn::SgdOptimizer opt({.lr = cfg.lr,
                        .momentum = cfg.momentum,
                        .weight_decay = cfg.weight_decay});
  thread_local SgdScratch scratch;
  std::vector<std::size_t>& order = scratch.order;
  order.resize(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  double loss_sum = 0.0;
  std::size_t loss_batches = 0;
  // Gradients are zeroed once up front and then cleared inside opt.step's
  // update pass, so each batch touches every gradient tensor once, not twice.
  model.zero_grad();
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    // The permutation buffer is reused; the shuffle itself is per-epoch and
    // cumulative, so the RNG stream does not depend on the buffer's history.
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      const std::span<const std::size_t> batch_idx(order.data() + start,
                                                   end - start);
      data.batch_into(batch_idx, scratch.batch);
      const nn::Tensor& logits =
          model.forward(scratch.batch.features, /*train=*/true);
      nn::softmax_cross_entropy_into(logits, scratch.batch.labels,
                                     scratch.loss);
      model.backward(scratch.loss.grad);
      opt.step(model, adjust, /*zero_grads=*/true);
      loss_sum += scratch.loss.loss;
      ++loss_batches;
    }
  }
  return loss_batches > 0 ? loss_sum / static_cast<double>(loss_batches) : 0.0;
}

double SgdRule::train_client(nn::Model& model, data::ClientDataRef data,
                             std::span<const float> /*reference_params*/,
                             std::size_t /*client_id*/,
                             const LocalTrainConfig& cfg, runtime::Rng& rng) {
  return run_local_sgd(model, data, cfg, rng, nullptr);
}

}  // namespace groupfel::algorithms
