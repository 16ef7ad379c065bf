#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "runtime/rng.hpp"

namespace groupfel::nn {
namespace {

TEST(Softmax, RowsSumToOne) {
  Tensor logits({2, 3}, {1.0f, 2.0f, 3.0f, -5.0f, 0.0f, 5.0f});
  const Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 2; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GT(p.at2(i, j), 0.0f);
      sum += static_cast<double>(p.at2(i, j));
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor logits({1, 2}, {1000.0f, 1001.0f});
  const Tensor p = softmax(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(static_cast<double>(p[1]),
              1.0 / (1.0 + std::exp(-1.0)), 1e-5);
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits({1, 4});
  const std::vector<std::int32_t> labels{2};
  const LossResult res = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(res.loss, std::log(4.0), 1e-6);
}

TEST(CrossEntropy, ConfidentCorrectIsNearZero) {
  Tensor logits({1, 3}, {-20.0f, 20.0f, -20.0f});
  const std::vector<std::int32_t> labels{1};
  const LossResult res = softmax_cross_entropy(logits, labels);
  EXPECT_LT(res.loss, 1e-6);
  EXPECT_EQ(res.correct, 1u);
}

TEST(CrossEntropy, GradientRowsSumToZero) {
  // d/dlogits of CE sums to (p - onehot), whose row sum is 0.
  Tensor logits({3, 5}, std::vector<float>{
      1, 2, 3, 4, 5, -1, 0, 1, 0, -1, 2, 2, 2, 2, 2});
  const std::vector<std::int32_t> labels{0, 4, 2};
  const LossResult res = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 5; ++j)
      sum += static_cast<double>(res.grad.at2(i, j));
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(CrossEntropy, GradientSignAtLabel) {
  Tensor logits({1, 3}, {0.0f, 0.0f, 0.0f});
  const std::vector<std::int32_t> labels{1};
  const LossResult res = softmax_cross_entropy(logits, labels);
  EXPECT_LT(res.grad.at2(0, 1), 0.0f);  // pull label logit up
  EXPECT_GT(res.grad.at2(0, 0), 0.0f);  // push others down
}

TEST(CrossEntropy, GradientScaledByBatch) {
  Tensor logits1({1, 2}, {1.0f, -1.0f});
  Tensor logits2({2, 2}, {1.0f, -1.0f, 1.0f, -1.0f});
  const std::vector<std::int32_t> l1{0};
  const std::vector<std::int32_t> l2{0, 0};
  const auto r1 = softmax_cross_entropy(logits1, l1);
  const auto r2 = softmax_cross_entropy(logits2, l2);
  // Mean reduction: per-sample gradient halves with batch of 2.
  EXPECT_NEAR(static_cast<double>(r2.grad.at2(0, 0)),
              static_cast<double>(r1.grad.at2(0, 0)) / 2.0, 1e-7);
}

TEST(CrossEntropy, CountsCorrectPredictions) {
  Tensor logits({3, 2}, {2.0f, 1.0f, 0.0f, 3.0f, 5.0f, -1.0f});
  const std::vector<std::int32_t> labels{0, 1, 1};
  const LossResult res = softmax_cross_entropy(logits, labels);
  EXPECT_EQ(res.correct, 2u);  // third prediction is wrong
}

TEST(CrossEntropy, RejectsBadInputs) {
  Tensor logits({2, 3});
  const std::vector<std::int32_t> wrong_count{0};
  EXPECT_THROW((void)softmax_cross_entropy(logits, wrong_count),
               std::invalid_argument);
  const std::vector<std::int32_t> out_of_range{0, 3};
  EXPECT_THROW((void)softmax_cross_entropy(logits, out_of_range),
               std::invalid_argument);
}

/// Verbatim copy of the two-pass loss loop that preceded the single-exp
/// kernel: exp(logit - max) once for the denominator and again for the
/// gradient.
LossResult reference_two_pass_loss(const Tensor& logits,
                                   std::span<const std::int32_t> labels) {
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  LossResult res;
  res.grad = Tensor({n, c});
  const float inv_n = 1.0f / static_cast<float>(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto label = static_cast<std::size_t>(labels[i]);
    float mx = logits.at2(i, 0);
    std::size_t argmax = 0;
    for (std::size_t j = 1; j < c; ++j)
      if (logits.at2(i, j) > mx) {
        mx = logits.at2(i, j);
        argmax = j;
      }
    if (argmax == label) ++res.correct;

    double denom = 0.0;
    for (std::size_t j = 0; j < c; ++j)
      denom += std::exp(static_cast<double>(logits.at2(i, j) - mx));
    const double log_denom = std::log(denom);
    total += log_denom - static_cast<double>(logits.at2(i, label) - mx);

    for (std::size_t j = 0; j < c; ++j) {
      const double p =
          std::exp(static_cast<double>(logits.at2(i, j) - mx)) / denom;
      res.grad.at2(i, j) =
          (static_cast<float>(p) - (j == label ? 1.0f : 0.0f)) * inv_n;
    }
  }
  res.loss = total / static_cast<double>(n);
  return res;
}

TEST(Loss, SingleExpMatchesTwoPassReferenceBitwise) {
  LossResult reused;  // shrinks and grows across shapes, as in training
  for (const std::size_t n : {1, 8, 33}) {
    for (const std::size_t c : {1, 2, 10, 35}) {
      runtime::Rng rng(n * 100 + c);
      Tensor logits({n, c});
      for (auto& v : logits.data())
        v = static_cast<float>(rng.normal() * (n == 33 ? 40.0 : 3.0));
      std::vector<std::int32_t> labels(n);
      for (auto& l : labels) l = static_cast<std::int32_t>(rng.next_below(c));
      SCOPED_TRACE(::testing::Message() << "n " << n << " c " << c);

      const LossResult want = reference_two_pass_loss(logits, labels);
      softmax_cross_entropy_into(logits, labels, reused);
      EXPECT_EQ(std::memcmp(&reused.loss, &want.loss, sizeof want.loss), 0);
      EXPECT_EQ(reused.correct, want.correct);
      ASSERT_EQ(reused.grad.size(), want.grad.size());
      EXPECT_EQ(std::memcmp(reused.grad.data().data(), want.grad.data().data(),
                            want.grad.size() * sizeof(float)),
                0);
    }
  }
}

}  // namespace
}  // namespace groupfel::nn
