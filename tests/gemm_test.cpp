// Kernel-equivalence sweep for the blocked/packed GEMM (nn/gemm.cpp).
//
// matmul / matmul_bt / matmul_at must agree with the naive triple-loop
// oracles to 1e-4 relative across shapes chosen to hit every dispatch path:
// the small-product fallback, the skinny-row streaming path (with B
// row-contiguous or staged from Bᵀ), full packed tiles, and ragged edges of
// every cache block (MR/NR register tiles and MC/KC/NC panels). A randomized
// sweep backstops the hand-picked shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/tensor.hpp"
#include "runtime/rng.hpp"

namespace groupfel::nn {
namespace {

Tensor random_matrix(std::size_t rows, std::size_t cols, runtime::Rng& rng) {
  Tensor t({rows, cols});
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

void expect_close(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], 1e-4f * scale)
        << what << ": flat index " << i;
  }
}

void check_all_variants(std::size_t m, std::size_t k, std::size_t n,
                        runtime::Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " k=" << k << " n=" << n);
  {
    const Tensor a = random_matrix(m, k, rng);
    const Tensor b = random_matrix(k, n, rng);
    Tensor got({m, n}), want({m, n});
    matmul(a, b, got);
    matmul_naive(a, b, want);
    expect_close(got, want, "matmul");
  }
  {
    const Tensor a = random_matrix(m, k, rng);
    const Tensor b = random_matrix(n, k, rng);  // used transposed
    Tensor got({m, n}), want({m, n});
    matmul_bt(a, b, got);
    matmul_bt_naive(a, b, want);
    expect_close(got, want, "matmul_bt");
  }
  {
    const Tensor a = random_matrix(m, k, rng);  // used transposed
    const Tensor b = random_matrix(m, n, rng);
    Tensor got({k, n}), want({k, n});
    matmul_at(a, b, got);
    matmul_at_naive(a, b, want);
    expect_close(got, want, "matmul_at");
  }
}

struct GemmCase {
  std::size_t m, k, n;
};

class GemmEquivalenceTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmEquivalenceTest, AllVariantsMatchNaive) {
  const GemmCase c = GetParam();
  runtime::Rng rng(c.m * 7919 + c.k * 104729 + c.n);
  check_all_variants(c.m, c.k, c.n, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalenceTest,
    ::testing::Values(
        GemmCase{1, 1, 1},      // degenerate
        GemmCase{3, 5, 7},      // small-product fallback
        GemmCase{8, 32, 64},    // MLP training batch (skinny rows)
        GemmCase{8, 27, 1024},  // ResNet3 first layer (skinny, wide)
        GemmCase{12, 40, 33},   // skinny edge: n not a lane multiple
        GemmCase{6, 16, 16},    // exactly one MR x NR register tile
        GemmCase{13, 19, 21},   // ragged in every register dimension
        GemmCase{97, 300, 130},   // crosses MC and KC panel edges
        GemmCase{100, 257, 70},   // KC remainder of 1
        GemmCase{64, 64, 256}));  // column-major-ish aspect

TEST(GemmEquivalence, RandomizedShapeSweep) {
  runtime::Rng rng(20260805);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t m = 1 + rng.next_below(130);
    const std::size_t k = 1 + rng.next_below(300);
    const std::size_t n = 1 + rng.next_below(260);
    check_all_variants(m, k, n, rng);
  }
}

// A·Bᵀ shapes up to 128K multiply-adds stage Bᵀ into a padded row-major
// panel and run the skinny kernel: sweep m across the 4-row tiles and the
// 12-row cut, k across the 8×8 transpose tiles and n across the 16-lane
// ragged tail.
TEST(GemmEquivalence, StagedTransposedBMatchesNaive) {
  runtime::Rng rng(18);
  for (const std::size_t m : {1, 8, 12, 13, 32})
    for (const std::size_t k : {1, 7, 8, 9, 10, 15, 16, 17, 35, 64})
      for (const std::size_t n : {1, 7, 8, 9, 16, 17, 40, 64}) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " k=" << k << " n=" << n);
        const Tensor a = random_matrix(m, k, rng);
        const Tensor b = random_matrix(n, k, rng);
        Tensor got({m, n}), want({m, n});
        matmul_bt(a, b, got);
        matmul_bt_naive(a, b, want);
        expect_close(got, want, "matmul_bt");
      }
}

TEST(TransposePad, MatchesScalarLoopOnRaggedSizes) {
  runtime::Rng rng(19);
  for (const std::size_t rows : {1, 7, 8, 9, 16, 17, 40})
    for (const std::size_t cols : {1, 3, 8, 10, 16, 23})
      for (const std::size_t pad : {0, 1, 9}) {
        SCOPED_TRACE(::testing::Message()
                     << "rows=" << rows << " cols=" << cols << " pad=" << pad);
        const std::size_t lds = cols + 3, ldd = rows + pad;
        const Tensor src = random_matrix(rows, lds, rng);
        std::vector<float> got(cols * ldd, -1.0f);
        detail::transpose_pad(src.raw(), rows, cols, lds, got.data(), ldd);
        for (std::size_t c = 0; c < cols; ++c)
          for (std::size_t r = 0; r < ldd; ++r)
            ASSERT_EQ(got[c * ldd + r], r < rows ? src[r * lds + c] : 0.0f)
                << "c=" << c << " r=" << r;
      }
}

TEST(GemmEquivalence, RepeatedCallsAreDeterministic) {
  // Arena reuse across calls must not leak state between GEMMs.
  runtime::Rng rng(99);
  const Tensor a = random_matrix(50, 120, rng);
  const Tensor b = random_matrix(120, 80, rng);
  Tensor first({50, 80}), second({50, 80});
  matmul(a, b, first);
  matmul(a, b, second);
  for (std::size_t i = 0; i < first.size(); ++i)
    ASSERT_EQ(first[i], second[i]) << "flat index " << i;
}

}  // namespace
}  // namespace groupfel::nn
