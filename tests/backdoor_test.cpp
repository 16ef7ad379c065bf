#include "backdoor/flame.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace groupfel::backdoor {
namespace {

TEST(Cosine, KnownValues) {
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{0.0f, 1.0f};
  const std::vector<float> c{2.0f, 0.0f};
  const std::vector<float> d{-3.0f, 0.0f};
  EXPECT_NEAR(cosine_similarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(cosine_similarity(a, c), 1.0, 1e-9);
  EXPECT_NEAR(cosine_similarity(a, d), -1.0, 1e-9);
}

TEST(Cosine, ZeroVectorGivesZero) {
  const std::vector<float> a{0.0f, 0.0f};
  const std::vector<float> b{1.0f, 2.0f};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
}

TEST(Cosine, RejectsSizeMismatch) {
  const std::vector<float> a{1.0f};
  const std::vector<float> b{1.0f, 2.0f};
  EXPECT_THROW((void)cosine_similarity(a, b), std::invalid_argument);
}

TEST(Cosine, PairwiseMatrixSymmetricZeroDiagonal) {
  runtime::Rng rng(1);
  std::vector<std::vector<float>> updates(5, std::vector<float>(8));
  for (auto& u : updates)
    for (auto& v : u) v = static_cast<float>(rng.normal());
  const auto d = pairwise_cosine_distance(updates);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(d[i][i], 0.0);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(d[i][j], d[j][i]);
      EXPECT_GE(d[i][j], -1e-12);
      EXPECT_LE(d[i][j], 2.0 + 1e-12);
    }
  }
}

// ---- Gram kernel vs the per-pair loop it replaced -------------------------
//
// Verbatim copy of the per-pair cosine loop that preceded the Gram kernel:
// both norms recomputed per pair, three serial double sums. The kernel must
// reproduce every entry bit for bit.

double reference_cosine_similarity(std::span<const float> a,
                                   std::span<const float> b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = a[i], y = b[i];
    dot += x * y;
    na += x * x;
    nb += y * y;
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<std::vector<double>> reference_pairwise_cosine_distance(
    const std::vector<std::vector<float>>& updates) {
  const std::size_t n = updates.size();
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d =
          1.0 - reference_cosine_similarity(updates[i], updates[j]);
      dist[i][j] = d;
      dist[j][i] = d;
    }
  return dist;
}

double reference_squared_norm(std::span<const float> v) {
  double s = 0.0;
  for (float x : v) s += static_cast<double>(x) * static_cast<double>(x);
  return s;
}

TEST(Cosine, GramMatchesPerPairReferenceBitwise) {
  // n covers one row, partial and full lane blocks (8 lanes, 4-row blocks)
  // and the fleet shape; d covers a single element, a partial k tile and
  // many tiles with a ragged tail.
  for (const std::size_t n : {1, 2, 3, 15, 16, 17, 65, 100}) {
    for (const std::size_t dim : {1, 7, 2442}) {
      runtime::Rng rng(1000 + n * 7 + dim);
      std::vector<std::vector<float>> updates(n, std::vector<float>(dim));
      for (auto& u : updates)
        for (auto& v : u)
          v = static_cast<float>(rng.normal() * std::exp(4.0 * rng.normal()));
      // Zero vectors at the front and the back, and a duplicate.
      if (n >= 3) {
        std::fill(updates[0].begin(), updates[0].end(), 0.0f);
        std::fill(updates[n - 1].begin(), updates[n - 1].end(), 0.0f);
        updates[1] = updates[2];
      }
      SCOPED_TRACE(::testing::Message() << "n " << n << " dim " << dim);

      const auto got = pairwise_cosine_distance(updates);
      const auto want = reference_pairwise_cosine_distance(updates);
      ASSERT_EQ(got.size(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::memcmp(got[i].data(), want[i].data(),
                              n * sizeof(double)),
                  0)
            << "row " << i;

      const auto gram = gram_matrix(updates);
      ASSERT_EQ(gram.size(), n * n);
      for (std::size_t i = 0; i < n; ++i) {
        const double norm = reference_squared_norm(updates[i]);
        EXPECT_EQ(std::memcmp(&gram[i * n + i], &norm, sizeof norm), 0)
            << "norm " << i;
      }
      if (n >= 2) {
        const double c = cosine_similarity(updates[n - 2], updates[n - 1]);
        const double r =
            reference_cosine_similarity(updates[n - 2], updates[n - 1]);
        EXPECT_EQ(std::memcmp(&c, &r, sizeof c), 0);
      }
    }
  }
}

TEST(Cosine, GramRejectsRaggedUpdates) {
  const std::vector<std::vector<float>> ragged{{1.0f, 2.0f}, {1.0f}};
  EXPECT_THROW((void)gram_matrix(ragged), std::invalid_argument);
  EXPECT_THROW((void)pairwise_cosine_distance(ragged), std::invalid_argument);
}

std::vector<std::vector<float>> benign_updates(std::size_t n, std::size_t dim,
                                               runtime::Rng& rng) {
  // Benign clients: shared direction + small noise.
  std::vector<float> direction(dim);
  for (auto& v : direction) v = static_cast<float>(rng.normal());
  std::vector<std::vector<float>> updates(n, std::vector<float>(dim));
  for (auto& u : updates)
    for (std::size_t k = 0; k < dim; ++k)
      u[k] = direction[k] + 0.1f * static_cast<float>(rng.normal());
  return updates;
}

TEST(Flame, AcceptsHomogeneousUpdates) {
  runtime::Rng rng(2);
  const auto updates = benign_updates(10, 32, rng);
  const FlameResult res = flame_filter(updates, {}, rng);
  EXPECT_EQ(res.num_rejected, 0u);
  for (bool a : res.accepted) EXPECT_TRUE(a);
}

TEST(Flame, RejectsPlantedBackdoors) {
  runtime::Rng rng(3);
  auto updates = benign_updates(10, 32, rng);
  // Two attackers push the opposite direction.
  for (std::size_t attacker : {3u, 7u})
    for (auto& v : updates[attacker]) v = -v * 3.0f;
  const FlameResult res = flame_filter(updates, {}, rng);
  EXPECT_FALSE(res.accepted[3]);
  EXPECT_FALSE(res.accepted[7]);
  EXPECT_EQ(res.num_rejected, 2u);
  // All benign clients survive.
  for (std::size_t i = 0; i < 10; ++i) {
    if (i != 3 && i != 7) {
      EXPECT_TRUE(res.accepted[i]);
    }
  }
}

TEST(Flame, MajorityClusterIsNeverRejected) {
  // FLAME's benign-majority assumption: the larger cluster is always kept,
  // whatever its direction — so a majority attack defeats the filter (its
  // documented limitation) and, symmetrically, a benign majority is safe.
  runtime::Rng rng(4);
  const auto base = benign_updates(4, 32, rng);
  std::vector<std::vector<float>> updates = base;  // 4 "originals"
  for (std::size_t i = 0; i < 6; ++i) {            // 6 flipped = majority
    updates.push_back(base[i % base.size()]);
    for (auto& v : updates.back()) v = -v;
  }
  const FlameResult res = flame_filter(updates, {}, rng);
  // None of the majority (flipped, indices 4..9) may be rejected.
  for (std::size_t i = 4; i < 10; ++i) EXPECT_TRUE(res.accepted[i]);
  // At most the minority can be rejected.
  EXPECT_LE(res.num_rejected, 4u);
}

TEST(Flame, ClippingBoundsAggregateNorm) {
  runtime::Rng rng(5);
  auto updates = benign_updates(8, 16, rng);
  // One client sends a huge (but same-direction) update: accepted, clipped.
  for (auto& v : updates[0]) v *= 100.0f;
  const FlameResult res = flame_filter(updates, {}, rng);
  double norm = 0.0;
  for (float v : res.aggregated)
    norm += static_cast<double>(v) * static_cast<double>(v);
  norm = std::sqrt(norm);
  EXPECT_LE(norm, res.clip_norm * 1.05);
}

TEST(Flame, NoiseChangesAggregate) {
  runtime::Rng r1(6), r2(6);
  const auto updates = benign_updates(6, 16, r1);
  FlameConfig quiet, noisy;
  noisy.noise_factor = 0.5;
  runtime::Rng fr1(7), fr2(7);
  const auto a = flame_filter(updates, quiet, fr1);
  const auto b = flame_filter(updates, noisy, fr2);
  double diff = 0.0;
  for (std::size_t k = 0; k < a.aggregated.size(); ++k)
    diff += std::abs(static_cast<double>(a.aggregated[k]) -
                     static_cast<double>(b.aggregated[k]));
  EXPECT_GT(diff, 0.0);
}

TEST(Flame, SmallGroupsAcceptAll) {
  runtime::Rng rng(8);
  const auto updates = benign_updates(2, 8, rng);
  const FlameResult res = flame_filter(updates, {}, rng);
  EXPECT_EQ(res.num_rejected, 0u);
}

TEST(Flame, RejectsEmptyAndRagged) {
  runtime::Rng rng(9);
  EXPECT_THROW((void)flame_filter({}, {}, rng), std::invalid_argument);
  const std::vector<std::vector<float>> ragged{{1.0f}, {1.0f, 2.0f}};
  EXPECT_THROW((void)flame_filter(ragged, {}, rng), std::invalid_argument);
}

TEST(Flame, AggregateIsMeanWhenNoClippingNeeded) {
  runtime::Rng rng(10);
  std::vector<std::vector<float>> updates{{2.0f, 0.0f}, {4.0f, 0.0f},
                                          {3.0f, 0.0f}};
  const FlameResult res = flame_filter(updates, {}, rng);
  // Median norm = 3; updates 2 and 3 are within/at it, 4 is clipped to 3.
  // Accepted mean with clipping: (2 + 3 + 3)/3.
  EXPECT_NEAR(res.aggregated[0], (2.0f + 3.0f + 3.0f) / 3.0f, 1e-5f);
}

// ---- Pinned FLAME outputs --------------------------------------------------
//
// Hashes of flame_filter's verdicts, clip norm and aggregate, recorded on the
// per-pair cosine loop and the separate l2 sweeps that preceded the Gram
// kernel. Every build (native or portable) must reproduce them bit for bit.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void fnv1a(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

std::uint64_t flame_hash(const FlameResult& res) {
  std::uint64_t h = kFnvOffset;
  for (const bool a : res.accepted) fnv1a(h, a ? 1u : 0u);
  std::uint64_t clip_bits = 0;
  std::memcpy(&clip_bits, &res.clip_norm, sizeof clip_bits);
  fnv1a(h, clip_bits);
  for (const float v : res.aggregated) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fnv1a(h, bits);
  }
  return h;
}

/// Benign updates along a shared direction with per-client scale (so the
/// median-norm clip bites) and noise; `attackers` of them are flipped and
/// amplified, and `zero_client` (if < n) is all zeros.
std::vector<std::vector<float>> pinned_updates(std::size_t n, std::size_t dim,
                                               std::size_t attackers,
                                               std::size_t zero_client,
                                               std::uint64_t seed) {
  runtime::Rng rng(seed);
  std::vector<float> direction(dim);
  for (auto& v : direction) v = static_cast<float>(rng.normal());
  std::vector<std::vector<float>> updates(n, std::vector<float>(dim));
  for (std::size_t i = 0; i < n; ++i) {
    const float scale = 0.5f + static_cast<float>(rng.next_double());
    for (std::size_t k = 0; k < dim; ++k)
      updates[i][k] =
          scale * direction[k] + 0.3f * static_cast<float>(rng.normal());
  }
  for (std::size_t a = 0; a < attackers; ++a)
    for (auto& v : updates[(a * 5 + 1) % n]) v = -3.0f * v;
  if (zero_client < n)
    std::fill(updates[zero_client].begin(), updates[zero_client].end(), 0.0f);
  return updates;
}

TEST(PinnedHashes, Flame) {
  struct Case {
    std::size_t n, dim, attackers, zero_client;
    std::uint64_t hash;
  };
  constexpr std::size_t kNone = ~std::size_t{0};
  const Case cases[] = {
      {3, 1, 0, kNone, 0xc8ff801ee21f0449ull},
      {3, 33, 0, kNone, 0x50264f6eaa3c4bc3ull},
      {3, 2442, 0, kNone, 0xd9ce0b84a48b141dull},
      {17, 1, 0, kNone, 0x05db7c5aa36f7c00ull},
      {17, 33, 0, kNone, 0x41fb0c8917b40327ull},
      {17, 2442, 0, kNone, 0xeaa60c27288cd8e0ull},
      {100, 1, 0, kNone, 0x486a378925216b1dull},
      {100, 33, 0, kNone, 0x1bb979434c80a9e3ull},
      {100, 2442, 0, kNone, 0x563ae32c37f3dbbaull},
      {17, 33, 3, kNone, 0x687426724c956aedull},
      {100, 2442, 12, kNone, 0x167b1efb8a6cc5acull},
      {17, 33, 0, 4, 0x1fcf0c65c97059d6ull}};
  for (const Case& c : cases) {
    const auto updates = pinned_updates(c.n, c.dim, c.attackers,
                                        c.zero_client, 31 + c.n + c.dim);
    runtime::Rng rng(41);
    const FlameResult res = flame_filter(updates, {}, rng);
    if (c.attackers > 0) {
      EXPECT_GT(res.num_rejected, 0u);
    }
    const std::uint64_t h = flame_hash(res);
    EXPECT_EQ(h, c.hash) << "n " << c.n << " dim " << c.dim << " attackers "
                         << c.attackers << " zero " << c.zero_client << ": 0x"
                         << std::hex << h;
  }
}

}  // namespace
}  // namespace groupfel::backdoor
