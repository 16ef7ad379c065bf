#include "secagg/prg.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "util/check.hpp"

namespace groupfel::secagg {
namespace {

using Block = std::array<std::uint32_t, 16>;

// Element-at-a-time ChaCha20 block function: the oracle the 16-lane kernel
// is checked against.
std::uint32_t rotl32(std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

void quarter_round(Block& s, int a, int b, int c, int d) {
  s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl32(s[d], 16);
  s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl32(s[b], 12);
  s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl32(s[d], 8);
  s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl32(s[b], 7);
}

Block reference_block(const Block& state) {
  Block x = state;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
  }
  for (std::size_t i = 0; i < 16; ++i) x[i] += state[i];
  return x;
}

std::uint64_t counter_of(const Block& s) {
  return std::uint64_t{s[13]} << 32 | s[12];
}

Block with_counter(Block s, std::uint64_t counter) {
  s[12] = static_cast<std::uint32_t>(counter);
  s[13] = static_cast<std::uint32_t>(counter >> 32);
  return s;
}

// Block b of a chacha20_blocks16 batch, unpacked into its 16 words.
Block batch_block(const std::array<std::uint64_t, 128>& out, std::size_t b) {
  Block w{};
  for (std::size_t j = 0; j < 8; ++j) {
    w[2 * j] = static_cast<std::uint32_t>(out[8 * b + j]);
    w[2 * j + 1] = static_cast<std::uint32_t>(out[8 * b + j] >> 32);
  }
  return w;
}

// RFC 8439 section 2.3.2: key 00..1f, block count 1, nonce
// 00:00:00:09:00:00:00:4a:00:00:00:00. This PRG reads words 12/13 as one
// 64-bit counter, so the vector's first nonce word is the counter's high
// word.
Block rfc_state() {
  Block s{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (std::uint32_t i = 0; i < 8; ++i)
    s[4 + i] = (4 * i) | (4 * i + 1) << 8 | (4 * i + 2) << 16 | (4 * i + 3) << 24;
  s[12] = 1;
  s[13] = 0x09000000;
  s[14] = 0x4a000000;
  s[15] = 0;
  return s;
}

constexpr Block kRfcBlock = {
    0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033,
    0x9aaa2204, 0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9,
    0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

TEST(PrgKernel, RfcVectorSingleBlock) {
  EXPECT_EQ(reference_block(rfc_state()), kRfcBlock);
  std::array<std::uint64_t, 128> out{};
  detail::chacha20_blocks16(rfc_state(), out.data());
  EXPECT_EQ(batch_block(out, 0), kRfcBlock);
}

TEST(PrgKernel, RfcVectorInEveryLane) {
  // Starting the batch j blocks early puts the RFC block in lane j; for
  // j >= 2 the low counter word borrows, so lane j also carries back.
  const Block rfc = rfc_state();
  for (std::size_t j = 0; j < detail::kChaChaBatchBlocks; ++j) {
    std::array<std::uint64_t, 128> out{};
    detail::chacha20_blocks16(with_counter(rfc, counter_of(rfc) - j),
                              out.data());
    EXPECT_EQ(batch_block(out, j), kRfcBlock) << "lane " << j;
  }
}

TEST(PrgKernel, SixteenBlocksMatchScalarOracle) {
  for (const std::uint64_t start :
       {0ull, 5ull, 0xFFFFFFF8ull, 0x1FFFFFFFFull, ~0ull - 7}) {
    // 0xFFFFFFF8: the word-12 -> word-13 carry happens at lane 8.
    // ~0 - 7: the 64-bit counter wraps to 0 at lane 8.
    for (const std::uint32_t key_salt : {0u, 0x9e3779b9u}) {
      Block keyed = rfc_state();
      keyed[4] ^= key_salt;
      const Block state = with_counter(keyed, start);
      std::array<std::uint64_t, 128> out{};
      detail::chacha20_blocks16(state, out.data());
      for (std::size_t b = 0; b < detail::kChaChaBatchBlocks; ++b)
        EXPECT_EQ(batch_block(out, b),
                  reference_block(with_counter(state, start + b)))
            << "start " << start << " block " << b;
    }
  }
}

// Streams recorded from the element-at-a-time PRG: the batched kernel must
// reproduce them word for word.
TEST(PrgStream, First512WordsMatchRecordedStream) {
  ChaChaPrg prg(42, 7);
  std::uint64_t h = kFnvBasis;
  std::vector<std::uint64_t> words(512);
  for (auto& w : words) h = fnv1a(h, w = prg.next_u64());
  EXPECT_EQ(words[0], 0x1dafb55e66ff0345ull);
  EXPECT_EQ(words[1], 0x88ee309eb7f4d41cull);
  EXPECT_EQ(words[2], 0xc029090acc6e908aull);
  EXPECT_EQ(words[3], 0x3057f55cf5119811ull);
  EXPECT_EQ(words[511], 0xf730173c5e9fb266ull);
  EXPECT_EQ(h, 0xe48203f3b8c80f69ull);
}

TEST(PrgStream, MaskLengthsMatchRecordedStream) {
  struct Case {
    std::size_t n;
    std::uint64_t mask_hash;
    std::uint64_t next_word;  // the stream resumes right after the mask
  };
  const Case cases[] = {
      {1, 0xc2fd8297454c1ef7ull, 0xb427e3cbbd54a7d1ull},
      {7, 0x42c769614caea610ull, 0xcb106f0dc7d78782ull},
      {8, 0x9fa6085f4f259969ull, 0x61b42230fbd5dd0dull},
      {127, 0x88c9bd54672b8c94ull, 0x66dab46b26205060ull},
      {128, 0x7af8fb9f8cf76842ull, 0x858add1fb95bc1f3ull},
      {129, 0x733dfaf4b35f5c7dull, 0x01ec69407dd9c7b6ull},
      {9059, 0xa2e78d286c820c87ull, 0xf96d96679f6c9781ull},
  };
  for (const Case& c : cases) {
    ChaChaPrg prg(1234, 5678);
    std::uint64_t h = kFnvBasis;
    for (const Fe& f : prg.mask(c.n)) h = fnv1a(h, f.value());
    EXPECT_EQ(h, c.mask_hash) << "n = " << c.n;
    EXPECT_EQ(prg.next_u64(), c.next_word) << "n = " << c.n;
  }
}

TEST(PrgStream, InterleavedCallsMatchRecordedStream) {
  ChaChaPrg prg(99, 3);
  std::uint64_t h = kFnvBasis;
  for (std::size_t r = 0; r < 20; ++r) {
    h = fnv1a(h, prg.next_u64());
    h = fnv1a(h, prg.next_fe().value());
    for (const Fe& f : prg.mask(r * 7 + 1)) h = fnv1a(h, f.value());
    h = fnv1a(h, prg.next_fe().value());
  }
  EXPECT_EQ(h, 0xbb14d9ea286ca8d1ull);
}

TEST(PrgStream, AccumulateAddsOrSubtractsTheMask) {
  for (const std::size_t n : {1u, 7u, 8u, 127u, 128u, 129u, 1000u}) {
    const std::vector<Fe> mask = ChaChaPrg(31, 4).mask(n);
    std::vector<Fe> base(n);
    for (std::size_t k = 0; k < n; ++k)
      base[k] = Fe(k * 0x0123456789abcdefull) + Fe(kFieldPrime - 1 - k);
    std::vector<Fe> plus = base, minus = base;
    ChaChaPrg::accumulate(31, 4, 1, plus);
    ChaChaPrg::accumulate(31, 4, -1, minus);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(plus[k], base[k] + mask[k]) << "n = " << n << " k = " << k;
      EXPECT_EQ(minus[k], base[k] - mask[k]) << "n = " << n << " k = " << k;
    }
  }
  std::vector<Fe> y(3);
  EXPECT_THROW(ChaChaPrg::accumulate(1, 1, 0, y), util::CheckFailure);
}

// What ChaChaPrg::next_fe does with the same words, one at a time.
std::size_t reference_accept(const std::vector<std::uint64_t>& words,
                             int sign, std::vector<Fe>& y) {
  std::size_t count = 0;
  for (const std::uint64_t w : words) {
    const std::uint64_t v = w >> 3;
    if (v >= kFieldPrime) continue;
    y[count] = sign > 0 ? y[count] + Fe(v) : y[count] - Fe(v);
    ++count;
  }
  return count;
}

TEST(PrgAcceptCompact, RejectedWordsAreSkippedAndLaterElementsShift) {
  // A real stream rejects with probability 2^-61 per draw, so no seed
  // reaches this path; crafted words do. ~0 gives v >> 3 == p exactly.
  const std::uint64_t reject_words[] = {~0ull, kFieldPrime << 3,
                                        (kFieldPrime << 3) | 5};
  const std::uint64_t edge_accept = ((kFieldPrime - 1) << 3) | 7;  // v = p - 1
  for (const std::size_t n : {1u, 7u, 8u, 9u, 16u, 23u, 128u}) {
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      for (const std::uint64_t bad : reject_words) {
        for (const int sign : {1, -1}) {
          std::vector<std::uint64_t> words(n);
          for (std::size_t j = 0; j < n; ++j)
            words[j] = (j % 5 == 3) ? edge_accept : (j + 1) * 0x9e3779b97f4a7c15ull;
          words[at] = bad;
          if (n > 3) words[n - 2] = ~0ull;  // a second rejection
          std::vector<Fe> y(n + 2), want(n + 2);
          for (std::size_t k = 0; k < y.size(); ++k) y[k] = want[k] = Fe(k + 11);
          const std::size_t got = detail::accept_and_accumulate(words, sign, y);
          EXPECT_EQ(got, reference_accept(words, sign, want));
          EXPECT_EQ(y, want) << "n " << n << " reject at " << at;
        }
      }
    }
  }
}

TEST(PrgAcceptCompact, AllAcceptedBatchesUpdateEveryElement) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 15u, 128u}) {
    std::vector<std::uint64_t> words(n);
    for (std::size_t j = 0; j < n; ++j)
      words[j] = j % 3 == 0 ? ((kFieldPrime - 1) << 3) : j * 0xd1b54a32d192ed03ull;
    for (const int sign : {1, -1}) {
      std::vector<Fe> y(n), want(n);
      for (std::size_t k = 0; k < n; ++k) y[k] = want[k] = Fe(kFieldPrime - 1 - k);
      EXPECT_EQ(detail::accept_and_accumulate(words, sign, y), n);
      reference_accept(words, sign, want);
      EXPECT_EQ(y, want) << "n " << n;
    }
  }
}

TEST(Prg, DeterministicForSameKeyAndNonce) {
  ChaChaPrg a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prg, KeySensitivity) {
  ChaChaPrg a(42, 7), b(43, 7);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Prg, NonceSensitivity) {
  ChaChaPrg a(42, 7), b(42, 8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Prg, FieldElementsInRange) {
  ChaChaPrg prg(5, 1);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(prg.next_fe().value(), kFieldPrime);
}

TEST(Prg, FieldElementsRoughlyUniform) {
  // Chi-square over 8 buckets; bound is very loose but catches gross bias.
  ChaChaPrg prg(6, 2);
  const int n = 80000;
  std::array<int, 8> buckets{};
  for (int i = 0; i < n; ++i)
    ++buckets[static_cast<std::size_t>(
        prg.next_fe().value() / ((kFieldPrime / 8) + 1))];
  const double expected = n / 8.0;
  double chi2 = 0.0;
  for (int b : buckets) chi2 += (b - expected) * (b - expected) / expected;
  EXPECT_LT(chi2, 40.0);  // df=7; 40 is far beyond any sane p-value cut
}

TEST(Prg, MaskVectorLength) {
  ChaChaPrg prg(7, 3);
  const auto mask = prg.mask(257);
  EXPECT_EQ(mask.size(), 257u);
  std::set<std::uint64_t> uniq;
  for (const auto& m : mask) uniq.insert(m.value());
  EXPECT_GT(uniq.size(), 250u);  // no obvious repetition
}

TEST(Prg, StreamDoesNotCycleEarly) {
  ChaChaPrg prg(8, 4);
  std::vector<std::uint64_t> first(64);
  for (auto& v : first) v = prg.next_u64();
  // The next 64 outputs (second ChaCha block onward) must differ.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (prg.next_u64() == first[i]);
  EXPECT_EQ(same, 0);
}

TEST(Prg, BitBalance) {
  ChaChaPrg prg(9, 5);
  std::int64_t pop = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) pop += __builtin_popcountll(prg.next_u64());
  const double mean_bits = static_cast<double>(pop) / n;
  EXPECT_NEAR(mean_bits, 32.0, 0.5);
}

}  // namespace
}  // namespace groupfel::secagg
