#include "secagg/prg.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "util/check.hpp"

namespace groupfel::secagg {

namespace {

// The keystream is written as bytes and read back as 64-bit words, and the
// mod-p pass loads Fe spans as vectors of their 64-bit values.
static_assert(std::endian::native == std::endian::little,
              "prg.cpp: the batched keystream layout assumes little-endian");
static_assert(sizeof(Fe) == sizeof(std::uint64_t) &&
                  std::is_trivially_copyable_v<Fe>,
              "prg.cpp: Fe must be a bare 64-bit value");

constexpr std::size_t kLanes = detail::kChaChaBatchBlocks;

// GNU vector extensions pin the layout, as in nn/gemm.cpp: v16u32 holds one
// state word of 16 consecutive blocks (lane b = block b), so each quarter
// round is a handful of full-width integer ops, and the code legalizes on
// any target without runtime dispatch. Vector values never cross a function
// boundary (only pointers to them do): a 64-byte vector argument changes
// ABI with the ISA and raises -Wpsabi in portable builds.
typedef std::uint32_t v16u32 __attribute__((vector_size(kLanes * 4)));
typedef std::uint64_t v8u64 __attribute__((vector_size(64)));
// Unaligned, aliasing-safe views for loads and stores through scalar
// pointers.
typedef std::uint32_t v16u32_u
    __attribute__((vector_size(kLanes * 4), aligned(4), may_alias));
typedef std::uint64_t v8u64_u
    __attribute__((vector_size(64), aligned(8), may_alias));

__attribute__((always_inline)) inline void quarter_round(v16u32* x, int a,
                                                         int b, int c,
                                                         int d) noexcept {
  x[a] += x[b]; x[d] ^= x[a]; x[d] = (x[d] << 16) | (x[d] >> 16);
  x[c] += x[d]; x[b] ^= x[c]; x[b] = (x[b] << 12) | (x[b] >> 20);
  x[a] += x[b]; x[d] ^= x[a]; x[d] = (x[d] << 8) | (x[d] >> 24);
  x[c] += x[d]; x[b] ^= x[c]; x[b] = (x[b] << 7) | (x[b] >> 25);
}

// Shuffle indices for one step of the 16x16 block-swap transpose: rows r
// and r + H (r & H == 0) swap their off-diagonal H-wide lane blocks. Index
// i < 16 selects lane i of row r, i >= 16 lane i - 16 of row r + H.
template <int H>
constexpr int swap_lo(int c) {
  return (c & H) ? c - H + 16 : c;
}
template <int H>
constexpr int swap_hi(int c) {
  return (c & H) ? c + 16 : c + H;
}

// Steps H = 8, 4, 2, 1 turn word-major rows into block-major rows.
template <int H>
__attribute__((always_inline)) inline void swap_step(v16u32* x) noexcept {
  for (int r = 0; r < 16; ++r) {
    if (r & H) continue;
    const v16u32 lo = x[r], hi = x[r + H];
    x[r] = __builtin_shufflevector(
        lo, hi, swap_lo<H>(0), swap_lo<H>(1), swap_lo<H>(2), swap_lo<H>(3),
        swap_lo<H>(4), swap_lo<H>(5), swap_lo<H>(6), swap_lo<H>(7),
        swap_lo<H>(8), swap_lo<H>(9), swap_lo<H>(10), swap_lo<H>(11),
        swap_lo<H>(12), swap_lo<H>(13), swap_lo<H>(14), swap_lo<H>(15));
    x[r + H] = __builtin_shufflevector(
        lo, hi, swap_hi<H>(0), swap_hi<H>(1), swap_hi<H>(2), swap_hi<H>(3),
        swap_hi<H>(4), swap_hi<H>(5), swap_hi<H>(6), swap_hi<H>(7),
        swap_hi<H>(8), swap_hi<H>(9), swap_hi<H>(10), swap_hi<H>(11),
        swap_hi<H>(12), swap_hi<H>(13), swap_hi<H>(14), swap_hi<H>(15));
  }
}

// Expands a 64-bit seed into 8 key words via splitmix64 (both sides of the
// protocol derive the key identically from the shared seed).
std::array<std::uint32_t, 8> expand_key(std::uint64_t seed) noexcept {
  std::array<std::uint32_t, 8> key{};
  std::uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t z = (sm += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    key[2 * i] = static_cast<std::uint32_t>(z);
    key[2 * i + 1] = static_cast<std::uint32_t>(z >> 32);
  }
  return key;
}

}  // namespace

namespace detail {

void chacha20_blocks16(const std::array<std::uint32_t, 16>& state,
                       std::uint64_t* out) noexcept {
  v16u32 in[16];
  for (std::size_t w = 0; w < 16; ++w) in[w] = v16u32{} + state[w];
  // Lane b runs block counter + b as a 64-bit value: the low word wraps
  // exactly when it ends up below its lane offset, and the all-ones compare
  // result subtracts as +1 carry into the high word.
  const v16u32 lane = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  in[12] += lane;
  in[13] -= reinterpret_cast<v16u32>(in[12] < lane);

  v16u32 x[16];
  for (int w = 0; w < 16; ++w) x[w] = in[w];
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
  }
  for (int w = 0; w < 16; ++w) x[w] += in[w];

  swap_step<8>(x);
  swap_step<4>(x);
  swap_step<2>(x);
  swap_step<1>(x);
  for (int b = 0; b < 16; ++b)
    *reinterpret_cast<v16u32_u*>(out + 8 * b) = x[b];
}

std::size_t accept_and_accumulate(std::span<const std::uint64_t> words,
                                  int sign, std::span<Fe> y) {
  GF_CHECK(words.size() <= y.size(),
           "accept_and_accumulate: more words than output elements");
  const std::size_t n = words.size();
  const std::size_t full = n - n % 8;
  const bool subtract = sign < 0;
  const v8u64 p = v8u64{} + kFieldPrime;

  // A real stream rejects a draw with probability 2^-61, so the batch is
  // checked once and then fused straight into y.
  v8u64 rejected{};
  for (std::size_t j = 0; j < full; j += 8)
    rejected |= reinterpret_cast<v8u64>(
        (*reinterpret_cast<const v8u64_u*>(words.data() + j) >> 3) >= p);
  std::uint64_t any = 0;
  for (std::size_t l = 0; l < 8; ++l) any |= rejected[l];
  for (std::size_t j = full; j < n; ++j) any |= (words[j] >> 3) >= kFieldPrime;

  if (any == 0) {
    // Same branchless mod-p add / subtract as Fe::operator+ / operator-.
    for (std::size_t j = 0; j < full; j += 8) {
      const v8u64 v = *reinterpret_cast<const v8u64_u*>(words.data() + j) >> 3;
      v8u64_u* dst = reinterpret_cast<v8u64_u*>(y.data() + j);
      const v8u64 acc = *dst;
      if (subtract) {
        *dst = acc - v + (p & reinterpret_cast<v8u64>(acc < v));
      } else {
        const v8u64 s = acc + v;
        *dst = s - (p & reinterpret_cast<v8u64>(s >= p));
      }
    }
    for (std::size_t j = full; j < n; ++j) {
      const Fe v(words[j] >> 3);
      y[j] = subtract ? y[j] - v : y[j] + v;
    }
    return n;
  }

  // Compact the accepted draws in order, branchlessly: every word computes
  // its update of y[count], which is kept and advances count only on accept.
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t v = words[j] >> 3;
    const bool accept = v < kFieldPrime;
    const Fe cur = y[count];
    const Fe upd = subtract ? cur - Fe(v) : cur + Fe(v);
    y[count] = accept ? upd : cur;
    count += accept;
  }
  return count;
}

}  // namespace detail

ChaChaPrg::ChaChaPrg(std::uint64_t seed, std::uint64_t nonce) {
  // RFC 8439 constants "expand 32-byte k".
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  const auto key = expand_key(seed);
  for (int i = 0; i < 8; ++i) state_[4 + i] = key[static_cast<std::size_t>(i)];
  state_[12] = 0;  // block counter
  state_[13] = 0;
  state_[14] = static_cast<std::uint32_t>(nonce);
  state_[15] = static_cast<std::uint32_t>(nonce >> 32);
}

void ChaChaPrg::refill() {
  detail::chacha20_blocks16(state_, buffer_.data());
  // 64-bit block counter in words 12/13.
  const std::uint64_t counter =
      (std::uint64_t{state_[13]} << 32 | state_[12]) + kLanes;
  state_[12] = static_cast<std::uint32_t>(counter);
  state_[13] = static_cast<std::uint32_t>(counter >> 32);
  cursor_ = 0;
}

std::uint64_t ChaChaPrg::next_u64() {
  if (cursor_ == kBufferWords) refill();
  return buffer_[cursor_++];
}

Fe ChaChaPrg::next_fe() {
  // Rejection sampling on the top 61 bits keeps the distribution uniform.
  for (;;) {
    const std::uint64_t v = next_u64() >> 3;  // 61 bits
    if (v < kFieldPrime) return Fe(v);
  }
}

void ChaChaPrg::accumulate_into(int sign, std::span<Fe> y) {
  GF_CHECK(sign == 1 || sign == -1, "ChaChaPrg: mask sign must be +1 or -1, got ",
           sign);
  std::size_t done = 0;
  while (done < y.size()) {
    if (cursor_ == kBufferWords) refill();
    // Never read more words than elements still owed: a rejected word then
    // shifts the rest exactly as the one-at-a-time next_fe loop would.
    const std::size_t take =
        std::min(kBufferWords - cursor_, y.size() - done);
    done += detail::accept_and_accumulate(
        std::span<const std::uint64_t>(buffer_.data() + cursor_, take), sign,
        y.subspan(done));
    cursor_ += take;
  }
}

std::vector<Fe> ChaChaPrg::mask(std::size_t n) {
  std::vector<Fe> out(n);  // zero + mask = mask
  accumulate_into(1, out);
  return out;
}

void ChaChaPrg::accumulate(std::uint64_t seed, std::uint64_t nonce, int sign,
                           std::span<Fe> y) {
  ChaChaPrg(seed, nonce).accumulate_into(sign, y);
}

}  // namespace groupfel::secagg
