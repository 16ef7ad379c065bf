// Keyed pseudorandom generator for secure-aggregation mask expansion.
//
// Implements the ChaCha20 block function (RFC 8439) from scratch. Both a
// client and the server (during dropout recovery) must expand the same seed
// to the same mask stream, so the PRG is part of the protocol definition —
// unlike the simulation RNG in runtime/rng.hpp, which is free to change.
//
// Blocks are computed 16 at a time (one block per vector lane, see
// prg.cpp); the stream is the blocks in counter order, so batching changes
// speed, never output.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "secagg/field.hpp"

namespace groupfel::secagg {

namespace detail {

/// Blocks per call of the batched ChaCha20 kernel.
inline constexpr std::size_t kChaChaBatchBlocks = 16;

/// Raw RFC 8439 block function over 16 consecutive counters. `state` is the
/// input state; words 12/13 hold a 64-bit block counter (low word first)
/// that advances by one per block, carrying from word 12 into word 13.
/// Writes block b's 16 output words w[0..15] (state added) to
/// out[8b .. 8b+7] as out[8b + j] = w[2j] | w[2j+1] << 32 — the 64-bit
/// words ChaChaPrg::next_u64 returns.
void chacha20_blocks16(const std::array<std::uint32_t, 16>& state,
                       std::uint64_t* out) noexcept;

/// Accept-and-compact step of the field-element sampler: walks `words` in
/// order, keeps v = word >> 3 when v < p (rejection sampling on the top 61
/// bits), and adds (sign = +1) or subtracts (sign = -1) the kept values
/// into y[0], y[1], ... mod p. Consumes every word; returns how many
/// elements of y it updated. Requires words.size() <= y.size().
std::size_t accept_and_accumulate(std::span<const std::uint64_t> words,
                                  int sign, std::span<Fe> y);

}  // namespace detail

class ChaChaPrg {
 public:
  /// Keys the stream from a 64-bit seed (expanded into the 256-bit ChaCha
  /// key deterministically) and a 64-bit nonce (protocol round / pair tag).
  ChaChaPrg(std::uint64_t seed, std::uint64_t nonce);

  /// Next 64 pseudorandom bits.
  [[nodiscard]] std::uint64_t next_u64();

  /// Next field element, uniform in [0, p) via rejection sampling.
  [[nodiscard]] Fe next_fe();

  /// Expands `n` field elements (the mask vector for an n-parameter model).
  [[nodiscard]] std::vector<Fe> mask(std::size_t n);

  /// y[k] += sign * ChaChaPrg(seed, nonce).mask(y.size())[k] mod p, for
  /// sign = +1 or -1, without materializing the mask.
  static void accumulate(std::uint64_t seed, std::uint64_t nonce, int sign,
                         std::span<Fe> y);

 private:
  static constexpr std::size_t kBufferWords = 8 * detail::kChaChaBatchBlocks;

  void refill();
  /// Draws y.size() field elements from this stream into y (see accumulate).
  void accumulate_into(int sign, std::span<Fe> y);

  std::array<std::uint32_t, 16> state_{};
  alignas(64) std::array<std::uint64_t, kBufferWords> buffer_{};
  std::size_t cursor_ = kBufferWords;  // forces refill on first use
};

}  // namespace groupfel::secagg
