// Deterministic pseudo-random number generation for simulation.
//
// Every stochastic component of the simulator (data synthesis, Dirichlet
// partitioning, group sampling, SGD minibatch shuffling, secure-aggregation
// key material) draws from its own Rng stream derived from a root seed via
// splitmix64, so experiments are reproducible bit-for-bit regardless of
// thread scheduling: each parallel task receives a stream keyed by its
// logical index, never by execution order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace groupfel::runtime {

/// splitmix64 step; used to derive seeds and to seed xoshiro state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ generator. Small, fast, passes BigCrush; not cryptographic
/// (the secagg module layers a keyed PRG on top for mask expansion).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  /// Derives an independent child stream; `salt` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) const noexcept;

  [[nodiscard]] std::uint64_t next_u64() noexcept;

  // UniformRandomBitGenerator interface so <random> distributions work too.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }
  result_type operator()() noexcept { return next_u64(); }

  /// Uniform in [0, n). Unbiased via rejection (Lemire's method).
  [[nodiscard]] std::uint64_t next_below(std::uint64_t n) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Standard normal via Box–Muller (cached second value).
  [[nodiscard]] double normal() noexcept;

  /// Normal with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Gamma(shape, 1) via Marsaglia–Tsang; shape > 0.
  [[nodiscard]] double gamma(double shape) noexcept;

  /// Dirichlet(alpha,...,alpha) over `k` categories.
  [[nodiscard]] std::vector<double> dirichlet(double alpha, std::size_t k);

  /// Dirichlet with per-category concentration.
  [[nodiscard]] std::vector<double> dirichlet(std::span<const double> alpha);

  /// Draws an index from an (unnormalized, nonnegative) weight vector.
  [[nodiscard]] std::size_t categorical(std::span<const double> weights);

  /// Makes `n` categorical(weights) draws and adds each drawn index to
  /// `counts` (one slot per weight). The counts and the stream position
  /// afterwards are exactly those of n scalar categorical() calls. Weights
  /// are validated and summed once, even for n == 0; throws like
  /// categorical(), and on a counts/weights size mismatch.
  void categorical_counts(std::span<const double> weights, std::size_t n,
                          std::span<std::uint32_t> counts);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = next_below(i);
      std::swap(v[i - 1], v[j]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle(std::span<T>(v));
  }

  /// k distinct indices from [0, n) (partial Fisher–Yates).
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace groupfel::runtime
