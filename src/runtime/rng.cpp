#include "runtime/rng.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace groupfel::runtime {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t salt) const noexcept {
  // Mix the current state with the salt through splitmix so sibling forks
  // (salt 0, 1, 2, ...) are decorrelated from each other and the parent.
  std::uint64_t sm = s_[0] ^ rotl(s_[2], 17) ^ (salt * 0x9e3779b97f4a7c15ull);
  Rng child(splitmix64(sm));
  return child;
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

namespace {

// Box–Muller from plain IEEE double operations, so that normal() and
// normals_into() give the same bits in every build and on every libm. The
// pieces are fdlibm's: __ieee754_log, the medium-range pi/2 reduction of
// __ieee754_rem_pio2, __kernel_sin and __kernel_cos. Their branches are
// rewritten as selects of values computed on every path, so a loop over
// lanes vectorizes; each select picks the value fdlibm's branch would
// return. This file builds with -ffp-contract=off, which keeps the
// polynomials out of FMAs.
//
// The constants and algorithms below come from fdlibm, whose notice reads:
//   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//   Developed at SunPro, a Sun Microsystems, Inc. business.
//   Permission to use, copy, modify, and distribute this
//   software is freely granted, provided that this notice
//   is preserved.

constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3FE62E42FEE00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3DEA39EF35793C76
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

constexpr double kInvPio2 = 6.36619772367581382433e-01;  // 0x3FE45F306DC9C883
constexpr double kPio2_1 = 1.57079632673412561417e+00;   // first 33 bits of pi/2
constexpr double kPio2_1t = 6.07710050650619224932e-11;  // pi/2 - kPio2_1
constexpr double kPio2_2 = 6.07710050630396597660e-11;   // second 33 bits
constexpr double kPio2_2t = 2.02226624879595063154e-21;
constexpr double kPio2_3 = 2.02226624871116645580e-21;   // third 33 bits
constexpr double kPio2_3t = 8.47842766036889956997e-32;

constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;

constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

/// High 32 bits of x's representation, as fdlibm's __HI.
inline std::int32_t high_word(double x) noexcept {
  return static_cast<std::int32_t>(std::bit_cast<std::uint64_t>(x) >> 32);
}

/// __ieee754_log for a positive normal finite x, which covers every u1
/// Box–Muller draws ([2^-53, 1 - 2^-53]); zero, negative, subnormal and
/// non-finite inputs are not handled. The k == 0 returns of fdlibm are the
/// general expressions with dk = 0, bit for bit, so only the |f| < 2^-20
/// and the two-polynomial-shape branches remain as selects.
inline double log_lane(double x) noexcept {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  std::int32_t hx = high_word(x);
  std::int32_t k = (hx >> 20) - 1023;
  hx &= 0x000fffff;
  const std::int32_t i = (hx + 0x95f64) & 0x100000;
  // Normalize x or x/2 into [sqrt(2)/2, sqrt(2)).
  const auto hi = static_cast<std::uint32_t>(hx | (i ^ 0x3ff00000));
  const double xn = std::bit_cast<double>(
      (static_cast<std::uint64_t>(hi) << 32) | (bits & 0xffffffffull));
  k += i >> 20;
  const double f = xn - 1.0;
  const double dk = static_cast<double>(k);

  const double r_tiny = f * f * (0.5 - 0.33333333333333333 * f);
  const double tiny = dk * kLn2Hi - ((r_tiny - dk * kLn2Lo) - f);

  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  const double wide =
      dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
  const double narrow = dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f);

  const bool is_tiny = (0x000fffff & (2 + hx)) < 3;
  const bool is_wide = ((hx - 0x6147a) | (0x6b851 - hx)) > 0;
  return is_tiny ? tiny : (is_wide ? wide : narrow);
}

/// __kernel_sin(x, y, iy) on |x| <~ pi/4; `iy` says y is nonzero.
inline double kernel_sin(double x, double y, bool iy) noexcept {
  const std::int32_t ix = high_word(x) & 0x7fffffff;
  const double z = x * x;
  const double v = z * x;
  const double r = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const double plain = x + v * (kS1 + z * r);
  const double tailed = x - ((z * (0.5 * y - v * r) - y) - v * kS1);
  return ix < 0x3e400000 ? x : (iy ? tailed : plain);
}

/// __kernel_cos(x, y) on |x| <~ pi/4. For |x| < 0.3 fdlibm returns
/// 1 - (0.5z - (zr - xy)), which is the general expression with qx = 0.
inline double kernel_cos(double x, double y) noexcept {
  const std::int32_t ix = high_word(x) & 0x7fffffff;
  const double z = x * x;
  const double r =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double quarter = std::bit_cast<double>(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(ix - 0x00200000))
      << 32);
  const double qx =
      ix < 0x3fd33333 ? 0.0 : (ix > 0x3fe90000 ? 0.28125 : quarter);
  const double hz = 0.5 * z - qx;
  const double a = 1.0 - qx;
  const double general = a - (hz - (z * r - x * y));
  return ix < 0x3e400000 ? 1.0 : general;
}

/// sin and cos of theta in [0, 2pi): the medium-range branch of
/// __ieee754_rem_pio2 (n <= 4) for every theta, then the kernels, with
/// fdlibm's iy = 0 sine for n == 0.
inline void sincos_lane(double theta, double& sin_out,
                        double& cos_out) noexcept {
  const std::int32_t ix = high_word(theta) & 0x7fffffff;
  const auto n = static_cast<std::int32_t>(theta * kInvPio2 + 0.5);
  const double fn = static_cast<double>(n);
  // First pass, good to 85 bits unless theta is near n·pi/2.
  const double r1 = theta - fn * kPio2_1;
  const double w1 = fn * kPio2_1t;
  const double head1 = r1 - w1;
  // Second and third passes, 118 and 151 bits.
  const double r2 = r1 - fn * kPio2_2;
  const double w2 = fn * kPio2_2t - ((r1 - r2) - fn * kPio2_2);
  const double head2 = r2 - w2;
  const double r3 = r2 - fn * kPio2_3;
  const double w3 = fn * kPio2_3t - ((r2 - r3) - fn * kPio2_3);
  const double head3 = r3 - w3;
  // fdlibm takes the first pass unless theta's high word equals that of
  // n·pi/2 (its npio2_hw table, which holds the high words of n·kPio2_1),
  // and then as many passes as the cancellation in the head needs.
  const std::int32_t j = ix >> 20;
  const bool near = ix == (high_word(fn * kPio2_1) & 0x7fffffff);
  const bool second = near && j - ((high_word(head1) >> 20) & 0x7ff) > 16;
  const bool third = second && j - ((high_word(head2) >> 20) & 0x7ff) > 49;
  const double r = third ? r3 : (second ? r2 : r1);
  const double w = third ? w3 : (second ? w2 : w1);
  const double head = third ? head3 : (second ? head2 : head1);
  const double tail = (r - head) - w;

  const double ks = kernel_sin(head, tail, n != 0);
  const double kc = kernel_cos(head, tail);
  const bool odd = (n & 1) != 0;
  const double s = odd ? kc : ks;
  const double c = odd ? ks : kc;
  sin_out = (n & 2) != 0 ? -s : s;
  cos_out = ((n + 1) & 2) != 0 ? -c : c;
}

/// One Box–Muller lane: r·cos(theta) and r·sin(theta), r = sqrt(-2 ln u1),
/// theta = 2pi·u2.
inline void box_muller_lane(double u1, double u2, double& cos_out,
                            double& sin_out) noexcept {
  const double r = std::sqrt(-2.0 * log_lane(u1));
  double s = 0.0;
  double c = 0.0;
  sincos_lane(2.0 * M_PI * u2, s, c);
  cos_out = r * c;
  sin_out = r * s;
}

}  // namespace

double box_muller_log(double u1) noexcept { return log_lane(u1); }

void box_muller_sincos(double theta, double& sin_out,
                       double& cos_out) noexcept {
  sincos_lane(theta, sin_out, cos_out);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = next_double();
  while (u1 <= 1e-300) u1 = next_double();
  const double u2 = next_double();
  double c = 0.0;
  box_muller_lane(u1, u2, c, cached_normal_);
  has_cached_normal_ = true;
  return c;
}

void Rng::normals_into(std::span<double> out) noexcept {
  std::size_t done = 0;
  if (has_cached_normal_ && !out.empty()) {
    out[done++] = cached_normal_;
    has_cached_normal_ = false;
  }
  // Up to 64 (u1, u2) pairs per chunk, drawn in normal()'s order; the
  // kernel loop over them carries no dependence between lanes.
  constexpr std::size_t kPairs = 64;
  alignas(64) double u1[kPairs];
  alignas(64) double u2[kPairs];
  alignas(64) double c[kPairs];
  alignas(64) double s[kPairs];
  while (done < out.size()) {
    const std::size_t pairs = std::min(kPairs, (out.size() - done + 1) / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      double a = next_double();
      while (a <= 1e-300) a = next_double();
      u1[p] = a;
      u2[p] = next_double();
    }
    for (std::size_t p = 0; p < pairs; ++p)
      box_muller_lane(u1[p], u2[p], c[p], s[p]);
    for (std::size_t p = 0; p < pairs; ++p) {
      out[done++] = c[p];
      if (done == out.size()) {
        cached_normal_ = s[p];
        has_cached_normal_ = true;
        break;
      }
      out[done++] = s[p];
    }
  }
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::gamma(double shape) noexcept {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    const double u = next_double();
    return gamma(shape + 1.0) * std::pow(u > 0 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = next_double();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t k) {
  std::vector<double> out(k);
  double sum = 0.0;
  for (auto& g : out) {
    g = gamma(alpha);
    sum += g;
  }
  if (sum <= 0.0) {
    // Extreme concentration underflow: put all mass on one category.
    out.assign(k, 0.0);
    out[next_below(k)] = 1.0;
    return out;
  }
  for (auto& g : out) g /= sum;
  return out;
}

std::vector<double> Rng::dirichlet(std::span<const double> alpha) {
  std::vector<double> out(alpha.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    out[i] = gamma(alpha[i]);
    sum += out[i];
  }
  if (sum <= 0.0) {
    out.assign(alpha.size(), 0.0);
    out[next_below(alpha.size())] = 1.0;
    return out;
  }
  for (auto& g : out) g /= sum;
  return out;
}

namespace {
/// Sum of `weights` in index order; throws on a negative weight or a
/// non-positive total.
double categorical_total(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("categorical: zero total weight");
  return total;
}
}  // namespace

std::size_t Rng::categorical(std::span<const double> weights) {
  const double total = categorical_total(weights);
  double u = next_double() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

void Rng::categorical_counts(std::span<const double> weights, std::size_t n,
                             std::span<std::uint32_t> counts) {
  if (counts.size() != weights.size())
    throw std::invalid_argument("categorical_counts: counts/weights size mismatch");
  const double total = categorical_total(weights);
  const std::size_t last = weights.size() - 1;
  // 64 draws run categorical()'s subtraction chain side by side, one lane
  // per draw, each lane with the same operations in the same order. A lane
  // leaves the chain at the first class i where u < 0 after subtracting
  // w[i], so the draws landing on class i are the lanes still in before i
  // minus those still in after it. Since w >= 0, u never increases and a
  // lane that has left cannot come back, so counting !(u < 0) per class is
  // exact (a NaN u never leaves, as in the scalar loop). Padding lanes
  // start negative and are never counted.
  constexpr std::size_t kLanes = 64;
  alignas(64) double u[kLanes];
  for (std::size_t done = 0; done < n; done += kLanes) {
    const std::size_t len = std::min(kLanes, n - done);
    for (std::size_t b = 0; b < len; ++b) u[b] = next_double() * total;
    for (std::size_t b = len; b < kLanes; ++b) u[b] = -1.0;
    std::size_t in = len;
    for (std::size_t i = 0; i < last && in > 0; ++i) {
      const double w = weights[i];
      std::size_t still_in = 0;
      for (std::size_t b = 0; b < kLanes; ++b) {
        u[b] -= w;
        still_in += !(u[b] < 0.0);
      }
      counts[i] += static_cast<std::uint32_t>(in - still_in);
      in = still_in;
    }
    counts[last] += static_cast<std::uint32_t>(in);
  }
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + next_below(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace groupfel::runtime
