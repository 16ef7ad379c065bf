#include "secagg/field.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace groupfel::secagg {

Fe operator*(Fe a, Fe b) noexcept {
  const __uint128_t prod =
      static_cast<__uint128_t>(a.value()) * b.value();
  // Mersenne reduction: split at bit 61.
  std::uint64_t lo = static_cast<std::uint64_t>(prod) & kFieldPrime;
  std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
  std::uint64_t s = lo + (hi & kFieldPrime) + (hi >> 61);
  s = (s & kFieldPrime) + (s >> 61);
  if (s >= kFieldPrime) s -= kFieldPrime;
  Fe out;
  out = Fe(s);  // Fe(v) reduces again; harmless since s < p.
  return out;
}

Fe fe_pow(Fe a, std::uint64_t e) noexcept {
  Fe result(1);
  Fe base = a;
  while (e > 0) {
    if (e & 1) result *= base;
    base *= base;
    e >>= 1;
  }
  return result;
}

Fe fe_inv(Fe a) {
  if (a.value() == 0) throw std::domain_error("fe_inv: zero has no inverse");
  return fe_pow(a, kFieldPrime - 2);
}

Fe FixedPointCodec::encode(float v) const {
  const double scaled = std::round(static_cast<double>(v) *
                                   static_cast<double>(1ull << frac_bits));
  // Clamp to +-2^53 (far beyond any model weight after scaling).
  const double limit = 9007199254740992.0;  // 2^53
  const double c = std::clamp(scaled, -limit, limit);
  const auto as_int = static_cast<long long>(c);
  if (as_int >= 0) return Fe(static_cast<std::uint64_t>(as_int));
  return Fe(static_cast<std::uint64_t>(as_int + static_cast<long long>(kFieldPrime)));
}

double FixedPointCodec::decode(Fe v) const {
  const std::uint64_t raw = v.value();
  const double scale = static_cast<double>(1ull << frac_bits);
  if (raw > kFieldPrime / 2) {
    // Negative wrap.
    return -static_cast<double>(kFieldPrime - raw) / scale;
  }
  return static_cast<double>(raw) / scale;
}

void FixedPointCodec::encode_vector(std::span<const float> in,
                                    std::vector<Fe>& out) const {
  out.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = encode(in[i]);
}

void FixedPointCodec::decode_vector(std::span<const Fe> in,
                                    std::vector<float>& out) const {
  out.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i] = static_cast<float>(decode(in[i]));
}

}  // namespace groupfel::secagg
