// Summary statistics and least-squares fits shared by the cost model,
// grouping metrics, and the measurement benches.
#pragma once

#include <span>
#include <vector>

namespace groupfel::util {

[[nodiscard]] double mean(std::span<const double> xs);
/// Population variance (divide by n), matching the paper's Var(n_i/n_g).
[[nodiscard]] double variance(std::span<const double> xs);
[[nodiscard]] double stddev(std::span<const double> xs);
/// Coefficient of variation sigma/mu; returns 0 for an all-zero vector.
[[nodiscard]] double coefficient_of_variation(std::span<const double> xs);
[[nodiscard]] double min_of(std::span<const double> xs);
[[nodiscard]] double max_of(std::span<const double> xs);

struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};

/// Ordinary least squares y = slope*x + intercept.
[[nodiscard]] LinearFit fit_linear(std::span<const double> x,
                                   std::span<const double> y);

struct QuadraticFit {
  double a = 0.0;  ///< coefficient of x^2
  double b = 0.0;  ///< coefficient of x
  double c = 0.0;  ///< constant
  double r2 = 0.0;
};

/// Least squares y = a*x^2 + b*x + c via the 3x3 normal equations.
[[nodiscard]] QuadraticFit fit_quadratic(std::span<const double> x,
                                         std::span<const double> y);

/// Default additive smoothing of kl_divergence.
inline constexpr double kKlSmoothing = 1e-9;

/// Kullback–Leibler divergence KL(p || q) with additive smoothing `eps`
/// applied to both distributions (SHARE's grouping criterion).
[[nodiscard]] double kl_divergence(std::span<const double> p,
                                   std::span<const double> q,
                                   double eps = kKlSmoothing);

}  // namespace groupfel::util
