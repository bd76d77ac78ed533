// Descriptive statistics: batch summaries and a numerically stable
// online (Welford) accumulator, used by the power meter's stabilisation
// detector and the experiment repetition criterion.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wavm3::stats {

/// Batch summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< unbiased (n-1) sample variance; 0 for n < 2
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes the full Summary of `values` (empty input -> zeroed
/// summary). The span overload is the implementation; the vector
/// overload forwards, so columnar callers avoid a copy.
Summary summarize(std::span<const double> values);
inline Summary summarize(const std::vector<double>& values) {
  return summarize(std::span<const double>(values));
}

double mean(std::span<const double> values);
inline double mean(const std::vector<double>& values) {
  return mean(std::span<const double>(values));
}

/// Unbiased sample variance; returns 0 for fewer than two values.
double variance(const std::vector<double>& values);

/// q-quantile (0 <= q <= 1) with linear interpolation; input is copied
/// and sorted internally. Throws on empty input.
double quantile(std::vector<double> values, double q);

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const;
  double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace wavm3::stats
