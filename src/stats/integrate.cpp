#include "stats/integrate.hpp"

#include <cmath>

#include "kernels/kernels.hpp"

namespace wavm3::stats {

// The quadrature itself lives in src/kernels/ (runtime-dispatched
// scalar/AVX2/NEON with a fixed blocked-4 reduction order), so every
// consumer — batch FeatureBatch columns, the streaming extractor's
// panel accumulator, PowerTrace windows — shares one bit-identical
// implementation. These wrappers pin the documented stats semantics
// (monotonicity contract, duplicate-timestamp collapse, window
// clamping) which the kernels reproduce exactly; the contract checks
// run inside the kernel entry points.

bool is_non_decreasing(std::span<const double> t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t[i])) return false;
    if (i > 0 && t[i] < t[i - 1]) return false;
  }
  return true;
}

double trapezoid(std::span<const double> t, std::span<const double> y) {
  return kernels::trapezoid(t, y);
}

double window_trapezoid(std::span<const double> t, std::span<const double> y,
                        double t0, double t1) {
  return kernels::window_trapezoid(t, y, t0, t1);
}

}  // namespace wavm3::stats
