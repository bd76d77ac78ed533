#include "power/power_trace.hpp"

#include <algorithm>

#include "kernels/kernels.hpp"
#include "stats/integrate.hpp"
#include "util/error.hpp"

namespace wavm3::power {

void PowerTrace::add(double time, double watts) {
  WAVM3_REQUIRE(samples_.empty() || time >= samples_.back().time,
                "power samples must be time-ordered");
  WAVM3_REQUIRE(watts >= 0.0, "negative power reading");
  samples_.push_back({time, watts});
  times_.push_back(time);
  watts_.push_back(watts);
}

double PowerTrace::start_time() const {
  WAVM3_REQUIRE(!samples_.empty(), "empty trace");
  return samples_.front().time;
}

double PowerTrace::end_time() const {
  WAVM3_REQUIRE(!samples_.empty(), "empty trace");
  return samples_.back().time;
}

double PowerTrace::power_at(double t) const {
  WAVM3_REQUIRE(!samples_.empty(), "empty trace");
  return kernels::interp_at(times_, watts_, t);
}

double PowerTrace::energy_between(double t0, double t1) const {
  WAVM3_REQUIRE(t1 >= t0, "inverted energy interval");
  // Windowed trapezoid with boundary interpolation, via the shared
  // stats kernel (one quadrature for every trace consumer).
  return stats::window_trapezoid(times_, watts_, t0, t1);
}

double PowerTrace::total_energy() const {
  return stats::trapezoid(times_, watts_);
}

double PowerTrace::mean_power_between(double t0, double t1) const {
  const double a = std::max(t0, samples_.empty() ? t0 : samples_.front().time);
  const double b = std::min(t1, samples_.empty() ? t1 : samples_.back().time);
  if (b <= a) return 0.0;
  return energy_between(a, b) / (b - a);
}

PowerTrace PowerTrace::slice(double t0, double t1) const {
  PowerTrace out(label_);
  for (const auto& s : samples_)
    if (s.time >= t0 && s.time <= t1) out.add(s.time, s.watts);
  return out;
}

std::vector<PowerSample> PowerTrace::tail(std::size_t n) const {
  const std::size_t start = samples_.size() > n ? samples_.size() - n : 0;
  return {samples_.begin() + static_cast<std::ptrdiff_t>(start), samples_.end()};
}

}  // namespace wavm3::power
