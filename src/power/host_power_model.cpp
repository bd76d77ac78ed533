#include "power/host_power_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wavm3::power {

HostPowerModel::HostPowerModel(HostPowerParams params) : params_(std::move(params)) {
  WAVM3_REQUIRE(params_.idle_watts > 0.0, "idle power must be positive");
  WAVM3_REQUIRE(params_.vcpus >= 1.0, "host needs at least one vCPU");
  WAVM3_REQUIRE(params_.watts_per_vcpu >= 0.0, "per-vCPU power must be nonnegative");
}

double HostPowerModel::true_power(const HostActivity& activity) const {
  // CPU: linear + mildly convex in utilisation, saturating at capacity.
  const double u = std::clamp(activity.cpu_used_vcpus, 0.0, params_.vcpus);
  const double frac = u / params_.vcpus;
  const double cpu_watts =
      params_.watts_per_vcpu * u + params_.cpu_convexity_watts * frac * frac;

  // Cooling: fans ramp superlinearly with load.
  const double fan_watts = params_.fan_watts_full * std::pow(frac, 1.5);

  // Memory write (dirtying) traffic.
  const double mem_watts = params_.mem_watts_per_gbs * (activity.mem_dirty_bytes_per_s / 1e9);

  // NIC: active baseline plus throughput-proportional part.
  double nic_watts = 0.0;
  if (activity.transfer_active || activity.nic_bytes_per_s > 0.0) {
    nic_watts = params_.nic_active_watts +
                params_.nic_watts_per_gbs * (activity.nic_bytes_per_s / 1e9);
  }

  // Live-migration dirty-page tracking (shadow paging) on the source.
  const double tracking_watts =
      params_.tracking_watts * std::clamp(activity.tracking_dirty_ratio, 0.0, 1.0);

  const double lifecycle_watts = activity.vm_lifecycle_active ? params_.vm_spinup_watts : 0.0;

  return params_.idle_watts + cpu_watts + fan_watts + mem_watts + nic_watts + tracking_watts +
         lifecycle_watts;
}

}  // namespace wavm3::power
