// Ground-truth physical host power model — the simulated stand-in for
// the real machines whose AC-side draw the paper measures.
//
// Deliberately *richer than the fitted models*: the CPU term is mildly
// convex and saturates at the hardware limit, memory-write traffic and
// NIC throughput contribute their own terms, and live-migration
// dirty-page tracking adds shadow-paging overhead on the source. The
// regression pipeline never reads these parameters; it only sees meter
// samples, exactly like the paper's authors.
#pragma once

#include <string>

namespace wavm3::power {

/// Ground-truth parameters of one machine class.
struct HostPowerParams {
  std::string machine_class;       ///< e.g. "m-class (Opteron 8356)"
  double idle_watts = 430.0;       ///< AC draw of the idle host (incl. PSU loss)
  double vcpus = 32.0;             ///< hardware threads, for saturation/convexity
  double watts_per_vcpu = 11.0;    ///< marginal power of one busy vCPU (linear part)
  double cpu_convexity_watts = 60.0;  ///< extra watts at full load from the quadratic part
  double mem_watts_per_gbs = 9.0;  ///< watts per GB/s of memory write (dirtying) traffic
  double nic_active_watts = 4.0;   ///< NIC/driver baseline while a transfer is active
  double nic_watts_per_gbs = 30.0; ///< watts per GB/s of NIC payload throughput
  double tracking_watts = 22.0;    ///< shadow-paging cost at DR=1 while tracking dirty pages
  double vm_spinup_watts = 12.0;   ///< transient while creating/destroying a VM container
  /// Cooling power at full CPU load (fans spin with a superlinear ramp).
  /// Its per-run gain varies with thermal state, which is a major source
  /// of run-to-run energy variance on real machines.
  double fan_watts_full = 50.0;
};

/// Instantaneous activity snapshot of one host; assembled by the
/// migration/experiment layer from cloud + migration state.
struct HostActivity {
  double cpu_used_vcpus = 0.0;      ///< CPU(h,t) of Eq. 2, already capped
  double mem_dirty_bytes_per_s = 0.0;  ///< memory write traffic of hosted workloads
  double nic_bytes_per_s = 0.0;     ///< migration payload through this host's NIC
  bool transfer_active = false;     ///< any active migration stream endpoint here
  double tracking_dirty_ratio = 0.0;  ///< DR(v,t) being tracked (live source only)
  bool vm_lifecycle_active = false; ///< creating/suspending/destroying a VM right now
};

/// Computes the true AC power of a host.
class HostPowerModel {
 public:
  explicit HostPowerModel(HostPowerParams params);

  const HostPowerParams& params() const { return params_; }

  /// True instantaneous AC power in watts for the given activity.
  double true_power(const HostActivity& activity) const;

  /// Idle draw (activity all-zero); convenience for bias calibration.
  double idle_power() const { return params_.idle_watts; }

 private:
  HostPowerParams params_;
};

}  // namespace wavm3::power
