// Xen-like hypervisor CPU arbitration, implementing the structure of
// Eq. 2: CPU(h,t) = CPUVMM(V(h,t)) + sum_v CPU(v,t) + CPUmigr(h,t).
//
// The VMM (dom-0) consumes a base share plus a per-guest bookkeeping
// overhead; when aggregate demand exceeds the host capacity, guests are
// multiplexed with proportional-share scheduling (Host::cpu_granted_to,
// a simplification of Xen's credit scheduler that preserves the
// property the paper relies on: total utilisation saturates at the
// hardware limit).
#pragma once

#include <cstddef>

namespace wavm3::cloud {

/// VMM overhead parameters.
struct HypervisorParams {
  double dom0_base_vcpus = 0.25;     ///< dom-0 idle housekeeping
  double per_vm_overhead_vcpus = 0.05;  ///< per running guest bookkeeping
};

/// The VMM's own CPU demand (CPUVMM of Eq. 2).
class Hypervisor {
 public:
  explicit Hypervisor(HypervisorParams params = {});

  const HypervisorParams& params() const { return params_; }

  /// CPUVMM(V): dom-0 demand given the number of running guests.
  double vmm_demand(std::size_t running_vms) const;

 private:
  HypervisorParams params_;
};

}  // namespace wavm3::cloud
