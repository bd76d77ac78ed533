#include "cloud/hypervisor.hpp"

#include "util/error.hpp"

namespace wavm3::cloud {

Hypervisor::Hypervisor(HypervisorParams params) : params_(params) {
  WAVM3_REQUIRE(params_.dom0_base_vcpus >= 0.0, "dom0 overhead must be nonnegative");
  WAVM3_REQUIRE(params_.per_vm_overhead_vcpus >= 0.0, "per-VM overhead must be nonnegative");
}

double Hypervisor::vmm_demand(std::size_t running_vms) const {
  return params_.dom0_base_vcpus +
         params_.per_vm_overhead_vcpus * static_cast<double>(running_vms);
}

}  // namespace wavm3::cloud
