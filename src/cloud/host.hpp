// Physical machine hosting VMs under a hypervisor. Exposes exactly the
// quantities the paper's model consumes: CPU(h,t) (Eq. 2), per-VM
// granted CPU CPU(v,t), and the CPU headroom that throttles migration
// bandwidth.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/hypervisor.hpp"
#include "cloud/vm.hpp"

namespace wavm3::cloud {

/// Static host characteristics, mirroring Table IIc, plus the fleet
/// fields a datacenter-scale planner needs (NIC capacity, migration
/// concurrency, topology placement). The fleet fields default to the
/// two-host testbed's implicit values so host-pair code is unaffected.
struct HostSpec {
  std::string name;              ///< e.g. "m01"
  int vcpus = 1;                 ///< hardware threads (32 for m01/m02)
  double ram_bytes = 0.0;
  std::string cpu_model;         ///< e.g. "16x Opteron 8356, dual threaded"
  /// Instruction-set architecture. Xen refuses migration between
  /// incompatible architectures (paper SI), which restricts the model
  /// to homogeneous source/target pairs; the engine enforces it.
  std::string cpu_architecture = "x86_64";
  std::string nic_model;         ///< e.g. "Broadcom BCM5704"
  std::string xen_version = "4.2.5";

  /// NIC wire rate in bytes/s; 0 = unbounded (the link alone limits,
  /// which is the two-host testbed behaviour).
  double nic_rate = 0.0;
  /// How many migrations this host may serve concurrently (as source
  /// or target); planners schedule waves under this cap.
  int max_concurrent_migrations = 1;
  /// Topology group (rack / aggregation domain); same-group pairs get
  /// full link rate, cross-group pairs may be slower. Empty = one flat
  /// group.
  std::string group;
};

/// A physical machine.
class Host {
 public:
  Host(HostSpec spec, HypervisorParams hypervisor_params = {});

  const HostSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  double cpu_capacity() const { return static_cast<double>(spec_.vcpus); }
  const Hypervisor& hypervisor() const { return hypervisor_; }

  /// Places a VM on this host. The VM keeps its current state. Fails on
  /// duplicate id or when the VM's RAM does not fit.
  void add_vm(VmPtr vm);

  /// Removes a VM by id; returns the removed VM.
  VmPtr remove_vm(const std::string& vm_id);

  /// Returns the VM with this id, or nullptr.
  VmPtr vm(const std::string& vm_id) const;
  bool has_vm(const std::string& vm_id) const { return vm(vm_id) != nullptr; }

  /// All placed VMs, in deterministic (id) order.
  std::vector<VmPtr> vms() const;
  std::size_t vm_count() const { return vms_.size(); }
  std::size_t running_vm_count() const;

  /// Extra CPU demand of an in-flight migration helper on this host
  /// (CPUmigr of Eq. 2); set by the migration engine, zero otherwise.
  void set_migration_cpu_demand(double vcpus);
  double migration_cpu_demand() const { return migration_cpu_demand_; }

  /// Aggregate demand of all running guests (uncapped), at time t.
  double total_vm_demand(double t) const;

  /// Aggregate NIC payload traffic of all running guests at time t;
  /// contends with migration traffic on the host's link.
  double guest_network_demand(double t) const;

  /// dom-0 demand (CPUVMM of Eq. 2) at time t.
  double vmm_demand(double t) const;

  /// CPU(h,t): total vCPUs in use, capped at capacity (Eq. 2 with
  /// hardware saturation). This is what dstat would report scaled to
  /// vCPUs.
  double cpu_used(double t) const;

  /// CPU actually granted to one VM after proportional multiplexing
  /// (CPU(v,t)); zero when the VM is not running here.
  double cpu_granted_to(const std::string& vm_id, double t) const;

  /// Headroom left for the migration helper: capacity minus dom-0 and
  /// guest demand (migration demand excluded). Drives achievable
  /// migration bandwidth.
  double headroom_excluding_migration(double t) const;

  /// Sum of placed VMs' RAM.
  double ram_committed() const;

  /// Whether a VM with `spec` fits in the remaining RAM.
  bool can_fit(const VmSpec& vm_spec) const;

 private:
  HostSpec spec_;
  Hypervisor hypervisor_;
  std::map<std::string, VmPtr> vms_;  // ordered -> deterministic iteration
  double migration_cpu_demand_ = 0.0;
};

using HostPtr = std::shared_ptr<Host>;

}  // namespace wavm3::cloud
