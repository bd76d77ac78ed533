// Virtual machine: a resource container in one of three states
// (stopped / running / suspended) executing a Workload. The migration
// engine manipulates VM state; hosts arbitrate its CPU demand.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "workloads/workload.hpp"

namespace wavm3::cloud {

/// Lifecycle states relevant to migration (SIII-A).
enum class VmState { kStopped, kRunning, kSuspended };

/// Static VM sizing, mirroring Table IIb.
struct VmSpec {
  std::string instance_type;  ///< e.g. "migrating-cpu"
  int vcpus = 1;
  double ram_bytes = 0.0;
  double storage_bytes = 0.0;
  std::string linux_kernel = "2.6.32";
};

/// A virtual machine.
class Vm {
 public:
  /// Creates a stopped VM with an idle workload.
  Vm(std::string id, VmSpec spec);

  const std::string& id() const { return id_; }
  const VmSpec& spec() const { return spec_; }
  VmState state() const { return state_; }

  /// Replaces the running program. Never null afterwards.
  void set_workload(workloads::WorkloadPtr workload);
  const workloads::Workload& workload() const { return *workload_; }
  workloads::WorkloadPtr workload_ptr() const { return workload_; }

  /// State transitions. Invalid transitions throw util::ContractError
  /// (e.g. resuming a VM that was never suspended).
  void start();
  void suspend();
  void resume();
  void stop();

  /// vCPUs demanded at time t: the workload demand clamped to the VM's
  /// vCPU count; zero unless running.
  double cpu_demand(double t) const;

  /// Pages/s the workload dirties at full CPU grant; zero unless running.
  double dirty_page_rate(double t) const;

  /// NIC payload traffic the workload generates; zero unless running.
  double network_demand(double t) const;

  /// Total memory allocated to the VM, in 4 KiB pages (MEM(v) of Eq. 1).
  std::uint64_t ram_pages() const;

  /// The writable working set in pages, clamped to the VM's memory.
  std::uint64_t working_set_pages() const;

 private:
  std::string id_;
  VmSpec spec_;
  VmState state_ = VmState::kStopped;
  workloads::WorkloadPtr workload_;
};

using VmPtr = std::shared_ptr<Vm>;

}  // namespace wavm3::cloud
