// Workload abstraction: what a VM is doing, expressed as the resource
// signature the migration process and the power model care about
// (SIII-C of the paper): CPU demand, memory footprint, and page-dirtying
// behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace wavm3::workloads {

/// Broad workload classes from Table I.
enum class WorkloadClass { kIdle, kCpuIntensive, kMemoryIntensive, kMixed };

/// A running program inside a VM, seen through its resource usage.
///
/// All rates are *demands*: the hypervisor may grant less CPU under
/// multiplexing, and the dirtying rate scales with the granted CPU
/// fraction (a throttled dirtier writes more slowly).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Human-readable name, e.g. "matrixmult".
  virtual std::string name() const = 0;

  virtual WorkloadClass workload_class() const = 0;

  /// vCPUs demanded at time t (e.g. 4.0 == four fully busy vCPUs).
  virtual double cpu_demand(double t) const = 0;

  /// Pages dirtied per second at full CPU grant, at time t.
  virtual double dirty_page_rate(double t) const = 0;

  /// Writable working set in pages: the set of pages the workload keeps
  /// re-dirtying. Bounded by the VM's memory; used by the pre-copy
  /// fresh-dirty-page law.
  virtual std::uint64_t working_set_pages() const = 0;

  /// Fraction of the VM's allocated memory actually in use, [0, 1].
  virtual double memory_used_fraction() const = 0;

  /// Network traffic the workload generates (payload bytes/s through
  /// the host NIC, both directions combined). Most workloads are not
  /// network-bound; the default is none. Network-intensive guests
  /// (SVIII future work) override this and contend with migration
  /// traffic for the link.
  virtual double network_demand(double t) const {
    (void)t;
    return 0.0;
  }
};

using WorkloadPtr = std::shared_ptr<Workload>;

/// The no-op workload of an idle VM.
class IdleWorkload final : public Workload {
 public:
  std::string name() const override { return "idle"; }
  WorkloadClass workload_class() const override { return WorkloadClass::kIdle; }
  double cpu_demand(double) const override { return 0.0; }
  double dirty_page_rate(double) const override { return 0.0; }
  std::uint64_t working_set_pages() const override { return 0; }
  double memory_used_fraction() const override { return 0.05; }
};

}  // namespace wavm3::workloads
