// Adapts a LoadProfile into the Workload interface so simulated VMs can
// follow recorded/synthetic utilisation traces over a long horizon.
#pragma once

#include "workloads/load_profile.hpp"
#include "workloads/workload.hpp"

namespace wavm3::workloads {

/// Parameters of a trace-driven workload.
struct TracedWorkloadParams {
  LoadProfile profile = LoadProfile::constant(0.5);
  int vcpus = 4;                        ///< vCPUs at 100% profile fraction
  double dirty_pages_per_s_full = 2000.0;  ///< dirtying at full load
  std::uint64_t working_set_pages = 65536;  ///< 256 MiB
  double memory_used_fraction = 0.4;
  WorkloadClass clazz = WorkloadClass::kMixed;
};

/// Workload whose CPU demand and dirtying follow a LoadProfile.
class TracedWorkload final : public Workload {
 public:
  explicit TracedWorkload(TracedWorkloadParams params);

  std::string name() const override { return "traced"; }
  WorkloadClass workload_class() const override { return params_.clazz; }
  double cpu_demand(double t) const override;
  double dirty_page_rate(double t) const override;
  std::uint64_t working_set_pages() const override { return params_.working_set_pages; }
  double memory_used_fraction() const override { return params_.memory_used_fraction; }

  const TracedWorkloadParams& params() const { return params_; }

 private:
  TracedWorkloadParams params_;
};

}  // namespace wavm3::workloads
