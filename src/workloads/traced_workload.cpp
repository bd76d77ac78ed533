#include "workloads/traced_workload.hpp"

#include "util/error.hpp"

namespace wavm3::workloads {

TracedWorkload::TracedWorkload(TracedWorkloadParams params) : params_(std::move(params)) {
  WAVM3_REQUIRE(params_.vcpus >= 1, "need at least one vCPU");
  WAVM3_REQUIRE(params_.dirty_pages_per_s_full >= 0.0, "dirty rate must be nonnegative");
  WAVM3_REQUIRE(params_.memory_used_fraction >= 0.0 && params_.memory_used_fraction <= 1.0,
                "memory fraction must be in [0,1]");
}

double TracedWorkload::cpu_demand(double t) const {
  return params_.profile.fraction_at(t) * static_cast<double>(params_.vcpus);
}

double TracedWorkload::dirty_page_rate(double t) const {
  return params_.profile.fraction_at(t) * params_.dirty_pages_per_s_full;
}

}  // namespace wavm3::workloads
