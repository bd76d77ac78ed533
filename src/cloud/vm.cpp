#include "cloud/vm.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::cloud {

Vm::Vm(std::string id, VmSpec spec)
    : id_(std::move(id)),
      spec_(std::move(spec)),
      workload_(std::make_shared<workloads::IdleWorkload>()) {
  WAVM3_REQUIRE(!id_.empty(), "VM id must not be empty");
  WAVM3_REQUIRE(spec_.vcpus >= 1, "VM needs at least one vCPU");
  WAVM3_REQUIRE(spec_.ram_bytes > 0.0, "VM needs memory");
}

void Vm::set_workload(workloads::WorkloadPtr workload) {
  WAVM3_REQUIRE(workload != nullptr, "workload must not be null");
  workload_ = std::move(workload);
}

void Vm::start() {
  WAVM3_REQUIRE(state_ == VmState::kStopped, "can only start a stopped VM");
  state_ = VmState::kRunning;
}

void Vm::suspend() {
  WAVM3_REQUIRE(state_ == VmState::kRunning, "can only suspend a running VM");
  state_ = VmState::kSuspended;
}

void Vm::resume() {
  WAVM3_REQUIRE(state_ == VmState::kSuspended, "can only resume a suspended VM");
  state_ = VmState::kRunning;
}

void Vm::stop() {
  WAVM3_REQUIRE(state_ != VmState::kStopped, "VM already stopped");
  state_ = VmState::kStopped;
}

double Vm::cpu_demand(double t) const {
  if (state_ != VmState::kRunning) return 0.0;
  return std::min(workload_->cpu_demand(t), static_cast<double>(spec_.vcpus));
}

double Vm::dirty_page_rate(double t) const {
  if (state_ != VmState::kRunning) return 0.0;
  return workload_->dirty_page_rate(t);
}

double Vm::network_demand(double t) const {
  if (state_ != VmState::kRunning) return 0.0;
  return workload_->network_demand(t);
}

std::uint64_t Vm::ram_pages() const {
  return util::pages_for_bytes(spec_.ram_bytes);
}

std::uint64_t Vm::working_set_pages() const {
  return std::min(workload_->working_set_pages(), ram_pages());
}

}  // namespace wavm3::cloud
