#include "chaos/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <utility>

#include "util/strings.hpp"

namespace wavm3::chaos {

std::vector<InvariantViolation> FleetInvariantChecker::check(
    const plan::Fleet& fleet, std::span<const TrackedMove> ledger,
    std::span<const ExecutedInterval> wave_intervals, const LedgerSnapshot& totals) const {
  std::vector<InvariantViolation> violations;
  const auto fail = [&](const char* check, std::string detail) {
    violations.push_back({check, std::move(detail)});
  };

  // --- capacity + placement: recompute every host from its VM list.
  std::vector<int> placements(fleet.vm_count(), 0);
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const plan::FleetHost& host = fleet.host(static_cast<int>(h));
    double ram = 0.0;
    double cpu = 0.0;
    for (const int v : host.vms) {
      if (v < 0 || v >= static_cast<int>(fleet.vm_count())) {
        fail("placement", util::format("host %s references VM index %d out of range",
                                       host.spec.name.c_str(), v));
        continue;
      }
      const plan::FleetVm& vm = fleet.vm(v);
      if (vm.host != static_cast<int>(h)) {
        fail("placement", util::format("VM %s listed on host %s but points at host %d",
                                       vm.id.c_str(), host.spec.name.c_str(), vm.host));
      }
      if (++placements[static_cast<std::size_t>(v)] > 1) {
        fail("placement", util::format("VM %s placed more than once", vm.id.c_str()));
      }
      ram += vm.ram_bytes;
      cpu += vm.cpu_now;
    }
    if (ram > host.spec.ram_bytes * (1.0 + kLedgerRelTol) + kAccountingTol) {
      fail("capacity", util::format("host %s commits %.0f of %.0f RAM bytes",
                                    host.spec.name.c_str(), ram, host.spec.ram_bytes));
    }
    if (std::abs(ram - host.ram_committed) > kAccountingTol) {
      fail("capacity", util::format("host %s ram_committed %.0f != recomputed %.0f",
                                    host.spec.name.c_str(), host.ram_committed, ram));
    }
    if (std::abs(cpu - host.cpu_load) > kAccountingTol) {
      fail("capacity", util::format("host %s cpu_load %.6f != recomputed %.6f",
                                    host.spec.name.c_str(), host.cpu_load, cpu));
    }
    if (!host.powered_on && !host.vms.empty()) {
      fail("placement", util::format("powered-off host %s still holds %zu VMs",
                                     host.spec.name.c_str(), host.vms.size()));
    }
  }
  for (std::size_t v = 0; v < placements.size(); ++v) {
    if (placements[v] != 1) {
      fail("placement", util::format("VM %s appears on %d host lists",
                                     fleet.vm(static_cast<int>(v)).id.c_str(), placements[v]));
    }
  }

  // --- ownership: one pending entry per VM; pending entries must
  // still match reality; and within any single wave a VM must not be
  // both shed (lost to the plan) and placed on a target — the "not
  // both lost and placed" contradiction. Across waves a shed VM may
  // legitimately re-enter a later plan and land.
  std::unordered_map<int, int> pending_per_vm;
  std::set<std::pair<int, int>> shed_at, placed_at;  ///< (VM, resolved wave)
  for (const TrackedMove& mv : ledger) {
    if (mv.resolution == MoveResolution::kPending) {
      if (++pending_per_vm[mv.move.vm] > 1) {
        fail("ownership", util::format("VM %s owned by %d pending moves",
                                       fleet.vm(mv.move.vm).id.c_str(),
                                       pending_per_vm[mv.move.vm]));
      }
      if (fleet.vm(mv.move.vm).host != mv.move.source) {
        fail("ownership",
             util::format("pending move #%d expects VM %s on host index %d, found %d", mv.id,
                          fleet.vm(mv.move.vm).id.c_str(), mv.move.source,
                          fleet.vm(mv.move.vm).host));
      }
    } else if (mv.resolution == MoveResolution::kShed) {
      shed_at.emplace(mv.move.vm, mv.resolved_wave);
    } else if (is_placed(mv.resolution)) {
      placed_at.emplace(mv.move.vm, mv.resolved_wave);
    }
  }
  for (const auto& [vm, wave] : shed_at) {
    if (placed_at.count({vm, wave}) != 0) {
      fail("ownership", util::format("VM %s both shed and placed in wave %d",
                                     fleet.vm(vm).id.c_str(), wave));
    }
  }

  // --- concurrency: sweep each host's executed intervals against its
  // migration cap.
  std::unordered_map<int, std::vector<std::pair<double, int>>> events;
  for (const ExecutedInterval& iv : wave_intervals) {
    if (iv.end_s <= iv.start_s) continue;
    events[iv.host].emplace_back(iv.start_s, +1);
    events[iv.host].emplace_back(iv.end_s, -1);
  }
  for (auto& [host, evs] : events) {
    // Ends sort before starts at equal times: back-to-back slots are
    // legal under a cap of one.
    std::sort(evs.begin(), evs.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first < b.first : a.second < b.second;
    });
    const int cap = std::max(1, fleet.host(host).spec.max_concurrent_migrations);
    int depth = 0;
    for (const auto& [t, delta] : evs) {
      depth += delta;
      if (depth > cap) {
        fail("concurrency",
             util::format("host %s ran %d concurrent migrations at t=%.3f (cap %d)",
                          fleet.host(host).spec.name.c_str(), depth, t, cap));
        break;
      }
    }
  }

  // --- energy ledger conservation.
  const double residual =
      totals.planned_j - totals.committed_j - totals.refunded_j - totals.outstanding_j;
  if (std::abs(residual) > kLedgerRelTol * std::max(1.0, std::abs(totals.planned_j))) {
    fail("energy-ledger",
         util::format("planned %.6f J != committed %.6f + refunded %.6f + outstanding %.6f "
                      "(residual %.3e)",
                      totals.planned_j, totals.committed_j, totals.refunded_j,
                      totals.outstanding_j, residual));
  }
  if (totals.wasted_j < -kAccountingTol) {
    fail("energy-ledger", util::format("negative wasted energy %.6f J", totals.wasted_j));
  }

  return violations;
}

}  // namespace wavm3::chaos
