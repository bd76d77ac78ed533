// Consolidation advisor: the paper's motivating use-case (SI, SVIII).
//
// A small data centre has an underutilised host. Shutting it down saves
// idle power, but emptying it costs migration energy. This example
// shows how the answer flips with (1) the planning horizon and (2) the
// workload on the VMs being moved — including the paper's SVIII
// warning: a high-dirtying-ratio VM is expensive to consolidate onto a
// CPU-loaded host, which a workload-blind cost model misses.
//
// Both scenes run on a 3-host plan::Fleet: scene 1 plans a what-if
// wave with plan::MigrationPlanner and applies the cost-aware gate
// (vacate a donor only when its moves cost less than its idle draw over
// the horizon); scene 2 prices single moves with plan::move_scenario
// and the closed-form forecast.
//
// Build & run:  ./build/examples/consolidation_advisor
#include <cstdio>
#include <map>
#include <string>

#include "cloud/instances.hpp"
#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "exp/campaign.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "util/units.hpp"

using namespace wavm3;

namespace {

/// A fleet of three 32-vCPU / 32 GiB GbE hosts named a, b and c.
plan::Fleet three_hosts(const char* a, const char* b, const char* c) {
  plan::Fleet fleet;
  for (const char* name : {a, b, c}) {
    cloud::HostSpec h;
    h.name = name;
    h.vcpus = 32;
    h.ram_bytes = util::gib(32);
    h.nic_rate = util::gbit_per_s(1);
    fleet.add_host(h);
  }
  return fleet;
}

void place(plan::Fleet& fleet, int host, const cloud::VmPtr& vm) {
  fleet.add_vm(plan::fleet_vm(*vm, 0.0), host);
}

void report_wave(const char* label, plan::Fleet& fleet, const core::Wavm3Model& model,
                 const plan::PlannerConfig& config) {
  plan::MigrationPlanner planner(model, config);
  const plan::WavePlan wave =
      planner.plan_wave(fleet, plan::BeamSearchStrategy{}, 0.0, /*commit=*/false);
  std::printf("%s\n", label);
  if (wave.moves.empty()) {
    std::puts("  (no underutilised host worth vacating)");
    return;
  }
  std::map<int, double> cost;
  for (const plan::ScheduledMove& m : wave.moves) cost[m.source] += m.energy_j;
  const double saving = plan::donor_saving_j(config);
  for (const auto& [donor, joules] : cost) {
    std::printf("  vacate %-6s: cost %.1f kJ, saving %.1f kJ -> net %+.1f kJ %s\n",
                fleet.host(donor).spec.name.c_str(), joules / 1e3, saving / 1e3,
                (saving - joules) / 1e3, joules < saving ? "[DO IT]" : "[SKIP]");
    for (const plan::ScheduledMove& m : wave.moves) {
      if (m.source != donor) continue;
      std::printf("    %-4s -> %-6s  duration %.1f s, downtime %.2f s, move cost %.2f kJ\n",
                  fleet.vm(m.vm).id.c_str(), fleet.host(m.target).spec.name.c_str(),
                  m.end_s - m.start_s, m.downtime_s, m.energy_j / 1e3);
    }
  }
}

}  // namespace

int main() {
  std::puts("== WAVM3 consolidation advisor ==\n");

  // Fit the model from a reduced simulated campaign.
  const exp::CampaignResult campaign =
      exp::run_campaign(exp::testbed_m(), exp::fast_campaign_options(), 2015);
  core::Wavm3Model model;
  model.fit(campaign.dataset);

  plan::PlannerConfig config;
  config.host_power.idle_watts = campaign.measured_idle_power;
  config.host_power.watts_per_vcpu = 12.0;

  // --- Scene 1: a lightly loaded host, CPU-bound guests. ---
  {
    plan::Fleet fleet = three_hosts("hostA", "hostB", "hostC");
    place(fleet, 0, cloud::make_migrating_cpu_vm("web1"));  // 4 vCPUs, 4 GiB
    place(fleet, 0, cloud::make_migrating_cpu_vm("web2"));
    for (int i = 0; i < 3; ++i) {
      place(fleet, 1, cloud::make_load_cpu_vm("db" + std::to_string(i)));
    }

    config.policy.horizon_seconds = 3600.0;  // one hour
    report_wave("\nScene 1a: CPU-bound guests, 1 h horizon:", fleet, model, config);

    config.policy.horizon_seconds = 60.0;  // about to redeploy everything anyway
    report_wave("\nScene 1b: same, but only a 60 s horizon:", fleet, model, config);
  }

  // --- Scene 2: the SVIII warning — a memory-hot VM and busy targets. ---
  {
    plan::Fleet fleet = three_hosts("hostA", "busy", "idle");
    place(fleet, 0, cloud::make_migrating_mem_vm("cache", 0.95));  // 95% dirtying ratio
    for (int i = 0; i < 7; ++i) {
      place(fleet, 1, cloud::make_load_cpu_vm("b" + std::to_string(i)));
    }

    const core::MigrationPlanner forecaster(model);
    const int cache = fleet.host(0).vms.front();
    const auto to_busy = forecaster.forecast(plan::move_scenario(fleet, cache, 0, 1, config));
    const auto to_idle = forecaster.forecast(plan::move_scenario(fleet, cache, 0, 2, config));

    std::puts("\nScene 2: where to consolidate a 95%-dirtying-ratio cache VM?");
    std::printf("  -> busy host: %.1f kJ, transfer %.1f s, downtime %.1f s%s\n",
                to_busy.total_energy() / 1e3, to_busy.times.transfer_duration(),
                to_busy.downtime,
                to_busy.degenerated_to_nonlive ? " (degenerates to non-live)" : "");
    std::printf("  -> idle host: %.1f kJ, transfer %.1f s, downtime %.1f s%s\n",
                to_idle.total_energy() / 1e3, to_idle.times.transfer_duration(),
                to_idle.downtime,
                to_idle.degenerated_to_nonlive ? " (degenerates to non-live)" : "");
    std::printf("  WAVM3 exposes the %.1f kJ premium of the busy target; a data-volume-only\n"
                "  model (LIU) would price both moves identically.\n",
                (to_busy.total_energy() - to_idle.total_energy()) / 1e3);
  }
  return 0;
}
