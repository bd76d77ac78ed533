// Property suite: the closed-form planner must agree with the
// event-driven engine across the whole scenario space — dirtying
// fractions, host loads, and all three migration flavours. This is the
// guarantee that lets the consolidation planner trust forecasts it
// never simulates.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cloud/datacenter.hpp"
#include "cloud/instances.hpp"
#include "core/planner.hpp"
#include "migration/engine.hpp"
#include "net/bandwidth_model.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace wavm3 {
namespace {

using migration::MigrationType;

struct EngineRun {
  migration::MigrationRecord record;
  double source_load_before = 0.0;  ///< CPU(h) minus the migrating VM, at ms
  double target_load_before = 0.0;
};

EngineRun run_engine(int source_load_vms, int target_load_vms, double mem_fraction,
                     MigrationType type) {
  sim::Simulator sim;
  cloud::DataCenter dc;
  cloud::HostSpec h;
  h.vcpus = 32;
  h.ram_bytes = util::gib(32);
  h.name = "src";
  cloud::Host& source = dc.add_host(h);
  h.name = "tgt";
  cloud::Host& target = dc.add_host(h);
  net::LinkSpec link;
  link.wire_rate = util::gbit_per_s(1);
  dc.network().connect("src", "tgt", link);
  for (int i = 0; i < source_load_vms; ++i)
    source.add_vm(cloud::make_load_cpu_vm("sl" + std::to_string(i)));
  for (int i = 0; i < target_load_vms; ++i)
    target.add_vm(cloud::make_load_cpu_vm("tl" + std::to_string(i)));
  source.add_vm(cloud::make_migrating_mem_vm("mv", mem_fraction));

  EngineRun out;
  // Demand-level loads (uncapped), as xentop would report them: under
  // multiplexing the capped utilisation reads 100% and would hide the
  // missing headroom from the planner.
  out.source_load_before =
      source.vmm_demand(0.0) + source.total_vm_demand(0.0) - source.vm("mv")->cpu_demand(0.0);
  out.target_load_before = target.vmm_demand(0.0) + target.total_vm_demand(0.0);

  migration::MigrationEngine engine(sim, dc, net::BandwidthModel{});
  engine.migrate("mv", "src", "tgt", type);
  sim.run_to_completion();
  out.record = engine.completed().back();
  return out;
}

core::MigrationScenario scenario_from(const EngineRun& run, double mem_fraction,
                                      MigrationType type) {
  core::MigrationScenario sc;
  sc.type = type;
  sc.vm_mem_bytes = util::gib(4);
  sc.vm_cpu_vcpus = 1.0;  // migrating-mem demands one vCPU
  sc.vm_dirty_pages_per_s = 300000.0;
  sc.vm_working_set_pages = mem_fraction * util::gib(4) / util::kPageSize;
  sc.source_cpu_load = run.source_load_before;
  sc.target_cpu_load = run.target_load_before;
  sc.source_cpu_capacity = 32.0;
  sc.target_cpu_capacity = 32.0;
  sc.link_payload_rate = 125e6 * 0.94;
  return sc;
}

using Params = std::tuple<int, int, double, MigrationType>;

class PlannerEngineSweep : public ::testing::TestWithParam<Params> {};

TEST_P(PlannerEngineSweep, ForecastMatchesSimulation) {
  const auto [src_vms, tgt_vms, fraction, type] = GetParam();
  const EngineRun run = run_engine(src_vms, tgt_vms, fraction, type);
  const core::MigrationForecast fc =
      core::forecast_timings(scenario_from(run, fraction, type));

  // Transfer duration and traffic within 15%; the engine adds dom0
  // helper effects the closed form approximates.
  EXPECT_NEAR(fc.times.transfer_duration(), run.record.times.transfer_duration(),
              0.15 * run.record.times.transfer_duration() + 1.0)
      << "src=" << src_vms << " tgt=" << tgt_vms << " f=" << fraction;
  EXPECT_NEAR(fc.total_bytes, run.record.total_bytes, 0.15 * run.record.total_bytes + 1e6);
  EXPECT_EQ(fc.degenerated_to_nonlive, run.record.degenerated_to_nonlive);
  // Downtime within 30% + half a second (resume discretisation).
  EXPECT_NEAR(fc.downtime, run.record.downtime, 0.30 * run.record.downtime + 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Flavours, PlannerEngineSweep,
    ::testing::Values(
        // Live pre-copy across the DR sweep, idle hosts.
        Params{0, 0, 0.05, MigrationType::kLive}, Params{0, 0, 0.35, MigrationType::kLive},
        Params{0, 0, 0.75, MigrationType::kLive}, Params{0, 0, 0.95, MigrationType::kLive},
        // Loaded source / target.
        Params{5, 0, 0.55, MigrationType::kLive}, Params{8, 0, 0.95, MigrationType::kLive},
        Params{0, 8, 0.55, MigrationType::kLive},
        // Non-live.
        Params{0, 0, 0.95, MigrationType::kNonLive},
        Params{8, 0, 0.95, MigrationType::kNonLive},
        // Post-copy.
        Params{0, 0, 0.95, MigrationType::kPostCopy},
        Params{5, 5, 0.55, MigrationType::kPostCopy}));

}  // namespace
}  // namespace wavm3
