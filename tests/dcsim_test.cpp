// Tests for the data-centre simulation layer: the closed consolidation
// loop and the headline claim that model-driven consolidation saves
// fleet energy.
#include <gtest/gtest.h>

#include "core/wavm3_model.hpp"
#include "dcsim/simulation.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::dcsim {
namespace {

const core::Wavm3Model& model() {
  static const core::Wavm3Model m = [] {
    core::Wavm3Model model;
    model.fit(wavm3::testing::fast_campaign_m().dataset);
    return model;
  }();
  return m;
}

TEST(FleetScenario, DeterministicAndWellFormed) {
  const DcSimConfig a = make_fleet_scenario(4, 10, 7);
  const DcSimConfig b = make_fleet_scenario(4, 10, 7);
  ASSERT_EQ(a.vms.size(), 10u);
  ASSERT_EQ(a.hosts.size(), 4u);
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    EXPECT_EQ(a.vms[i].spec.vcpus, b.vms[i].spec.vcpus);
    EXPECT_DOUBLE_EQ(a.vms[i].workload.dirty_pages_per_s_full,
                     b.vms[i].workload.dirty_pages_per_s_full);
    EXPECT_GE(a.vms[i].spec.vcpus, 1);
    EXPECT_LE(a.vms[i].spec.vcpus, 4);
  }
}

DcSimConfig small_config(Strategy strategy) {
  DcSimConfig cfg = make_fleet_scenario(3, 4, 11);
  cfg.duration = 2.0 * 3600.0;
  cfg.controller_interval = 300.0;
  cfg.power_sample_period = 5.0;
  cfg.strategy = strategy;
  cfg.policy.horizon_seconds = 3600.0;
  cfg.policy.underload_fraction = 0.45;
  // Quiet overnight: every VM near its trough so consolidation is easy.
  for (auto& vm : cfg.vms) {
    vm.workload.profile = workloads::LoadProfile::constant(0.1);
  }
  return cfg;
}

TEST(Simulation, BaselineKeepsAllHostsOn) {
  DataCenterSimulation sim(small_config(Strategy::kNoConsolidation), nullptr);
  const DcSimReport report = sim.run();
  EXPECT_EQ(report.migrations_executed, 0);
  EXPECT_EQ(report.power_off_events, 0);
  EXPECT_DOUBLE_EQ(report.final_powered_on_hosts, 3.0);
  // Three mostly idle m-class hosts for two hours: ~3 * 440 W * 7200 s.
  EXPECT_NEAR(report.total_energy_joules, 3.0 * 445.0 * 7200.0, 0.08 * 3 * 445.0 * 7200.0);
  EXPECT_EQ(report.host_energy.size(), 3u);
  EXPECT_EQ(report.invariant_violations, 0);
}

TEST(Simulation, CostAwareConsolidationSavesEnergy) {
  DataCenterSimulation baseline(small_config(Strategy::kNoConsolidation), nullptr);
  const DcSimReport r_base = baseline.run();

  DataCenterSimulation aware(small_config(Strategy::kCostAware), &model());
  const DcSimReport r_aware = aware.run();

  EXPECT_GT(r_aware.migrations_executed, 0);
  EXPECT_GT(r_aware.power_off_events, 0);
  EXPECT_LT(r_aware.final_powered_on_hosts, 3.0);
  // Powering hosts off must beat the always-on baseline.
  EXPECT_LT(r_aware.total_energy_joules, 0.9 * r_base.total_energy_joules);
  EXPECT_EQ(r_base.invariant_violations, 0);
  EXPECT_EQ(r_aware.invariant_violations, 0);
}

TEST(Simulation, CostAwareRejectsUnprofitablePlans) {
  DcSimConfig cfg = small_config(Strategy::kCostAware);
  // A ludicrously short horizon: the saved idle time cannot repay even
  // one migration, so every plan must be rejected.
  cfg.policy.horizon_seconds = 1.0;
  // Make moves expensive: memory-hot VMs.
  for (auto& vm : cfg.vms) {
    vm.workload.dirty_pages_per_s_full = 300000.0;
    vm.workload.working_set_pages =
        static_cast<std::uint64_t>(0.9 * vm.spec.ram_bytes / util::kPageSize);
    vm.workload.profile = workloads::LoadProfile::constant(0.9);
  }
  DataCenterSimulation sim(cfg, &model());
  const DcSimReport report = sim.run();
  EXPECT_EQ(report.power_off_events, 0);
  EXPECT_GT(report.plans_rejected_by_cost, 0);
  EXPECT_EQ(report.invariant_violations, 0);
}

TEST(Simulation, CostBlindExecutesWhatAwareRejects) {
  DcSimConfig cfg = small_config(Strategy::kCostBlind);
  cfg.policy.horizon_seconds = 1.0;  // worthless savings, blind does it anyway
  DataCenterSimulation blind(cfg, &model());
  const DcSimReport report = blind.run();
  EXPECT_GT(report.migrations_executed, 0);
  EXPECT_GT(report.power_off_events, 0);
  EXPECT_EQ(report.invariant_violations, 0);
}

TEST(Simulation, LongHorizonEveryDonorPays) {
  // A day off repays any move: the cost gate drops nothing, so the
  // cost-aware run is the cost-blind run.
  DcSimConfig cfg = small_config(Strategy::kCostBlind);
  cfg.policy.horizon_seconds = 24.0 * 3600.0;
  const DcSimReport blind = DataCenterSimulation(cfg, &model()).run();
  cfg.strategy = Strategy::kCostAware;
  const DcSimReport aware = DataCenterSimulation(cfg, &model()).run();

  ASSERT_GT(blind.migrations_executed, 0);
  EXPECT_EQ(aware.plans_rejected_by_cost, 0);
  EXPECT_EQ(aware.duration, blind.duration);
  EXPECT_EQ(aware.total_energy_joules, blind.total_energy_joules);
  EXPECT_EQ(aware.host_energy, blind.host_energy);
  EXPECT_EQ(aware.migrations_executed, blind.migrations_executed);
  EXPECT_EQ(aware.migrations_failed, blind.migrations_failed);
  EXPECT_EQ(aware.migrations_retried, blind.migrations_retried);
  EXPECT_EQ(aware.migration_retries_exhausted, blind.migration_retries_exhausted);
  EXPECT_EQ(aware.migration_failures_by_cause, blind.migration_failures_by_cause);
  EXPECT_EQ(aware.wasted_migration_bytes, blind.wasted_migration_bytes);
  EXPECT_EQ(aware.plans_rejected_by_cost, blind.plans_rejected_by_cost);
  EXPECT_EQ(aware.power_off_events, blind.power_off_events);
  EXPECT_EQ(aware.power_on_events, blind.power_on_events);
  EXPECT_EQ(aware.total_migration_downtime, blind.total_migration_downtime);
  EXPECT_EQ(aware.mean_migration_performance, blind.mean_migration_performance);
  EXPECT_EQ(aware.final_powered_on_hosts, blind.final_powered_on_hosts);
  EXPECT_EQ(aware.final_host_load, blind.final_host_load);
  EXPECT_EQ(blind.invariant_violations, 0);
  EXPECT_EQ(aware.invariant_violations, 0);
}

TEST(Simulation, SingleUseGuard) {
  DataCenterSimulation sim(small_config(Strategy::kNoConsolidation), nullptr);
  EXPECT_EQ(sim.run().invariant_violations, 0);
  EXPECT_THROW(sim.run(), util::ContractError);
}

TEST(Simulation, RequiresPlannerWhenConsolidating) {
  EXPECT_THROW(DataCenterSimulation(small_config(Strategy::kCostAware), nullptr),
               util::ContractError);
}

TEST(Simulation, OverloadedHostShedsLoad) {
  DcSimConfig cfg = make_fleet_scenario(3, 1, 5);
  cfg.duration = 3600.0;
  cfg.controller_interval = 120.0;
  cfg.power_sample_period = 5.0;
  cfg.strategy = Strategy::kCostAware;
  cfg.policy.underload_fraction = 0.05;  // effectively no consolidation
  cfg.policy.overload_fraction = 0.60;
  // Two hot 4-vCPU VMs + helpers on one 32-vCPU host won't trip 60%;
  // build a genuinely overloaded host instead: eight 4-vCPU VMs at 90%.
  cfg.vms.clear();
  for (int i = 0; i < 8; ++i) {
    VmPlacement p;
    p.vm_id = "hot" + std::to_string(i);
    p.host = "host00";
    p.spec.instance_type = "hot";
    p.spec.vcpus = 4;
    p.spec.ram_bytes = util::gib(2);
    p.workload.profile = workloads::LoadProfile::constant(0.9);
    p.workload.vcpus = 4;
    cfg.vms.push_back(std::move(p));
  }
  DataCenterSimulation sim(cfg, &model());
  const DcSimReport report = sim.run();
  EXPECT_GT(report.migrations_executed, 0);  // relief migrations happened
  // Relief sheds until host00 is back at or below the overload line
  // (28.8 vCPUs of demand; three 3.6-vCPU VMs leave 18 <= 19.2).
  EXPECT_LE(report.final_host_load.at("host00"),
            cfg.policy.overload_fraction * cfg.hosts[0].vcpus);
  EXPECT_EQ(report.power_on_events, 0);  // two running hosts had room
  EXPECT_EQ(report.invariant_violations, 0);
}

TEST(Simulation, OverloadWakesAStandbyHost) {
  // Eight 4-vCPU VMs on two 32-vCPU hosts idle at 10% for an hour, so
  // consolidation packs them onto one host and powers the other off.
  // Then they run flat out: 32 vCPUs of demand on one host is over the
  // 0.9 line, and the only receiver is the standby host.
  DcSimConfig cfg = make_fleet_scenario(2, 1, 5);
  cfg.duration = 2.0 * 3600.0;
  cfg.power_sample_period = 5.0;
  cfg.strategy = Strategy::kCostBlind;
  cfg.policy.underload_fraction = 0.45;
  cfg.vms.clear();
  for (int i = 0; i < 8; ++i) {
    VmPlacement p;
    p.vm_id = "vm" + std::to_string(i);
    p.host = i < 4 ? "host00" : "host01";
    p.spec.instance_type = "stepped";
    p.spec.vcpus = 4;
    p.spec.ram_bytes = util::gib(2);
    p.workload.profile = workloads::LoadProfile::steps({{0.0, 0.1}, {3600.0, 1.0}});
    p.workload.vcpus = 4;
    cfg.vms.push_back(std::move(p));
  }
  const DcSimReport report = DataCenterSimulation(cfg, &model()).run();

  EXPECT_EQ(report.power_off_events, 1);
  EXPECT_EQ(report.power_on_events, 1);
  EXPECT_DOUBLE_EQ(report.final_powered_on_hosts, 2.0);
  for (const auto& [host, load] : report.final_host_load) {
    EXPECT_LE(load, cfg.policy.overload_fraction * 32.0) << host;
  }
  EXPECT_EQ(report.invariant_violations, 0);
}

}  // namespace
}  // namespace wavm3::dcsim
