// Tests for the data-centre simulation layer: load profiles, traced
// workloads, the closed consolidation loop, and the headline claim that
// model-driven consolidation saves fleet energy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/wavm3_model.hpp"
#include "dcsim/load_profile.hpp"
#include "dcsim/simulation.hpp"
#include "dcsim/traced_workload.hpp"
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

TEST(LoadProfile, ConstantHoldsForever) {
  const LoadProfile p = LoadProfile::constant(0.4);
  EXPECT_DOUBLE_EQ(p.fraction_at(0.0), 0.4);
  EXPECT_DOUBLE_EQ(p.fraction_at(1e6), 0.4);
  EXPECT_DOUBLE_EQ(p.mean_fraction(), 0.4);
  EXPECT_FALSE(p.cyclic());
}

TEST(LoadProfile, StepsAndCyclicWrap) {
  const LoadProfile p = LoadProfile::steps({{0.0, 0.1}, {10.0, 0.8}}, 20.0);
  EXPECT_DOUBLE_EQ(p.fraction_at(5.0), 0.1);
  EXPECT_DOUBLE_EQ(p.fraction_at(15.0), 0.8);
  EXPECT_DOUBLE_EQ(p.fraction_at(25.0), 0.1);  // wrapped
  EXPECT_DOUBLE_EQ(p.fraction_at(39.9), 0.8);
  EXPECT_NEAR(p.mean_fraction(), 0.45, 1e-12);
  EXPECT_TRUE(p.cyclic());
}

TEST(LoadProfile, NonCyclicHoldsLastValue) {
  const LoadProfile p = LoadProfile::steps({{0.0, 0.2}, {10.0, 0.9}});
  EXPECT_DOUBLE_EQ(p.fraction_at(1e9), 0.9);
}

TEST(LoadProfile, DiurnalOscillatesBetweenBounds) {
  const LoadProfile p = LoadProfile::diurnal(0.1, 0.9, 86400.0);
  double lo = 1.0;
  double hi = 0.0;
  for (double t = 0.0; t < 86400.0; t += 600.0) {
    const double f = p.fraction_at(t);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    EXPECT_GE(f, 0.1 - 1e-9);
    EXPECT_LE(f, 0.9 + 1e-9);
  }
  EXPECT_LT(lo, 0.15);
  EXPECT_GT(hi, 0.85);
  // One full period later the pattern repeats.
  EXPECT_DOUBLE_EQ(p.fraction_at(3600.0), p.fraction_at(3600.0 + 86400.0));
}

TEST(LoadProfile, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/wavm3_profile.csv";
  {
    std::ofstream out(path);
    out << "time_s,fraction\n0,0.2\n600,0.8\n1200,0.4\n";
  }
  const LoadProfile p = LoadProfile::from_csv(path, 1800.0);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(p.fraction_at(100.0), 0.2);
  EXPECT_DOUBLE_EQ(p.fraction_at(700.0), 0.8);
  EXPECT_DOUBLE_EQ(p.fraction_at(1300.0), 0.4);
  EXPECT_DOUBLE_EQ(p.fraction_at(1900.0), 0.2);  // wrapped
  EXPECT_THROW(LoadProfile::from_csv("/nonexistent.csv"), util::ContractError);
}

TEST(LoadProfile, Validation) {
  EXPECT_THROW(LoadProfile::constant(1.5), util::ContractError);
  EXPECT_THROW(LoadProfile::steps({{1.0, 0.5}}), util::ContractError);   // must start at 0
  EXPECT_THROW(LoadProfile::steps({{0.0, 0.5}, {0.0, 0.6}}), util::ContractError);
  EXPECT_THROW(LoadProfile::steps({{0.0, 0.5}, {10.0, 0.6}}, 5.0), util::ContractError);
}

TEST(TracedWorkloadTest, FollowsProfile) {
  TracedWorkloadParams params;
  params.profile = LoadProfile::steps({{0.0, 0.25}, {100.0, 1.0}}, 200.0);
  params.vcpus = 4;
  params.dirty_pages_per_s_full = 1000.0;
  const TracedWorkload w(params);
  EXPECT_DOUBLE_EQ(w.cpu_demand(50.0), 1.0);
  EXPECT_DOUBLE_EQ(w.cpu_demand(150.0), 4.0);
  EXPECT_DOUBLE_EQ(w.dirty_page_rate(50.0), 250.0);
  EXPECT_DOUBLE_EQ(w.dirty_page_rate(150.0), 1000.0);
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
    vm.workload.profile = LoadProfile::constant(0.1);
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
    vm.workload.profile = LoadProfile::constant(0.9);
  }
  DataCenterSimulation sim(cfg, &model());
  const DcSimReport report = sim.run();
  EXPECT_EQ(report.power_off_events, 0);
  EXPECT_GT(report.plans_rejected_by_cost, 0);
}

TEST(Simulation, CostBlindExecutesWhatAwareRejects) {
  DcSimConfig cfg = small_config(Strategy::kCostBlind);
  cfg.policy.horizon_seconds = 1.0;  // worthless savings, blind does it anyway
  DataCenterSimulation blind(cfg, &model());
  const DcSimReport report = blind.run();
  EXPECT_GT(report.migrations_executed, 0);
  EXPECT_GT(report.power_off_events, 0);
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
}

TEST(Simulation, SingleUseGuard) {
  DataCenterSimulation sim(small_config(Strategy::kNoConsolidation), nullptr);
  sim.run();
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
    p.workload.profile = LoadProfile::constant(0.9);
    p.workload.vcpus = 4;
    cfg.vms.push_back(std::move(p));
  }
  DataCenterSimulation sim(cfg, &model());
  const DcSimReport report = sim.run();
  EXPECT_GT(report.migrations_executed, 0);  // relief migrations happened
}

}  // namespace
}  // namespace wavm3::dcsim
