// Cross-cutting property suites: invariants that must hold over
// parameter sweeps, not just single examples — hypervisor arbitration,
// host power monotonicity, meter unbiasedness, energy-integration
// linearity, and dcsim SLA accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cloud/host.hpp"
#include "cloud/vm.hpp"
#include "dcsim/simulation.hpp"
#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "net/bandwidth_model.hpp"
#include "power/host_power_model.hpp"
#include "power/power_meter.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads/workload.hpp"

namespace wavm3 {
namespace {

// ---------- Hypervisor arbitration ----------

/// A guest demanding a fixed number of vCPUs.
class ConstantCpu final : public workloads::Workload {
 public:
  explicit ConstantCpu(double vcpus) : vcpus_(vcpus) {}
  std::string name() const override { return "constant-cpu"; }
  workloads::WorkloadClass workload_class() const override {
    return workloads::WorkloadClass::kCpuIntensive;
  }
  double cpu_demand(double) const override { return vcpus_; }
  double dirty_page_rate(double) const override { return 0.0; }
  std::uint64_t working_set_pages() const override { return 0; }
  double memory_used_fraction() const override { return 0.05; }

 private:
  double vcpus_;
};

class ArbitrationSweep : public ::testing::TestWithParam<double> {};

TEST_P(ArbitrationSweep, GrantsNeverExceedCapacityAndStayProportional) {
  // Host::cpu_granted_to multiplexes the guests of a contended host
  // with proportional shares of what the VMM leaves.
  const double scale = GetParam();
  util::RngStream rng(static_cast<std::uint64_t>(scale * 100));
  for (int trial = 0; trial < 50; ++trial) {
    cloud::HostSpec spec;
    spec.name = "h";
    spec.vcpus = 32;
    spec.ram_bytes = util::gib(64);
    cloud::Host host(spec);
    std::vector<double> demands;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n; ++i) {
      demands.push_back(rng.uniform(0.0, 4.0) * scale);
      cloud::VmSpec vm_spec;
      vm_spec.vcpus = 32;
      vm_spec.ram_bytes = util::gib(1);
      auto vm = std::make_shared<cloud::Vm>("v" + std::to_string(i), vm_spec);
      vm->set_workload(std::make_shared<ConstantCpu>(demands.back()));
      vm->start();
      host.add_vm(vm);
    }
    const double capacity = host.cpu_capacity();
    const double vmm = host.vmm_demand(0.0);

    double total_demand = vmm;  // the VMM competes for the same cores
    double total_grant = 0.0;
    std::vector<double> grants;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      grants.push_back(host.cpu_granted_to("v" + std::to_string(i), 0.0));
      EXPECT_GE(grants[i], 0.0);
      EXPECT_LE(grants[i], demands[i] + 1e-12);
      total_demand += demands[i];
      total_grant += grants[i];
    }
    EXPECT_LE(total_grant, capacity + 1e-9);
    if (total_demand <= capacity) {
      EXPECT_NEAR(total_grant, total_demand - vmm, 1e-9);
    } else {
      // The guests and the VMM's proportional share fill the host.
      EXPECT_NEAR(total_grant + vmm * capacity / total_demand, capacity, 1e-9);
      // Proportionality: grant_i / demand_i constant.
      for (std::size_t i = 0; i < demands.size(); ++i) {
        if (demands[i] > 1e-12) {
          EXPECT_NEAR(grants[i] / demands[i], capacity / total_demand, 1e-9);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DemandScales, ArbitrationSweep,
                         ::testing::Values(0.2, 1.0, 2.0, 5.0));

// ---------- Host power monotonicity ----------

class PowerMonotonicitySweep : public ::testing::TestWithParam<double> {};

TEST_P(PowerMonotonicitySweep, EveryActivityTermIsMonotone) {
  power::HostPowerParams params;
  params.idle_watts = 200.0 + GetParam() * 100.0;
  params.watts_per_vcpu = 5.0 + GetParam() * 3.0;
  params.fan_watts_full = GetParam() * 30.0;
  const power::HostPowerModel model(params);

  power::HostActivity a;
  a.transfer_active = true;
  double prev = 0.0;
  for (double cpu = 0.0; cpu <= 40.0; cpu += 2.0) {
    a.cpu_used_vcpus = cpu;
    const double p = model.true_power(a);
    EXPECT_GE(p, prev);
    prev = p;
  }
  a.cpu_used_vcpus = 16.0;
  prev = 0.0;
  for (double nic = 0.0; nic <= 130e6; nic += 10e6) {
    a.nic_bytes_per_s = nic;
    const double p = model.true_power(a);
    EXPECT_GE(p, prev);
    prev = p;
  }
  prev = 0.0;
  for (double dr = 0.0; dr <= 1.0; dr += 0.1) {
    a.tracking_dirty_ratio = dr;
    const double p = model.true_power(a);
    EXPECT_GE(p, prev);
    prev = p;
  }
  prev = 0.0;
  for (double mem = 0.0; mem <= 2e9; mem += 2e8) {
    a.mem_dirty_bytes_per_s = mem;
    const double p = model.true_power(a);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(MachineClasses, PowerMonotonicitySweep,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0));

// ---------- Meter unbiasedness across accuracy levels ----------

class MeterAccuracySweep : public ::testing::TestWithParam<double> {};

TEST_P(MeterAccuracySweep, ReadingsUnbiasedAndBounded) {
  const double accuracy = GetParam();
  sim::Simulator sim;
  power::MeterSpec spec;
  spec.accuracy_fraction = accuracy;
  power::PowerMeter meter("sweep", spec, [](double) { return 500.0; },
                          util::RngStream(static_cast<std::uint64_t>(accuracy * 1e5) + 3));
  meter.start(sim, 0.0);
  sim.run_until(400.0);
  meter.stop();
  sim.run_to_completion();

  double sum = 0.0;
  double max_err = 0.0;
  for (const auto& s : meter.trace().samples()) {
    sum += s.watts;
    max_err = std::max(max_err, std::abs(s.watts - 500.0));
  }
  const double mean = sum / static_cast<double>(meter.trace().size());
  EXPECT_NEAR(mean, 500.0, 0.5 + accuracy * 500.0 / 10.0);
  // 3-sigma bound with a generous excursion margin.
  EXPECT_LE(max_err, 500.0 * accuracy * 1.8 + 0.2);
}

INSTANTIATE_TEST_SUITE_P(AccuracyLevels, MeterAccuracySweep,
                         ::testing::Values(0.0, 0.003, 0.01, 0.03));

// ---------- Energy integration linearity ----------

TEST(PowerTraceProperties, EnergyIsLinearInPower) {
  util::RngStream rng(17);
  power::PowerTrace a;
  power::PowerTrace b;
  for (int i = 0; i <= 300; ++i) {
    const double t = i * 0.5;
    const double p = rng.uniform(400, 900);
    a.add(t, p);
    b.add(t, 2.5 * p);
  }
  EXPECT_NEAR(b.total_energy(), 2.5 * a.total_energy(), 1e-6);
  EXPECT_NEAR(b.energy_between(10.0, 60.0), 2.5 * a.energy_between(10.0, 60.0), 1e-6);
}

TEST(PowerTraceProperties, EnergyAdditiveOverArbitraryCuts) {
  util::RngStream rng(23);
  power::PowerTrace t;
  for (int i = 0; i <= 400; ++i) t.add(i * 0.5, rng.uniform(400, 900));
  for (int trial = 0; trial < 20; ++trial) {
    const double a = rng.uniform(0.0, 200.0);
    const double c = rng.uniform(a, 200.0);
    const double b = rng.uniform(a, c);
    EXPECT_NEAR(t.energy_between(a, b) + t.energy_between(b, c), t.energy_between(a, c), 1e-6);
  }
}

// ---------- Bandwidth model ----------

class BandwidthParamSweep : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthParamSweep, EfficiencyBoundedAndMonotone) {
  net::BandwidthModelParams params;
  params.min_efficiency = GetParam();
  params.cpu_for_wire_speed = 1.0 + GetParam() * 2.0;
  const net::BandwidthModel model(params);
  double prev = 0.0;
  for (double h = 0.0; h <= 8.0; h += 0.5) {
    const double e = model.endpoint_efficiency(h);
    EXPECT_GE(e, params.min_efficiency - 1e-12);
    EXPECT_LE(e, 1.0 + 1e-12);
    EXPECT_GE(e, prev - 1e-12);
    prev = e;
  }
}

INSTANTIATE_TEST_SUITE_P(Floors, BandwidthParamSweep, ::testing::Values(0.2, 0.5, 0.58, 0.9));

// ---------- dcsim SLA accounting ----------

TEST(DcSimSla, PostCopyPolicyPreservesPerformance) {
  core::Wavm3Model model;
  model.fit(wavm3::testing::fast_campaign_m().dataset);

  const auto run_with = [&](migration::MigrationType type) {
    dcsim::DcSimConfig cfg = dcsim::make_fleet_scenario(3, 4, 11);
    cfg.duration = 2.0 * 3600.0;
    cfg.strategy = dcsim::Strategy::kCostAware;
    cfg.policy.migration_type = type;
    cfg.policy.underload_fraction = 0.45;
    for (auto& vm : cfg.vms) vm.workload.profile = workloads::LoadProfile::constant(0.1);
    dcsim::DataCenterSimulation sim(cfg, &model);
    return sim.run();
  };

  const dcsim::DcSimReport live = run_with(migration::MigrationType::kLive);
  const dcsim::DcSimReport post = run_with(migration::MigrationType::kPostCopy);
  ASSERT_GT(live.migrations_executed, 0);
  ASSERT_GT(post.migrations_executed, 0);
  EXPECT_GT(live.mean_migration_performance, 0.5);
  EXPECT_LE(live.mean_migration_performance, 1.0);
  // Post-copy's near-zero downtime shows up as less total downtime.
  EXPECT_LT(post.total_migration_downtime, live.total_migration_downtime + 1e-9);
  EXPECT_EQ(live.invariant_violations, 0);
  EXPECT_EQ(post.invariant_violations, 0);
}

}  // namespace
}  // namespace wavm3
