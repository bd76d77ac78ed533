// Tests for the NETLOAD extension: the network-streaming workload, host
// traffic aggregation, link contention during migration, and the
// paper's SIII-B negligibility claim.
#include <gtest/gtest.h>

#include "cloud/datacenter.hpp"
#include "cloud/instances.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "migration/engine.hpp"
#include "net/bandwidth_model.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"
#include "workloads/netstream.hpp"

namespace wavm3 {
namespace {

using migration::MigrationType;

TEST(NetStream, ResourceSignature) {
  workloads::NetStreamParams p;
  p.bytes_per_s = 100e6;
  p.cpu_per_gbs = 1.5;
  const workloads::NetStreamWorkload w(p);
  EXPECT_DOUBLE_EQ(w.network_demand(0.0), 100e6);
  EXPECT_NEAR(w.cpu_demand(0.0), 0.15, 1e-12);
  EXPECT_GT(w.dirty_page_rate(0.0), 0.0);
}

TEST(NetStream, DefaultWorkloadsHaveNoTraffic) {
  const workloads::IdleWorkload idle;
  EXPECT_DOUBLE_EQ(idle.network_demand(0.0), 0.0);
}

TEST(NetStream, VmAndHostAggregation) {
  cloud::HostSpec spec;
  spec.name = "h";
  spec.vcpus = 32;
  spec.ram_bytes = util::gib(32);
  cloud::Host host(spec);
  host.add_vm(cloud::make_migrating_net_vm("n1", 50e6));
  host.add_vm(cloud::make_migrating_net_vm("n2", 30e6));
  EXPECT_DOUBLE_EQ(host.guest_network_demand(0.0), 80e6);
  host.vm("n1")->suspend();
  EXPECT_DOUBLE_EQ(host.guest_network_demand(0.0), 30e6);
}

struct NetWorld {
  sim::Simulator sim;
  cloud::DataCenter dc;
  std::unique_ptr<migration::MigrationEngine> engine;

  explicit NetWorld(double vm_traffic) {
    cloud::HostSpec h;
    h.vcpus = 32;
    h.ram_bytes = util::gib(32);
    h.name = "src";
    dc.add_host(h);
    h.name = "tgt";
    dc.add_host(h);
    net::LinkSpec link;
    link.wire_rate = util::gbit_per_s(1);
    dc.network().connect("src", "tgt", link);
    dc.host("src")->add_vm(cloud::make_migrating_net_vm("mv", vm_traffic));
    engine = std::make_unique<migration::MigrationEngine>(sim, dc, net::BandwidthModel{});
  }

  migration::MigrationRecord migrate(MigrationType type) {
    engine->migrate("mv", "src", "tgt", type);
    sim.run_to_completion();
    return engine->completed().back();
  }
};

TEST(NetLoad, NonLiveUnaffectedByGuestTraffic) {
  // Non-live migration suspends the VM first; its stream stops, so the
  // transfer runs at full speed regardless of the nominal traffic.
  NetWorld quiet(0.0);
  const auto r_quiet = quiet.migrate(MigrationType::kNonLive);
  NetWorld loud(110e6);
  const auto r_loud = loud.migrate(MigrationType::kNonLive);
  EXPECT_NEAR(r_loud.rounds[0].bandwidth, r_quiet.rounds[0].bandwidth,
              0.01 * r_quiet.rounds[0].bandwidth);
}

TEST(NetLoad, LiveModestTrafficBarelyMatters) {
  NetWorld quiet(0.0);
  const auto r_quiet = quiet.migrate(MigrationType::kLive);
  NetWorld modest(25e6);  // 200 Mbit/s
  const auto r_modest = modest.migrate(MigrationType::kLive);
  // SIII-B: below saturation the impact is small (< 10% here).
  EXPECT_LT(r_modest.times.transfer_duration(),
            1.10 * r_quiet.times.transfer_duration());
}

TEST(NetLoad, LiveSaturationStretchesTransfer) {
  NetWorld quiet(0.0);
  const auto r_quiet = quiet.migrate(MigrationType::kLive);
  NetWorld saturated(117e6);  // at wire payload speed
  const auto r_sat = saturated.migrate(MigrationType::kLive);
  EXPECT_GT(r_sat.times.transfer_duration(), 1.15 * r_quiet.times.transfer_duration());
  EXPECT_LT(r_sat.rounds[0].bandwidth, r_quiet.rounds[0].bandwidth);
}

TEST(NetLoad, GuestTrafficShowsUpInNicActivity) {
  NetWorld w(50e6);
  const power::HostActivity a = w.engine->activity_of(*w.dc.host("src"));
  EXPECT_DOUBLE_EQ(a.nic_bytes_per_s, 50e6);
  EXPECT_FALSE(a.transfer_active);
}

TEST(NetLoad, ScenariosWellFormed) {
  const auto scenarios = exp::netload_vm_scenarios();
  EXPECT_EQ(scenarios.size(), 12u);  // 6 rates x 2 types
  for (const auto& sc : scenarios) {
    EXPECT_EQ(sc.family, exp::Family::kNetLoadVm);
    EXPECT_EQ(sc.migrating, exp::MigratingKind::kNet);
    EXPECT_GE(sc.net_rate, 0.0);
    EXPECT_NE(sc.name.find("NETLOAD-VM"), std::string::npos);
  }
  // The paper's 5-family design is unchanged by the extension.
  EXPECT_EQ(exp::all_scenarios().size(), 42u);
}

TEST(NetLoad, RunnerExecutesNetScenario) {
  exp::ExperimentRunner runner(exp::testbed_m(), exp::RunnerOptions{}, 3);
  runner.set_idle_power_reference(433.0);
  const auto scenarios = exp::netload_vm_scenarios();
  const exp::RunResult run = runner.run(scenarios.back(), 0);  // live, 940 Mbit
  EXPECT_EQ(run.record.outcome, migration::MigrationOutcome::kCompleted);
  EXPECT_GT(run.source_obs.observed_energy(), 0.0);
}

}  // namespace
}  // namespace wavm3
