// Unit tests for the migration engine: phase structure, pre-copy
// dynamics, non-live suspend/resume, bandwidth coupling, degeneration
// under high dirtying ratios, and activity assembly.
#include <gtest/gtest.h>

#include <cmath>

#include "cloud/datacenter.hpp"
#include "cloud/instances.hpp"
#include "migration/engine.hpp"
#include "migration/feature_trace.hpp"
#include "migration/phases.hpp"
#include "net/bandwidth_model.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::migration {
namespace {

using cloud::VmState;

cloud::HostSpec host32(const std::string& name) {
  cloud::HostSpec h;
  h.name = name;
  h.vcpus = 32;
  h.ram_bytes = util::gib(32);
  return h;
}

net::LinkSpec gigabit() {
  net::LinkSpec s;
  s.name = "gbe";
  s.wire_rate = util::gbit_per_s(1);
  s.protocol_efficiency = 0.94;
  return s;
}

/// A ready-to-migrate two-host world.
struct World {
  sim::Simulator sim;
  cloud::DataCenter dc;
  cloud::Host* source = nullptr;
  cloud::Host* target = nullptr;
  std::unique_ptr<MigrationEngine> engine;

  explicit World(int source_load_vms = 0, int target_load_vms = 0,
                 MigrationConfig config = {}) {
    source = &dc.add_host(host32("src"));
    target = &dc.add_host(host32("tgt"));
    dc.network().connect("src", "tgt", gigabit());
    for (int i = 0; i < source_load_vms; ++i)
      source->add_vm(cloud::make_load_cpu_vm("sl" + std::to_string(i)));
    for (int i = 0; i < target_load_vms; ++i)
      target->add_vm(cloud::make_load_cpu_vm("tl" + std::to_string(i)));
    engine = std::make_unique<MigrationEngine>(sim, dc, net::BandwidthModel{}, config);
  }

  const MigrationRecord& migrate_cpu(MigrationType type, RunJitter jitter = {}) {
    source->add_vm(cloud::make_migrating_cpu_vm("mv"));
    engine->migrate("mv", "src", "tgt", type, jitter);
    sim.run_to_completion();
    return engine->completed().back();
  }

  const MigrationRecord& migrate_mem(double fraction, RunJitter jitter = {}) {
    source->add_vm(cloud::make_migrating_mem_vm("mv", fraction));
    engine->migrate("mv", "src", "tgt", MigrationType::kLive, jitter);
    sim.run_to_completion();
    return engine->completed().back();
  }
};

TEST(Phases, PhaseAtBoundaries) {
  PhaseTimestamps t;
  t.ms = 10.0;
  t.ts = 13.0;
  t.te = 50.0;
  t.me = 54.0;
  EXPECT_TRUE(t.well_formed());
  EXPECT_EQ(t.phase_at(5.0), MigrationPhase::kNormal);
  EXPECT_EQ(t.phase_at(10.0), MigrationPhase::kInitiation);
  EXPECT_EQ(t.phase_at(13.0), MigrationPhase::kTransfer);
  EXPECT_EQ(t.phase_at(49.9), MigrationPhase::kTransfer);
  EXPECT_EQ(t.phase_at(50.0), MigrationPhase::kActivation);
  EXPECT_EQ(t.phase_at(54.0), MigrationPhase::kActivation);
  EXPECT_EQ(t.phase_at(54.1), MigrationPhase::kNormal);
  EXPECT_DOUBLE_EQ(t.initiation_duration(), 3.0);
  EXPECT_DOUBLE_EQ(t.transfer_duration(), 37.0);
  EXPECT_DOUBLE_EQ(t.activation_duration(), 4.0);
}

TEST(FeatureTraceTest, OrderingAndLookup) {
  FeatureTrace trace;
  for (int i = 0; i < 10; ++i) {
    FeatureSample s;
    s.time = i * 0.5;
    s.cpu_source = i;
    s.phase = i < 5 ? MigrationPhase::kInitiation : MigrationPhase::kTransfer;
    trace.add(s);
  }
  ASSERT_EQ(trace.size(), 10u);
  EXPECT_DOUBLE_EQ(trace[3].time, 1.5);
  EXPECT_DOUBLE_EQ(trace[3].cpu_source, 3.0);
  EXPECT_EQ(trace.samples().back().phase, MigrationPhase::kTransfer);
  // An equal timestamp keeps the order; an earlier one is rejected.
  FeatureSample same;
  same.time = 4.5;
  trace.add(same);
  EXPECT_EQ(trace.size(), 11u);
  FeatureSample bad;
  bad.time = 0.0;
  EXPECT_THROW(trace.add(bad), util::ContractError);
}

TEST(Engine, NonLiveBasicShape) {
  World w;
  const MigrationRecord& r = w.migrate_cpu(MigrationType::kNonLive);
  EXPECT_EQ(r.outcome, MigrationOutcome::kCompleted);
  EXPECT_TRUE(r.times.well_formed());
  EXPECT_EQ(r.type, MigrationType::kNonLive);
  EXPECT_EQ(r.precopy_rounds, 0);
  ASSERT_EQ(r.rounds.size(), 1u);
  EXPECT_TRUE(r.rounds[0].stop_and_copy);
  // Non-live moves exactly the VM memory image.
  EXPECT_DOUBLE_EQ(r.total_bytes, util::gib(4));
  // Downtime spans suspension (at ms) to resume inside activation.
  EXPECT_GT(r.downtime, r.times.transfer_duration());
  EXPECT_FALSE(r.degenerated_to_nonlive);
}

TEST(Engine, NonLiveVmEndsRunningOnTarget) {
  World w;
  w.migrate_cpu(MigrationType::kNonLive);
  EXPECT_FALSE(w.source->has_vm("mv"));
  const cloud::VmPtr vm = w.target->vm("mv");
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->state(), VmState::kRunning);
}

TEST(Engine, LiveCpuVmConvergesWithFewRounds) {
  World w;
  const MigrationRecord& r = w.migrate_cpu(MigrationType::kLive);
  EXPECT_GE(r.precopy_rounds, 1);
  EXPECT_LE(r.precopy_rounds, 5);
  EXPECT_FALSE(r.degenerated_to_nonlive);
  // Downtime is tiny: the matrixmult VM dirties almost nothing.
  EXPECT_LT(r.downtime, 3.0);
  // Live moves at least the full image plus the dirty rounds.
  EXPECT_GE(r.total_bytes, util::gib(4));
}

TEST(Engine, LiveHighDirtyRatioDegeneratesToNonLive) {
  World w;
  const MigrationRecord& r = w.migrate_mem(0.95);
  EXPECT_TRUE(r.degenerated_to_nonlive);
  // The traffic cap bounds total data at 3x memory plus the final copy.
  EXPECT_GT(r.total_bytes, 2.0 * util::gib(4));
  EXPECT_LE(r.total_bytes, 4.1 * util::gib(4));
  // Long suspension tail: the stop-and-copy round is large.
  EXPECT_GT(r.downtime, 5.0);
}

TEST(Engine, TransferGrowsWithDirtyFraction) {
  World w5;
  const double t5 = w5.migrate_mem(0.05).times.transfer_duration();
  World w55;
  const double t55 = w55.migrate_mem(0.55).times.transfer_duration();
  World w95;
  const double t95 = w95.migrate_mem(0.95).times.transfer_duration();
  EXPECT_LT(t5, t55);
  EXPECT_LT(t55, t95);
}

TEST(Engine, DowntimeGrowsWithDirtyFraction) {
  World w5;
  const double d5 = w5.migrate_mem(0.05).downtime;
  World w95;
  const double d95 = w95.migrate_mem(0.95).downtime;
  EXPECT_LT(d5, d95);
}

TEST(Engine, SourceLoadReducesBandwidth) {
  World idle;
  const MigrationRecord& r_idle = idle.migrate_cpu(MigrationType::kNonLive);
  World loaded(8, 0);  // 8 load VMs saturate the source
  const MigrationRecord& r_loaded = loaded.migrate_cpu(MigrationType::kNonLive);
  EXPECT_GT(r_loaded.times.transfer_duration(), 1.2 * r_idle.times.transfer_duration());
  EXPECT_LT(r_loaded.rounds[0].bandwidth, r_idle.rounds[0].bandwidth);
}

TEST(Engine, LiveSlowerThanNonLiveUnderFullSourceLoad) {
  // With 7 load VMs the host is exactly full only while the migrating
  // VM also runs, so live migration sees less bandwidth than non-live
  // (whose VM is suspended at initiation) - the SVI-A observation.
  World live_world(7, 0);
  const MigrationRecord& r_live = live_world.migrate_cpu(MigrationType::kLive);
  World nonlive_world(7, 0);
  const MigrationRecord& r_nonlive = nonlive_world.migrate_cpu(MigrationType::kNonLive);
  EXPECT_LT(r_live.rounds[0].bandwidth, r_nonlive.rounds[0].bandwidth);
}

TEST(Engine, TargetLoadAlsoThrottles) {
  World idle;
  const MigrationRecord& r_idle = idle.migrate_cpu(MigrationType::kNonLive);
  World loaded(0, 8);
  const MigrationRecord& r_loaded = loaded.migrate_cpu(MigrationType::kNonLive);
  EXPECT_LT(r_loaded.rounds[0].bandwidth, r_idle.rounds[0].bandwidth);
}

TEST(Engine, JitterScalesInitiation) {
  World a;
  RunJitter slow;
  slow.initiation_factor = 1.5;
  const MigrationRecord& r_slow = a.migrate_cpu(MigrationType::kNonLive, slow);
  World b;
  RunJitter fast;
  fast.initiation_factor = 0.5;
  const MigrationRecord& r_fast = b.migrate_cpu(MigrationType::kNonLive, fast);
  EXPECT_NEAR(r_slow.times.initiation_duration() / r_fast.times.initiation_duration(), 3.0,
              1e-6);
}

TEST(Engine, JitterScalesBandwidth) {
  World a;
  RunJitter strong;
  strong.bandwidth_factor = 0.8;
  const MigrationRecord& r = a.migrate_cpu(MigrationType::kNonLive, strong);
  World b;
  const MigrationRecord& r_ref = b.migrate_cpu(MigrationType::kNonLive);
  EXPECT_NEAR(r.rounds[0].bandwidth / r_ref.rounds[0].bandwidth, 0.8, 1e-6);
}

TEST(Engine, PhaseReportingDuringRun) {
  World w;
  w.source->add_vm(cloud::make_migrating_cpu_vm("mv"));
  EXPECT_EQ(w.engine->current_phase(), MigrationPhase::kNormal);
  w.engine->migrate("mv", "src", "tgt", MigrationType::kLive);

  std::vector<MigrationPhase> seen;
  w.sim.schedule_periodic(0.25, 0.5, [&] {
    if (w.engine->migration_active()) seen.push_back(w.engine->current_phase());
  });
  // Run until the migration finishes, then drain the sampler.
  while (w.engine->migration_active()) w.sim.step();
  EXPECT_EQ(w.engine->current_phase(), MigrationPhase::kNormal);

  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), MigrationPhase::kInitiation);
  bool saw_transfer = false;
  bool saw_activation = false;
  for (const auto p : seen) {
    saw_transfer |= p == MigrationPhase::kTransfer;
    saw_activation |= p == MigrationPhase::kActivation;
  }
  EXPECT_TRUE(saw_transfer);
  EXPECT_TRUE(saw_activation);
}

TEST(Engine, DirtyRatioPositiveOnlyDuringLiveTransfer) {
  World w;
  w.source->add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  w.engine->migrate("mv", "src", "tgt", MigrationType::kLive);

  double max_dr_transfer = 0.0;
  double max_dr_other = 0.0;
  w.sim.schedule_periodic(0.25, 0.5, [&] {
    if (!w.engine->migration_active()) return;
    const double dr = w.engine->current_dirty_ratio();
    if (w.engine->current_phase() == MigrationPhase::kTransfer) {
      max_dr_transfer = std::max(max_dr_transfer, dr);
    } else {
      max_dr_other = std::max(max_dr_other, dr);
    }
  });
  while (w.engine->migration_active()) w.sim.step();
  EXPECT_GT(max_dr_transfer, 0.05);
  EXPECT_DOUBLE_EQ(max_dr_other, 0.0);
}

TEST(Engine, NonLiveDirtyRatioAlwaysZero) {
  World w;
  w.source->add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  w.engine->migrate("mv", "src", "tgt", MigrationType::kNonLive);
  double max_dr = 0.0;
  w.sim.schedule_periodic(0.25, 0.5, [&] {
    max_dr = std::max(max_dr, w.engine->current_dirty_ratio());
  });
  while (w.engine->migration_active()) w.sim.step();
  EXPECT_DOUBLE_EQ(max_dr, 0.0);
}

TEST(Engine, ActivityAssemblyDuringTransfer) {
  World w;
  w.source->add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  w.engine->migrate("mv", "src", "tgt", MigrationType::kLive);

  bool checked = false;
  w.sim.schedule_periodic(0.25, 0.5, [&] {
    if (checked || !w.engine->migration_active()) return;
    if (w.engine->current_phase() != MigrationPhase::kTransfer) return;
    if (w.dc.host("src")->vm("mv") == nullptr ||
        w.dc.host("src")->vm("mv")->state() != VmState::kRunning) {
      return;  // wait for a pre-copy round with the VM running
    }
    const power::HostActivity src = w.engine->activity_of(*w.source);
    const power::HostActivity tgt = w.engine->activity_of(*w.target);
    EXPECT_TRUE(src.transfer_active);
    EXPECT_TRUE(tgt.transfer_active);
    EXPECT_GT(src.nic_bytes_per_s, 1e6);
    EXPECT_DOUBLE_EQ(src.nic_bytes_per_s, tgt.nic_bytes_per_s);
    EXPECT_GT(src.tracking_dirty_ratio, 0.0);      // shadow paging on source
    EXPECT_DOUBLE_EQ(tgt.tracking_dirty_ratio, 0.0);
    EXPECT_GT(src.mem_dirty_bytes_per_s, 1e8);     // the dirtier's write traffic
    checked = true;
  });
  while (w.engine->migration_active()) w.sim.step();
  EXPECT_TRUE(checked);
}

TEST(Engine, ActivityQuietOutsideMigration) {
  World w(2, 0);
  const power::HostActivity a = w.engine->activity_of(*w.source);
  EXPECT_FALSE(a.transfer_active);
  EXPECT_DOUBLE_EQ(a.nic_bytes_per_s, 0.0);
  EXPECT_DOUBLE_EQ(a.tracking_dirty_ratio, 0.0);
  EXPECT_GT(a.cpu_used_vcpus, 8.0);  // two load VMs + dom0
}

TEST(Engine, RejectsInvalidRequests) {
  World w;
  w.source->add_vm(cloud::make_migrating_cpu_vm("mv"));
  EXPECT_THROW(w.engine->migrate("missing", "src", "tgt", MigrationType::kLive),
               util::ContractError);
  EXPECT_THROW(w.engine->migrate("mv", "src", "src", MigrationType::kLive),
               util::ContractError);
  EXPECT_THROW(w.engine->migrate("mv", "nope", "tgt", MigrationType::kLive),
               util::ContractError);
  w.engine->migrate("mv", "src", "tgt", MigrationType::kLive);
  EXPECT_THROW(w.engine->migrate("mv", "src", "tgt", MigrationType::kLive),
               util::ContractError);  // already in flight
}

TEST(Engine, RejectsHeterogeneousArchitectures) {
  // Paper SI: Xen prevents migration between incompatible architectures.
  sim::Simulator sim;
  cloud::DataCenter dc;
  cloud::HostSpec a = host32("src");
  a.cpu_architecture = "x86_64";
  cloud::HostSpec b = host32("tgt");
  b.cpu_architecture = "aarch64";
  dc.add_host(a);
  dc.add_host(b);
  dc.network().connect("src", "tgt", gigabit());
  dc.host("src")->add_vm(cloud::make_migrating_cpu_vm("mv"));
  MigrationEngine engine(sim, dc, net::BandwidthModel{});
  EXPECT_THROW(engine.migrate("mv", "src", "tgt", MigrationType::kLive),
               util::ContractError);
}

TEST(Engine, PerformanceAccountingNonLiveNearZero) {
  // Suspended from ms to the activation resume: almost no useful work.
  World w;
  const MigrationRecord& r = w.migrate_cpu(MigrationType::kNonLive);
  EXPECT_LT(r.vm_mean_performance, 0.10);
  EXPECT_GE(r.vm_mean_performance, 0.0);
}

TEST(Engine, PerformanceAccountingLiveNearFull) {
  // A CPU-bound VM on an idle host runs essentially unimpeded; only the
  // short stop-and-copy and the activation gap cost anything.
  World w;
  const MigrationRecord& r = w.migrate_cpu(MigrationType::kLive);
  EXPECT_GT(r.vm_mean_performance, 0.80);
  EXPECT_LE(r.vm_mean_performance, 1.0);
}

TEST(Engine, PerformanceDegradedUnderMultiplexing) {
  World idle;
  const double p_idle = idle.migrate_cpu(MigrationType::kLive).vm_mean_performance;
  World loaded(8, 0);
  const double p_loaded = loaded.migrate_cpu(MigrationType::kLive).vm_mean_performance;
  EXPECT_LT(p_loaded, p_idle - 0.05);
}

TEST(Engine, PerformanceOrderingAcrossFlavours) {
  // Post-copy > live pre-copy > non-live for a memory-hot VM.
  World post;
  post.source->add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  post.engine->migrate("mv", "src", "tgt", MigrationType::kPostCopy);
  post.sim.run_to_completion();
  const double p_post = post.engine->completed().back().vm_mean_performance;

  World live;
  const double p_live = live.migrate_mem(0.95).vm_mean_performance;

  World nonlive;
  nonlive.source->add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  nonlive.engine->migrate("mv", "src", "tgt", MigrationType::kNonLive);
  nonlive.sim.run_to_completion();
  const double p_nonlive = nonlive.engine->completed().back().vm_mean_performance;

  EXPECT_GT(p_post, p_live);
  EXPECT_GT(p_live, p_nonlive);
}

TEST(Engine, CompletionCallbackFiresWithRecord) {
  World w;
  w.source->add_vm(cloud::make_migrating_cpu_vm("mv"));
  bool fired = false;
  w.engine->migrate("mv", "src", "tgt", MigrationType::kLive, {},
                    [&](const MigrationRecord& r) {
                      fired = true;
                      EXPECT_EQ(r.outcome, MigrationOutcome::kCompleted);
                      EXPECT_EQ(r.vm_id, "mv");
                    });
  w.sim.run_to_completion();
  EXPECT_TRUE(fired);
  EXPECT_EQ(w.engine->completed().size(), 1u);
}

TEST(Engine, BackToBackMigrationsSupported) {
  World w;
  w.source->add_vm(cloud::make_migrating_cpu_vm("mv"));
  w.engine->migrate("mv", "src", "tgt", MigrationType::kLive);
  w.sim.run_to_completion();
  // Migrate it back.
  w.engine->migrate("mv", "tgt", "src", MigrationType::kNonLive);
  w.sim.run_to_completion();
  EXPECT_EQ(w.engine->completed().size(), 2u);
  EXPECT_TRUE(w.source->has_vm("mv"));
  EXPECT_EQ(w.source->vm("mv")->state(), VmState::kRunning);
}

TEST(Engine, QueueedMigrationsRunInOrder) {
  World w;
  for (int i = 0; i < 3; ++i)
    w.source->add_vm(cloud::make_migrating_cpu_vm("mv" + std::to_string(i)));
  std::vector<std::string> completed_order;
  for (int i = 0; i < 3; ++i) {
    w.engine->enqueue_migrate("mv" + std::to_string(i), "src", "tgt", MigrationType::kLive, {},
                              [&](const MigrationRecord& r) {
                                completed_order.push_back(r.vm_id);
                              });
  }
  EXPECT_TRUE(w.engine->migration_active());
  EXPECT_EQ(w.engine->queued_migrations(), 2u);
  w.sim.run_to_completion();
  ASSERT_EQ(completed_order.size(), 3u);
  EXPECT_EQ(completed_order[0], "mv0");
  EXPECT_EQ(completed_order[1], "mv1");
  EXPECT_EQ(completed_order[2], "mv2");
  EXPECT_EQ(w.target->vm_count(), 3u);
  // Migrations did not overlap: each starts after the previous me.
  const auto& records = w.engine->completed();
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_GE(records[i].times.ms, records[i - 1].times.me - 1e-9);
}

TEST(Engine, QueueSkipsStaleRequests) {
  World w;
  w.source->add_vm(cloud::make_migrating_cpu_vm("mv0"));
  w.source->add_vm(cloud::make_migrating_cpu_vm("mv1"));
  w.engine->enqueue_migrate("mv0", "src", "tgt", MigrationType::kLive);
  // Queue a request that will be stale by the time it runs: mv1 gets
  // stopped while mv0 is still migrating.
  w.engine->enqueue_migrate("mv1", "src", "tgt", MigrationType::kLive);
  w.source->vm("mv1")->stop();
  w.sim.run_to_completion();
  EXPECT_EQ(w.engine->completed().size(), 1u);  // stale request skipped
  EXPECT_EQ(w.engine->queued_migrations(), 0u);
}

TEST(Engine, LinkAccountingMatchesRecord) {
  World w;
  const MigrationRecord& r = w.migrate_cpu(MigrationType::kLive);
  const net::Link* link = w.dc.network().link_between("src", "tgt");
  EXPECT_DOUBLE_EQ(link->total_bytes(), r.total_bytes);
}

// Property sweep: phase ordering and data conservation across dirty
// fractions and migration types.
class EngineSweep : public ::testing::TestWithParam<double> {};

TEST_P(EngineSweep, InvariantsHold) {
  World w;
  const MigrationRecord& r = w.migrate_mem(GetParam());
  EXPECT_TRUE(r.times.well_formed());
  EXPECT_GE(r.total_bytes, util::gib(4));             // at least one full pass
  EXPECT_LE(r.total_bytes, 4.1 * util::gib(4));       // bounded by the traffic cap
  EXPECT_GT(r.downtime, 0.0);
  EXPECT_LE(r.times.initiation_duration(), 5.0);
  for (std::size_t i = 1; i < r.rounds.size(); ++i)
    EXPECT_GE(r.rounds[i].start, r.rounds[i - 1].start);
  EXPECT_TRUE(r.rounds.back().stop_and_copy);
}

INSTANTIATE_TEST_SUITE_P(DirtyFractions, EngineSweep,
                         ::testing::Values(0.05, 0.15, 0.35, 0.55, 0.75, 0.95));

}  // namespace
}  // namespace wavm3::migration
