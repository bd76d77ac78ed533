// Tests for the post-copy migration extension: handoff semantics,
// downtime, data volume, and planner agreement.
#include <gtest/gtest.h>

#include "cloud/datacenter.hpp"
#include "cloud/instances.hpp"
#include "core/planner.hpp"
#include "migration/engine.hpp"
#include "net/bandwidth_model.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace wavm3::migration {
namespace {

struct World {
  sim::Simulator sim;
  cloud::DataCenter dc;
  std::unique_ptr<MigrationEngine> engine;

  World() {
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
    engine = std::make_unique<MigrationEngine>(sim, dc, net::BandwidthModel{});
  }

  const MigrationRecord& migrate_mem(double fraction, MigrationType type) {
    dc.host("src")->add_vm(cloud::make_migrating_mem_vm("mv", fraction));
    engine->migrate("mv", "src", "tgt", type);
    sim.run_to_completion();
    return engine->completed().back();
  }
};

TEST(PostCopy, BasicShape) {
  World w;
  const MigrationRecord& r = w.migrate_mem(0.95, MigrationType::kPostCopy);
  EXPECT_EQ(r.outcome, MigrationOutcome::kCompleted);
  EXPECT_TRUE(r.times.well_formed());
  ASSERT_EQ(r.rounds.size(), 2u);  // handoff + pull
  EXPECT_NEAR(r.rounds[0].bytes, 64.0 * 1024 * 1024, 1.0);
  EXPECT_FALSE(r.degenerated_to_nonlive);
}

TEST(PostCopy, MovesExactlyOneMemoryImage) {
  // The decisive advantage over pre-copy for memory-hot VMs: dirtied
  // pages never re-cross the wire.
  World w;
  const MigrationRecord& r = w.migrate_mem(0.95, MigrationType::kPostCopy);
  EXPECT_NEAR(r.total_bytes, util::gib(4), 2e6);
}

TEST(PostCopy, DowntimeIsHandoffOnly) {
  World w;
  const MigrationRecord& r = w.migrate_mem(0.95, MigrationType::kPostCopy);
  // 64 MiB over ~110 MB/s: well under a second.
  EXPECT_LT(r.downtime, 1.5);
  EXPECT_GT(r.downtime, 0.1);
}

TEST(PostCopy, BeatsPreCopyOnHotVmDowntimeAndTraffic) {
  World post;
  const MigrationRecord& r_post = post.migrate_mem(0.95, MigrationType::kPostCopy);
  World pre;
  const MigrationRecord& r_pre = pre.migrate_mem(0.95, MigrationType::kLive);
  EXPECT_LT(r_post.downtime, 0.1 * r_pre.downtime);
  EXPECT_LT(r_post.total_bytes, 0.5 * r_pre.total_bytes);
  EXPECT_LT(r_post.times.transfer_duration(), r_pre.times.transfer_duration());
}

TEST(PostCopy, VmRunsOnTargetDuringPull) {
  World w;
  w.dc.host("src")->add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  w.engine->migrate("mv", "src", "tgt", MigrationType::kPostCopy);
  bool seen_running_on_target_mid_transfer = false;
  w.sim.schedule_periodic(0.25, 0.5, [&] {
    if (!w.engine->migration_active()) return;
    if (w.engine->current_phase() != MigrationPhase::kTransfer) return;
    const auto vm = w.dc.host("tgt")->vm("mv");
    if (vm && vm->state() == cloud::VmState::kRunning) {
      seen_running_on_target_mid_transfer = true;
      // Its CPU shows up in the target's utilisation.
      EXPECT_GT(w.dc.host("tgt")->cpu_used(w.sim.now()), 1.0);
    }
  });
  while (w.engine->migration_active()) w.sim.step();
  EXPECT_TRUE(seen_running_on_target_mid_transfer);
  EXPECT_EQ(w.dc.host("tgt")->vm("mv")->state(), cloud::VmState::kRunning);
  EXPECT_FALSE(w.dc.host("src")->has_vm("mv"));
}

TEST(PostCopy, NoDirtyRatioTracking) {
  World w;
  w.dc.host("src")->add_vm(cloud::make_migrating_mem_vm("mv", 0.95));
  w.engine->migrate("mv", "src", "tgt", MigrationType::kPostCopy);
  double max_dr = 0.0;
  w.sim.schedule_periodic(0.25, 0.5, [&] {
    max_dr = std::max(max_dr, w.engine->current_dirty_ratio());
  });
  while (w.engine->migration_active()) w.sim.step();
  EXPECT_DOUBLE_EQ(max_dr, 0.0);
}

TEST(PostCopy, PlannerAgreesWithEngine) {
  World w;
  const MigrationRecord& r = w.migrate_mem(0.95, MigrationType::kPostCopy);

  core::MigrationScenario sc;
  sc.type = MigrationType::kPostCopy;
  sc.vm_mem_bytes = util::gib(4);
  sc.vm_cpu_vcpus = 1.0;
  sc.vm_dirty_pages_per_s = 300000.0;
  sc.vm_working_set_pages = 0.95 * util::gib(4) / util::kPageSize;
  const core::MigrationForecast fc = core::forecast_timings(sc);

  EXPECT_NEAR(fc.times.transfer_duration(), r.times.transfer_duration(),
              0.1 * r.times.transfer_duration());
  EXPECT_NEAR(fc.total_bytes, r.total_bytes, 0.05 * r.total_bytes);
  EXPECT_NEAR(fc.downtime, r.downtime, 0.5 * r.downtime);
}

}  // namespace
}  // namespace wavm3::migration
