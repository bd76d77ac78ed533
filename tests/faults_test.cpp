// Unit tests for fault injection: FaultPlan schedule semantics and
// seeded-replay determinism, fault-shaped bandwidth, and the engine's
// failed-migration semantics (rollback, VM loss, wasted-energy
// accounting, phase-bound connection losses).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "chaos/replan.hpp"
#include "cloud/datacenter.hpp"
#include "cloud/instances.hpp"
#include "core/planner.hpp"
#include "dcsim/simulation.hpp"
#include "faults/fault_plan.hpp"
#include "migration/engine.hpp"
#include "net/bandwidth_model.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::faults {
namespace {

using migration::MigrationConfig;
using migration::MigrationOutcome;
using migration::MigrationPhase;
using migration::MigrationRecord;
using migration::MigrationType;

/// True when `plan` schedules no fault of any kind.
bool no_faults(const FaultPlan& plan) {
  return plan.connection_losses().empty() && plan.degradations().empty() &&
         plan.flaps().empty() && plan.stalls().empty() && plan.overloads().empty();
}

TEST(FaultPlan, EmptyPlanIsTransparent) {
  FaultPlan plan;
  EXPECT_TRUE(no_faults(plan));
  EXPECT_FALSE(plan.has_link_faults());
  EXPECT_DOUBLE_EQ(plan.link_factor(0.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.average_link_factor(0.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.host_overload("src", 10.0), 0.0);
  EXPECT_FALSE(plan.next_loss_at_or_after(0.0).has_value());
  EXPECT_FALSE(plan.loss_offset_in(FaultPhase::kTransfer).has_value());
}

TEST(FaultPlan, DegradationWindowAndAverage) {
  FaultPlan plan;
  plan.add(LinkDegradation{10.0, 20.0, 0.5});
  EXPECT_DOUBLE_EQ(plan.link_factor(5.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.link_factor(15.0), 0.5);
  EXPECT_DOUBLE_EQ(plan.link_factor(20.0), 1.0);  // end is exclusive
  // Exact piecewise mean over [0, 20]: half the window at factor 0.5.
  EXPECT_NEAR(plan.average_link_factor(0.0, 20.0), 0.75, 1e-12);
  // Overlapping degradations multiply.
  plan.add(LinkDegradation{12.0, 30.0, 0.5});
  EXPECT_DOUBLE_EQ(plan.link_factor(15.0), 0.25);
  EXPECT_DOUBLE_EQ(plan.link_factor(25.0), 0.5);
}

TEST(FaultPlan, StallZeroesAndFlapAlternates) {
  FaultPlan plan;
  plan.add(TransferStall{100.0, 2.0});
  EXPECT_DOUBLE_EQ(plan.link_factor(101.0), 0.0);
  EXPECT_DOUBLE_EQ(plan.link_factor(102.5), 1.0);

  FaultPlan flappy;
  LinkFlap f;
  f.start = 0.0;
  f.end = 100.0;
  f.up_duration = 8.0;
  f.down_duration = 2.0;
  f.down_factor = 0.05;
  flappy.add(f);
  EXPECT_DOUBLE_EQ(flappy.link_factor(4.0), 1.0);   // in the up part
  EXPECT_DOUBLE_EQ(flappy.link_factor(9.0), 0.05);  // in the down part
  EXPECT_DOUBLE_EQ(flappy.link_factor(14.0), 1.0);  // next period, up again
  // Mean of one 10 s period: (8*1 + 2*0.05)/10.
  EXPECT_NEAR(flappy.average_link_factor(0.0, 100.0), 0.81, 1e-9);
}

TEST(FaultPlan, DegenerateFlapsAreDefinedNotAmbiguous) {
  // Zero-length window: a no-op, accepted and dropped.
  FaultPlan zero_window;
  zero_window.add(LinkFlap{50.0, 50.0, 8.0, 2.0, 0.05});
  EXPECT_TRUE(no_faults(zero_window));
  EXPECT_DOUBLE_EQ(zero_window.link_factor(50.0), 1.0);

  // Never-down flap (down_duration == 0): also a no-op.
  FaultPlan never_down;
  never_down.add(LinkFlap{0.0, 100.0, 8.0, 0.0, 0.05});
  EXPECT_TRUE(no_faults(never_down));
  EXPECT_DOUBLE_EQ(never_down.link_factor(4.0), 1.0);

  // Always-down flap (up_duration == 0): down_factor across the whole
  // window, exactly like a degradation.
  FaultPlan always_down;
  always_down.add(LinkFlap{10.0, 110.0, 0.0, 5.0, 0.25});
  EXPECT_DOUBLE_EQ(always_down.link_factor(5.0), 1.0);
  EXPECT_DOUBLE_EQ(always_down.link_factor(10.0), 0.25);
  EXPECT_DOUBLE_EQ(always_down.link_factor(109.9), 0.25);
  EXPECT_DOUBLE_EQ(always_down.link_factor(110.0), 1.0);
  EXPECT_NEAR(always_down.average_link_factor(10.0, 110.0), 0.25, 1e-12);

  // A zero period has no phase to evaluate against: malformed.
  FaultPlan bad;
  EXPECT_THROW(bad.add(LinkFlap{0.0, 100.0, 0.0, 0.0, 0.5}), util::ContractError);
  EXPECT_THROW(bad.add(LinkFlap{100.0, 0.0, 8.0, 2.0, 0.5}), util::ContractError);
}

TEST(FaultPlan, OverlappingFaultsComposeOrderIndependently) {
  // Two overlapping degradations: the factor over the intersection is
  // the product, whichever order they were added in — no last-writer
  // ambiguity.
  FaultPlan ab;
  ab.add(LinkDegradation{0.0, 100.0, 0.5});
  ab.add(LinkDegradation{50.0, 150.0, 0.5});
  FaultPlan ba;
  ba.add(LinkDegradation{50.0, 150.0, 0.5});
  ba.add(LinkDegradation{0.0, 100.0, 0.5});
  for (const double t : {25.0, 75.0, 125.0, 149.0}) {
    EXPECT_DOUBLE_EQ(ab.link_factor(t), ba.link_factor(t)) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(ab.link_factor(75.0), 0.25);
  EXPECT_DOUBLE_EQ(ab.link_factor(25.0), 0.5);
  EXPECT_DOUBLE_EQ(ab.link_factor(125.0), 0.5);
  // Exact piecewise mean over [0, 150): thirds at 0.5, 0.25, 0.5.
  EXPECT_NEAR(ab.average_link_factor(0.0, 150.0), (0.5 + 0.25 + 0.5) / 3.0, 1e-12);
  EXPECT_NEAR(ab.average_link_factor(0.0, 150.0), ba.average_link_factor(0.0, 150.0),
              1e-12);

  // A flap's down phase multiplies into an overlapping degradation the
  // same way; cross-check the exact integral against dense sampling.
  FaultPlan mixed;
  mixed.add(LinkDegradation{0.0, 100.0, 0.5});
  mixed.add(LinkFlap{0.0, 100.0, 6.0, 4.0, 0.2});
  EXPECT_DOUBLE_EQ(mixed.link_factor(3.0), 0.5);        // flap up
  EXPECT_DOUBLE_EQ(mixed.link_factor(8.0), 0.5 * 0.2);  // flap down
  double sampled = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sampled += mixed.link_factor((static_cast<double>(i) + 0.5) * 100.0 / n);
  }
  sampled /= n;
  EXPECT_NEAR(mixed.average_link_factor(0.0, 100.0), sampled, 1e-6);
}

TEST(FaultPlan, HostOverloadIsPerHostAndSummed) {
  FaultPlan plan;
  plan.add(HostOverload{"src", 0.0, 50.0, 2.0});
  plan.add(HostOverload{"src", 40.0, 60.0, 3.0});
  plan.add(HostOverload{"tgt", 0.0, 50.0, 1.0});
  EXPECT_DOUBLE_EQ(plan.host_overload("src", 10.0), 2.0);
  EXPECT_DOUBLE_EQ(plan.host_overload("src", 45.0), 5.0);  // spikes stack
  EXPECT_DOUBLE_EQ(plan.host_overload("src", 55.0), 3.0);
  EXPECT_DOUBLE_EQ(plan.host_overload("tgt", 10.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.host_overload("elsewhere", 10.0), 0.0);
}

TEST(FaultPlan, ConnectionLossLookup) {
  FaultPlan plan;
  plan.add(ConnectionLoss{FaultPhase::kAny, 120.0});
  plan.add(ConnectionLoss{FaultPhase::kAny, 40.0});
  plan.add(ConnectionLoss{FaultPhase::kTransfer, 3.0});
  ASSERT_TRUE(plan.next_loss_at_or_after(0.0).has_value());
  EXPECT_DOUBLE_EQ(*plan.next_loss_at_or_after(0.0), 40.0);
  EXPECT_DOUBLE_EQ(*plan.next_loss_at_or_after(41.0), 120.0);
  EXPECT_FALSE(plan.next_loss_at_or_after(121.0).has_value());
  ASSERT_TRUE(plan.loss_offset_in(FaultPhase::kTransfer).has_value());
  EXPECT_DOUBLE_EQ(*plan.loss_offset_in(FaultPhase::kTransfer), 3.0);
  EXPECT_FALSE(plan.loss_offset_in(FaultPhase::kInitiation).has_value());
}

TEST(FaultPlan, RejectsMalformedFaults) {
  FaultPlan plan;
  EXPECT_THROW(plan.add(LinkDegradation{10.0, 5.0, 0.5}), util::ContractError);
  EXPECT_THROW(plan.add(LinkDegradation{0.0, 10.0, 1.5}), util::ContractError);
  EXPECT_THROW(plan.add(TransferStall{0.0, -1.0}), util::ContractError);
  EXPECT_THROW(plan.add(HostOverload{"", 0.0, 10.0, 1.0}), util::ContractError);
  EXPECT_THROW(plan.add(ConnectionLoss{FaultPhase::kAny, -1.0}), util::ContractError);
}

TEST(FaultPlan, SeededReplayIsDeterministic) {
  FaultPlanOptions opts;
  opts.horizon = 1800.0;
  opts.overload_hosts = {"src", "tgt"};
  opts.connection_loss_probability = 1.0;
  const FaultPlan a = FaultPlan::random(opts, 42);
  const FaultPlan b = FaultPlan::random(opts, 42);
  const FaultPlan c = FaultPlan::random(opts, 43);
  EXPECT_FALSE(no_faults(a));
  // The same seed must reproduce the same schedule exactly...
  bool any_difference_from_c = false;
  for (double t = 0.0; t < opts.horizon; t += 7.3) {
    EXPECT_DOUBLE_EQ(a.link_factor(t), b.link_factor(t)) << "at t=" << t;
    EXPECT_DOUBLE_EQ(a.host_overload("src", t), b.host_overload("src", t));
    if (a.link_factor(t) != c.link_factor(t)) any_difference_from_c = true;
  }
  ASSERT_EQ(a.connection_losses().size(), b.connection_losses().size());
  for (std::size_t i = 0; i < a.connection_losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.connection_losses()[i].at, b.connection_losses()[i].at);
  }
  // ...and a different seed must produce a different one.
  EXPECT_TRUE(any_difference_from_c);
}

// --- engine integration -------------------------------------------------

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

/// A ready-to-migrate two-host world with an optional fault plan.
struct World {
  sim::Simulator sim;
  cloud::DataCenter dc;
  cloud::Host* source = nullptr;
  cloud::Host* target = nullptr;
  std::unique_ptr<migration::MigrationEngine> engine;

  explicit World(MigrationConfig config = {}) {
    source = &dc.add_host(host32("src"));
    target = &dc.add_host(host32("tgt"));
    dc.network().connect("src", "tgt", gigabit());
    engine = std::make_unique<migration::MigrationEngine>(sim, dc, net::BandwidthModel{},
                                                          config);
  }

  const MigrationRecord& migrate_mem(MigrationType type, double fraction = 0.3) {
    source->add_vm(cloud::make_migrating_mem_vm("mv", fraction));
    engine->migrate("mv", "src", "tgt", type);
    sim.run_to_completion();
    return engine->completed().back();
  }
};

std::shared_ptr<const FaultPlan> plan_with(const ConnectionLoss& loss) {
  auto plan = std::make_shared<FaultPlan>();
  plan->add(loss);
  return plan;
}

TEST(EngineFaults, LiveTransferLossRollsBackOnSource) {
  World w;
  w.engine->set_fault_plan(plan_with(ConnectionLoss{FaultPhase::kTransfer, 2.0}));
  const MigrationRecord& r = w.migrate_mem(MigrationType::kLive);

  EXPECT_EQ(r.outcome, MigrationOutcome::kRolledBack);
  EXPECT_EQ(r.failure_phase, MigrationPhase::kTransfer);
  EXPECT_FALSE(r.failure_reason.empty());
  // Everything pushed so far was for nothing — both hosts' transfer
  // energy is wasted.
  EXPECT_GT(r.total_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r.wasted_bytes, r.total_bytes);
  EXPECT_TRUE(r.times.well_formed());
  EXPECT_DOUBLE_EQ(r.times.te, r.times.me);  // no activation happened
  // The VM survived the failure, running on the source.
  EXPECT_NE(w.source->vm("mv"), nullptr);
  EXPECT_EQ(w.target->vm("mv"), nullptr);
  EXPECT_EQ(w.source->vm("mv")->state(), cloud::VmState::kRunning);
}

TEST(EngineFaults, NonLiveTransferLossResumesSuspendedVm) {
  World w;
  w.engine->set_fault_plan(plan_with(ConnectionLoss{FaultPhase::kTransfer, 5.0}));
  const MigrationRecord& r = w.migrate_mem(MigrationType::kNonLive);

  EXPECT_EQ(r.outcome, MigrationOutcome::kRolledBack);
  EXPECT_EQ(r.failure_phase, MigrationPhase::kTransfer);
  // Non-live: the VM was suspended the whole time; the abort resumes
  // it on the source and the outage counts as downtime.
  EXPECT_GT(r.downtime, 0.0);
  EXPECT_EQ(w.source->vm("mv")->state(), cloud::VmState::kRunning);
}

TEST(EngineFaults, InitiationLossAbortsBeforeAnyTransfer) {
  World w;
  w.engine->set_fault_plan(plan_with(ConnectionLoss{FaultPhase::kInitiation, 0.5}));
  const MigrationRecord& r = w.migrate_mem(MigrationType::kLive);

  EXPECT_EQ(r.outcome, MigrationOutcome::kRolledBack);
  EXPECT_EQ(r.failure_phase, MigrationPhase::kInitiation);
  EXPECT_DOUBLE_EQ(r.total_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r.wasted_bytes, 0.0);
  EXPECT_TRUE(r.times.well_formed());
  EXPECT_EQ(w.source->vm("mv")->state(), cloud::VmState::kRunning);
}

TEST(EngineFaults, PostCopyPullLossLosesTheVm) {
  // A generous offset lands the loss in the page-pull stage (the
  // handoff bundle is small); by then the VM runs on the target only,
  // so the loss costs a restart there instead of a rollback.
  World w;
  w.engine->set_fault_plan(plan_with(ConnectionLoss{FaultPhase::kTransfer, 10.0}));
  const MigrationRecord& r = w.migrate_mem(MigrationType::kPostCopy);

  EXPECT_EQ(r.outcome, MigrationOutcome::kVmLost);
  EXPECT_EQ(r.failure_phase, MigrationPhase::kTransfer);
  EXPECT_DOUBLE_EQ(r.wasted_bytes, r.total_bytes);
  // The VM rebooted on the target after postcopy_restart_duration.
  EXPECT_GE(r.downtime, w.engine->config().postcopy_restart_duration);
  EXPECT_EQ(w.source->vm("mv"), nullptr);
  ASSERT_NE(w.target->vm("mv"), nullptr);
  EXPECT_EQ(w.target->vm("mv")->state(), cloud::VmState::kRunning);
}

TEST(EngineFaults, LossDuringActivationIsIgnored) {
  // First learn when the transfer ends on the fault-free trajectory,
  // then re-run with an absolute loss inside the activation window:
  // the target already holds the full state, so the migration must
  // still complete.
  World probe;
  const MigrationRecord clean = probe.migrate_mem(MigrationType::kLive);
  ASSERT_LT(clean.times.te, clean.times.me);
  const double mid_activation = 0.5 * (clean.times.te + clean.times.me);

  World w;
  w.engine->set_fault_plan(plan_with(ConnectionLoss{FaultPhase::kAny, mid_activation}));
  const MigrationRecord& r = w.migrate_mem(MigrationType::kLive);
  EXPECT_EQ(r.outcome, MigrationOutcome::kCompleted);
  EXPECT_EQ(w.target->vm("mv")->state(), cloud::VmState::kRunning);
}

TEST(EngineFaults, CompletedRecordHasCleanFailureFields) {
  World w;
  const MigrationRecord& r = w.migrate_mem(MigrationType::kLive);
  EXPECT_EQ(r.outcome, MigrationOutcome::kCompleted);
  EXPECT_EQ(r.failure_phase, MigrationPhase::kNormal);
  EXPECT_TRUE(r.failure_reason.empty());
  EXPECT_DOUBLE_EQ(r.wasted_bytes, 0.0);
}

TEST(EngineFaults, DegradedLinkSlowsTheTransfer) {
  World baseline;
  const double clean = baseline.migrate_mem(MigrationType::kNonLive).times.transfer_duration();

  World degraded;
  auto plan = std::make_shared<FaultPlan>();
  plan->add(LinkDegradation{0.0, 1e6, 0.25});
  degraded.engine->set_fault_plan(plan);
  const double slow = degraded.migrate_mem(MigrationType::kNonLive).times.transfer_duration();
  // A quarter of the capacity should cost roughly 4x the time (the
  // CPU-coupled model bends this a little, hence the loose bound).
  EXPECT_GT(slow, 2.0 * clean);
}

TEST(EngineFaults, OverloadSpikeSlowsTheTransfer) {
  World baseline;
  const double clean = baseline.migrate_mem(MigrationType::kNonLive).times.transfer_duration();

  World overloaded;
  auto plan = std::make_shared<FaultPlan>();
  plan->add(HostOverload{"src", 0.0, 1e6, 30.0});  // nearly saturate dom-0's host
  overloaded.engine->set_fault_plan(plan);
  const double slow =
      overloaded.migrate_mem(MigrationType::kNonLive).times.transfer_duration();
  EXPECT_GT(slow, clean);
}

TEST(EngineFaults, FaultedRunIsDeterministic) {
  FaultPlanOptions opts;
  opts.horizon = 600.0;
  opts.stalls = 3;
  opts.degradations = 3;
  const auto plan = std::make_shared<FaultPlan>(FaultPlan::random(opts, 7));

  auto run = [&plan] {
    World w;
    w.engine->set_fault_plan(plan);
    return w.migrate_mem(MigrationType::kLive);
  };
  const MigrationRecord a = run();
  const MigrationRecord b = run();
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_DOUBLE_EQ(a.times.me, b.times.me);
  EXPECT_DOUBLE_EQ(a.total_bytes, b.total_bytes);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].bytes, b.rounds[i].bytes);
    EXPECT_DOUBLE_EQ(a.rounds[i].duration, b.rounds[i].duration);
  }
}

// --- fleet-level retry semantics ---------------------------------------

TEST(DcSimFaults, FailedMigrationsAreCountedAndRetried) {
  // Saturate the run with absolute-time connection losses so some
  // consolidation migrations fail; the simulation must account them
  // and retry rolled-back moves within the bounded budget.
  auto plan = std::make_shared<FaultPlan>();
  for (double t = 0.0; t < 4.0 * 3600.0; t += 90.0) {
    plan->add(ConnectionLoss{FaultPhase::kAny, t});
  }

  core::Wavm3Model model;
  model.fit(wavm3::testing::fast_campaign_m().dataset);

  dcsim::DcSimConfig cfg = dcsim::make_fleet_scenario(4, 12, 99);
  cfg.duration = 4.0 * 3600.0;
  cfg.strategy = dcsim::Strategy::kCostBlind;
  cfg.faults = plan;
  dcsim::DataCenterSimulation sim(cfg, &model);
  const dcsim::DcSimReport r = sim.run();

  EXPECT_GT(r.migrations_failed, 0);
  EXPECT_GT(r.wasted_migration_bytes, 0.0);
  // Every retry is provoked by exactly one rolled-back failure.
  EXPECT_LE(r.migrations_retried, r.migrations_failed);

  // Same config, same faults -> identical report.
  dcsim::DataCenterSimulation again(cfg, &model);
  const dcsim::DcSimReport r2 = again.run();
  EXPECT_EQ(r.migrations_failed, r2.migrations_failed);
  EXPECT_EQ(r.migrations_retried, r2.migrations_retried);
  EXPECT_DOUBLE_EQ(r.wasted_migration_bytes, r2.wasted_migration_bytes);
  EXPECT_DOUBLE_EQ(r.total_energy_joules, r2.total_energy_joules);
  EXPECT_EQ(r.invariant_violations, 0);
}

TEST(DcSimFaults, RetriesAreCappedPerMigrationWithCauseAttribution) {
  // A transfer-phase loss re-arms for every attempt, so every plan
  // migration fails every time: each move must burn exactly its retry
  // budget and then be dropped as exhausted — never retried forever.
  auto plan = std::make_shared<FaultPlan>();
  plan->add(ConnectionLoss{FaultPhase::kTransfer, 5.0});

  core::Wavm3Model model;
  model.fit(wavm3::testing::fast_campaign_m().dataset);

  dcsim::DcSimConfig cfg = dcsim::make_fleet_scenario(4, 12, 99);
  cfg.duration = 4.0 * 3600.0;
  cfg.strategy = dcsim::Strategy::kCostBlind;
  cfg.faults = plan;
  dcsim::DataCenterSimulation sim(cfg, &model);
  const dcsim::DcSimReport r = sim.run();

  EXPECT_EQ(r.migrations_executed, 0);
  ASSERT_GT(r.migrations_failed, 0);
  ASSERT_GT(r.migration_retries_exhausted, 0);
  // Every exhausted plan move consumed its full budget, no more (the
  // run drains retries still pending at the horizon before reporting).
  EXPECT_EQ(r.migrations_retried,
            (chaos::ReplanConfig{}.retry_budget - 1) * r.migration_retries_exhausted);
  // Per-cause attribution: every failure here is a rollback.
  ASSERT_EQ(r.migration_failures_by_cause.count("rolled-back"), 1u);
  EXPECT_EQ(r.migration_failures_by_cause.at("rolled-back"), r.migrations_failed);
  EXPECT_EQ(r.migration_failures_by_cause.count("vm-lost"), 0u);
  EXPECT_EQ(r.invariant_violations, 0);
}

TEST(DcSimFaults, LostVmsAreCountedButNeverRetried) {
  // Under post-copy, a transfer-phase loss with a generous offset lands
  // in the pull stage: the VM restarts on the target (kVmLost). The
  // fleet executor must count the failure under its own cause and must
  // NOT retry — the VM is no longer on the source.
  auto plan = std::make_shared<FaultPlan>();
  plan->add(ConnectionLoss{FaultPhase::kTransfer, 10.0});

  core::Wavm3Model model;
  model.fit(wavm3::testing::fast_campaign_m().dataset);

  dcsim::DcSimConfig cfg = dcsim::make_fleet_scenario(4, 12, 99);
  cfg.duration = 4.0 * 3600.0;
  cfg.strategy = dcsim::Strategy::kCostBlind;
  cfg.policy.migration_type = MigrationType::kPostCopy;
  cfg.faults = plan;
  dcsim::DataCenterSimulation sim(cfg, &model);
  const dcsim::DcSimReport r = sim.run();

  ASSERT_GT(r.migrations_failed, 0);
  ASSERT_EQ(r.migration_failures_by_cause.count("vm-lost"), 1u);
  EXPECT_EQ(r.migration_failures_by_cause.at("vm-lost"), r.migrations_failed);
  EXPECT_EQ(r.migrations_retried, 0);
  EXPECT_EQ(r.migration_retries_exhausted, 0);
  EXPECT_EQ(r.invariant_violations, 0);
}

}  // namespace
}  // namespace wavm3::faults
