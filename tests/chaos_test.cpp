// src/chaos/: replan policy (deadlines, bounded retries with backoff,
// degraded mode), fleet invariant checking, storm determinism, and the
// closed-loop wave executor — including the happy-path parity pin
// against the direct MigrationPlanner commit path and convergence
// under a seeded fault storm.
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/executor.hpp"
#include "chaos/invariants.hpp"
#include "chaos/replan.hpp"
#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "plan/fleet.hpp"
#include "plan/strategy.hpp"
#include "util/error.hpp"

namespace wavm3::chaos {
namespace {

using migration::MigrationType;

core::Wavm3Model make_model() {
  core::Wavm3Model m;
  for (const MigrationType type :
       {MigrationType::kNonLive, MigrationType::kLive, MigrationType::kPostCopy}) {
    const double t = type == MigrationType::kLive ? 1.0 : 0.7;
    core::Wavm3Coefficients table;
    table.source.initiation = {2.1 * t, 1.3, 0.0, 0.0, 210.0};
    table.source.transfer = {2.4 * t, 1.1e-7, 55.0, 1.9, 205.0};
    table.source.activation = {2.2 * t, 1.2, 0.0, 0.0, 208.0};
    table.target.initiation = {1.9 * t, 0.8, 0.0, 0.0, 200.0};
    table.target.transfer = {2.0 * t, 0.9e-7, 12.0, 0.7, 198.0};
    table.target.activation = {2.1 * t, 1.0, 0.0, 0.0, 202.0};
    m.set_coefficients(type, table);
  }
  return m;
}

// ---------------------------------------------------------------- policy

TEST(ReplanPolicy, ValidatesConfig) {
  ReplanConfig bad;
  bad.retry_budget = 0;
  EXPECT_THROW(ReplanPolicy{bad}, util::ContractError);
  bad = {};
  bad.recovery_failure_rate = 0.8;  // >= degraded rate
  EXPECT_THROW(ReplanPolicy{bad}, util::ContractError);
  bad = {};
  bad.max_backoff_waves = 0;
  EXPECT_THROW(ReplanPolicy{bad}, util::ContractError);
  bad = {};
  bad.degraded_width_factor = 0.0;
  EXPECT_THROW(ReplanPolicy{bad}, util::ContractError);
}

TEST(ReplanPolicy, BackoffDoublesPerFailureAndCaps) {
  ReplanConfig cfg;
  cfg.retry_budget = 5;
  cfg.backoff_base_waves = 1;
  cfg.max_backoff_waves = 4;
  const ReplanPolicy policy(cfg);

  TrackedMove mv;
  mv.attempts = 1;  // first failure
  EXPECT_TRUE(policy.arm_retry(mv, 10));
  EXPECT_EQ(mv.eligible_wave, 11);  // base backoff
  mv.attempts = 2;
  EXPECT_TRUE(policy.arm_retry(mv, 11));
  EXPECT_EQ(mv.eligible_wave, 13);  // doubled
  mv.attempts = 3;
  EXPECT_TRUE(policy.arm_retry(mv, 13));
  EXPECT_EQ(mv.eligible_wave, 17);  // doubled again, hits the cap
  mv.attempts = 4;
  EXPECT_TRUE(policy.arm_retry(mv, 17));
  EXPECT_EQ(mv.eligible_wave, 21);  // capped at max_backoff_waves
  mv.attempts = 5;                  // budget exhausted
  EXPECT_FALSE(policy.arm_retry(mv, 21));
}

TEST(ReplanPolicy, DegradedModeEngagesAndReleasesWithHysteresis) {
  ReplanConfig cfg;
  cfg.rolling_window = 8;
  cfg.degraded_failure_rate = 0.5;
  cfg.recovery_failure_rate = 0.25;
  ReplanPolicy policy(cfg);

  EXPECT_FALSE(policy.degraded());
  // 3 failures in 8 executions: 0.375 < 0.5, still healthy.
  for (int i = 0; i < 5; ++i) policy.record_execution(true);
  for (int i = 0; i < 3; ++i) policy.record_execution(false);
  EXPECT_FALSE(policy.degraded());
  // One more failure pushes the window to 0.5: degraded.
  policy.record_execution(false);
  EXPECT_TRUE(policy.degraded());
  // Recovery needs the rate back down to 0.25, not merely below 0.5
  // (hysteresis): after five successes the rate is 0.375 — under the
  // engage threshold but still degraded.
  for (int i = 0; i < 5; ++i) policy.record_execution(true);
  EXPECT_NEAR(policy.failure_rate(), 3.0 / 8.0, 1e-12);
  EXPECT_TRUE(policy.degraded());
  // The sixth success reaches the recovery rate and releases.
  policy.record_execution(true);
  EXPECT_NEAR(policy.failure_rate(), 2.0 / 8.0, 1e-12);
  EXPECT_FALSE(policy.degraded());
}

TEST(ReplanPolicy, DegradedModeShrinksWaveWidth) {
  ReplanConfig cfg;
  cfg.rolling_window = 4;
  cfg.degraded_width_factor = 0.5;
  cfg.min_wave_moves = 2;
  ReplanPolicy policy(cfg);

  EXPECT_EQ(policy.admitted_width(10), 10u);  // healthy: everything
  for (int i = 0; i < 4; ++i) policy.record_execution(false);
  ASSERT_TRUE(policy.degraded());
  EXPECT_EQ(policy.admitted_width(10), 5u);
  EXPECT_EQ(policy.admitted_width(3), 2u);  // floored at min_wave_moves
  EXPECT_EQ(policy.admitted_width(1), 1u);  // never above what was planned
  EXPECT_EQ(policy.admitted_width(0), 0u);
}

// ------------------------------------------------------------ invariants

TrackedMove tracked(int id, int vm, int source, int target, MoveResolution r,
                    int resolved_wave) {
  TrackedMove mv;
  mv.id = id;
  mv.move.vm = vm;
  mv.move.source = source;
  mv.move.target = target;
  mv.move.energy_j = 100.0;
  mv.resolution = r;
  mv.resolved_wave = resolved_wave;
  return mv;
}

TEST(FleetInvariantChecker, CleanFleetPasses) {
  const plan::Fleet fleet = plan::Fleet::synthetic(6, 24, 5);
  const FleetInvariantChecker checker;
  EXPECT_TRUE(checker.check(fleet, {}, {}, LedgerSnapshot{}).empty());
}

TEST(FleetInvariantChecker, DetectsEnergyLedgerLeak) {
  const plan::Fleet fleet = plan::Fleet::synthetic(4, 8, 5);
  const FleetInvariantChecker checker;
  LedgerSnapshot totals;
  totals.planned_j = 10.0;
  totals.committed_j = 1.0;  // 9 J leaked
  const auto violations = checker.check(fleet, {}, {}, totals);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].check, "energy-ledger");

  totals.refunded_j = 9.0;  // balanced again
  EXPECT_TRUE(checker.check(fleet, {}, {}, totals).empty());

  totals.wasted_j = -1.0;  // negative waste is impossible
  EXPECT_FALSE(checker.check(fleet, {}, {}, totals).empty());
}

TEST(FleetInvariantChecker, DetectsOwnershipViolations) {
  const plan::Fleet fleet = plan::Fleet::synthetic(4, 8, 5);
  const FleetInvariantChecker checker;
  const int vm = 0;
  const int home = fleet.vm(vm).host;

  // Two pending entries owning the same VM.
  std::vector<TrackedMove> ledger;
  ledger.push_back(tracked(0, vm, home, (home + 1) % 4, MoveResolution::kPending, -1));
  ledger.push_back(tracked(1, vm, home, (home + 2) % 4, MoveResolution::kPending, -1));
  LedgerSnapshot totals;
  totals.planned_j = 200.0;
  totals.outstanding_j = 200.0;
  auto violations = checker.check(fleet, ledger, {}, totals);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].check, "ownership");

  // A pending entry whose VM drifted off its source.
  ledger.clear();
  ledger.push_back(tracked(0, vm, (home + 1) % 4, home, MoveResolution::kPending, -1));
  violations = checker.check(fleet, ledger, {}, totals);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].check, "ownership");
}

TEST(FleetInvariantChecker, ShedAndPlacedConflictIsPerWave) {
  const plan::Fleet fleet = plan::Fleet::synthetic(4, 8, 5);
  const FleetInvariantChecker checker;
  const int vm = 2;
  const int home = fleet.vm(vm).host;
  LedgerSnapshot totals;
  totals.planned_j = 200.0;
  totals.committed_j = 100.0;
  totals.refunded_j = 100.0;

  // Shed and placed in the SAME wave: the VM was declared lost to the
  // plan and simultaneously landed — a contradiction.
  std::vector<TrackedMove> ledger;
  ledger.push_back(tracked(0, vm, home, (home + 1) % 4, MoveResolution::kShed, 3));
  ledger.push_back(tracked(1, vm, (home + 1) % 4, home, MoveResolution::kCompleted, 3));
  auto violations = checker.check(fleet, ledger, {}, totals);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].check, "ownership");

  // Across waves the sequence is legitimate recovery: shed in wave 3,
  // re-planned and landed in wave 5.
  ledger[1].resolved_wave = 5;
  EXPECT_TRUE(checker.check(fleet, ledger, {}, totals).empty());
}

TEST(FleetInvariantChecker, DetectsConcurrencyCapBreach) {
  // Synthetic hosts allow one concurrent migration.
  const plan::Fleet fleet = plan::Fleet::synthetic(4, 8, 5);
  ASSERT_EQ(fleet.host(0).spec.max_concurrent_migrations, 1);
  const FleetInvariantChecker checker;

  std::vector<ExecutedInterval> intervals{{0, 0.0, 100.0}, {0, 50.0, 150.0}};
  auto violations = checker.check(fleet, {}, intervals, LedgerSnapshot{});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].check, "concurrency");

  // Back-to-back intervals are legal under a cap of one.
  intervals = {{0, 0.0, 100.0}, {0, 100.0, 200.0}};
  EXPECT_TRUE(checker.check(fleet, {}, intervals, LedgerSnapshot{}).empty());
}

// ---------------------------------------------------------------- storms

/// True when `plan` schedules no fault of any kind.
bool no_faults(const faults::FaultPlan& plan) {
  return plan.connection_losses().empty() && plan.degradations().empty() &&
         plan.flaps().empty() && plan.stalls().empty() && plan.overloads().empty();
}

TEST(MakeStorm, DeterministicPerWaveAndWindowed) {
  StormOptions opts;
  opts.level = 2;
  const double start = 7200.0;
  const double horizon = 3600.0;
  const faults::FaultPlan a = make_storm(opts, 7, 3, start, horizon);
  const faults::FaultPlan b = make_storm(opts, 7, 3, start, horizon);
  const faults::FaultPlan other_wave = make_storm(opts, 7, 4, start, horizon);

  ASSERT_EQ(a.connection_losses().size(),
            static_cast<std::size_t>(opts.level * opts.losses_per_level));
  ASSERT_EQ(a.connection_losses().size(), b.connection_losses().size());
  bool differs = a.connection_losses().size() != other_wave.connection_losses().size();
  for (std::size_t i = 0; i < a.connection_losses().size(); ++i) {
    // Same (options, seed, wave) -> identical storm; losses are
    // absolute-time events inside the wave window.
    EXPECT_DOUBLE_EQ(a.connection_losses()[i].at, b.connection_losses()[i].at);
    EXPECT_EQ(a.connection_losses()[i].phase, faults::FaultPhase::kAny);
    EXPECT_GE(a.connection_losses()[i].at, start);
    EXPECT_LT(a.connection_losses()[i].at, start + horizon);
    if (i < other_wave.connection_losses().size() &&
        a.connection_losses()[i].at != other_wave.connection_losses()[i].at) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(a.degradations().size(),
            static_cast<std::size_t>(opts.level * opts.degradations_per_level));
  for (const faults::LinkDegradation& d : a.degradations()) {
    EXPECT_GE(d.start, start);
  }
  // Level 0 is a calm network.
  StormOptions calm;
  calm.level = 0;
  EXPECT_TRUE(no_faults(make_storm(calm, 7, 3, start, horizon)));
}

// -------------------------------------------------------------- executor

ChaosConfig quiet_config() {
  ChaosConfig cfg;
  cfg.planner.wave_horizon_s = 2.0 * 7200.0;
  cfg.faults_enabled = false;
  cfg.relief_enabled = false;
  // A generous deadline so realised (vs predicted) durations never
  // push a clean-path move over the line.
  cfg.replan.wave_deadline_s = 1e9;
  return cfg;
}

TEST(WaveExecutor, FaultFreeRunMatchesDirectPlannerCommit) {
  const core::Wavm3Model model = make_model();
  const plan::BeamSearchStrategy beam;
  const double now = plan::SyntheticFleetOptions{}.history_s;

  plan::Fleet chaos_fleet = plan::Fleet::synthetic(16, 64, 23);
  plan::Fleet direct_fleet = plan::Fleet::synthetic(16, 64, 23);

  ChaosConfig cfg = quiet_config();
  WaveExecutor executor(model, cfg);
  const ChaosReport report = executor.run(chaos_fleet, beam, now);

  // Replay the same cadence through the direct planner-commit path.
  plan::MigrationPlanner planner(model, cfg.planner);
  double direct_energy = 0.0;
  int direct_moves = 0;
  for (std::size_t w = 0; w < report.waves.size(); ++w) {
    const plan::WavePlan plan = planner.plan_wave(
        direct_fleet, beam, now + static_cast<double>(w) * cfg.wave_gap_s, /*commit=*/true);
    direct_energy += plan.total_migration_energy_j;
    direct_moves += static_cast<int>(plan.moves.size());
  }

  // With faults disabled every attempt completes: identical placements,
  // identical powered set, committed energy equal to the planner's
  // predicted wave totals within float reassociation.
  ASSERT_GT(report.moves_planned, 0);
  EXPECT_TRUE(report.terminal);
  EXPECT_EQ(report.moves_planned, direct_moves);
  EXPECT_EQ(report.resolved_placed, direct_moves);
  EXPECT_EQ(report.unresolved, 0);
  EXPECT_DOUBLE_EQ(report.resolution_fraction, 1.0);
  EXPECT_EQ(report.invariant_violations, 0);
  EXPECT_NEAR(report.ledger.committed_j, direct_energy,
              1e-9 * std::max(1.0, std::abs(direct_energy)));
  EXPECT_DOUBLE_EQ(report.ledger.refunded_j, 0.0);
  EXPECT_DOUBLE_EQ(report.ledger.wasted_j, 0.0);
  for (std::size_t v = 0; v < chaos_fleet.vm_count(); ++v) {
    EXPECT_EQ(chaos_fleet.vm(static_cast<int>(v)).host,
              direct_fleet.vm(static_cast<int>(v)).host)
        << "VM " << v;
  }
  for (std::size_t h = 0; h < chaos_fleet.host_count(); ++h) {
    EXPECT_EQ(chaos_fleet.host(static_cast<int>(h)).powered_on,
              direct_fleet.host(static_cast<int>(h)).powered_on)
        << "host " << h;
  }
}

TEST(WaveExecutor, ConvergesUnderSeededStorm) {
  const core::Wavm3Model model = make_model();
  const plan::BeamSearchStrategy beam;
  const double now = plan::SyntheticFleetOptions{}.history_s;
  plan::Fleet fleet = plan::Fleet::synthetic(16, 64, 23);

  ChaosConfig cfg;
  cfg.planner.wave_horizon_s = 2.0 * 7200.0;
  cfg.storm.level = 2;
  cfg.storm_seed = 2015;
  cfg.max_waves = 16;
  WaveExecutor executor(model, cfg);
  const ChaosReport report = executor.run(fleet, beam, now);

  // Bounded convergence: the run reaches quiescence before the wave
  // cap, resolves (places or replans) nearly everything, and never
  // violates a fleet invariant along the way.
  ASSERT_GT(report.moves_planned, 0);
  EXPECT_TRUE(report.terminal);
  EXPECT_LT(report.waves.size(), static_cast<std::size_t>(cfg.max_waves));
  EXPECT_GE(report.resolution_fraction, 0.95);
  EXPECT_EQ(report.invariant_violations, 0);
  // The ledger is conserved at the end too.
  const double residual = report.ledger.planned_j - report.ledger.committed_j -
                          report.ledger.refunded_j - report.ledger.outstanding_j;
  EXPECT_NEAR(residual, 0.0, 1e-9 * std::max(1.0, report.ledger.planned_j));
  EXPECT_GE(report.ledger.wasted_j, 0.0);

  // Deterministic replay: the same seed reproduces the run wave for
  // wave.
  plan::Fleet fleet2 = plan::Fleet::synthetic(16, 64, 23);
  WaveExecutor executor2(model, cfg);
  const ChaosReport replay = executor2.run(fleet2, beam, now);
  ASSERT_EQ(replay.waves.size(), report.waves.size());
  for (std::size_t w = 0; w < report.waves.size(); ++w) {
    EXPECT_EQ(replay.waves[w].executed, report.waves[w].executed) << "wave " << w;
    EXPECT_EQ(replay.waves[w].completed, report.waves[w].completed) << "wave " << w;
    EXPECT_EQ(replay.waves[w].rolled_back, report.waves[w].rolled_back) << "wave " << w;
  }
  EXPECT_DOUBLE_EQ(replay.ledger.committed_j, report.ledger.committed_j);
  for (std::size_t v = 0; v < fleet.vm_count(); ++v) {
    EXPECT_EQ(fleet.vm(static_cast<int>(v)).host, fleet2.vm(static_cast<int>(v)).host);
  }
}

TEST(WaveExecutor, StretchedAttemptsNeverDoubleBookAHost) {
  // Under the level-3 storm an attempt can run far past its planned
  // end. Slotted into a gap before a move already placed later on the
  // same host, it used to overrun that move (256 hosts, seeds 11, 15
  // and 16 each breached a concurrency cap of 1).
  const core::Wavm3Model model = make_model();
  const plan::BeamSearchStrategy beam;
  const double now = plan::SyntheticFleetOptions{}.history_s;
  for (const std::uint64_t seed : {11u, 15u, 16u}) {
    plan::Fleet fleet = plan::Fleet::synthetic(256, 2560, seed);
    ChaosConfig cfg;
    cfg.storm.level = 3;
    cfg.storm_seed = seed;
    WaveExecutor executor(model, cfg);
    const ChaosReport report = executor.run(fleet, beam, now);
    ASSERT_GT(report.moves_planned, 0) << "seed " << seed;
    EXPECT_EQ(report.invariant_violations, 0) << "seed " << seed;
  }
}

TEST(WaveExecutor, StormFailuresAreRetriedWithinBudgetOrShed) {
  const core::Wavm3Model model = make_model();
  const plan::BeamSearchStrategy beam;
  const double now = plan::SyntheticFleetOptions{}.history_s;
  plan::Fleet fleet = plan::Fleet::synthetic(16, 64, 23);

  ChaosConfig cfg;
  cfg.planner.wave_horizon_s = 2.0 * 7200.0;
  // Rough weather: cram many losses into a short execution window so a
  // large share of attempts get hit mid-flight.
  cfg.replan.wave_deadline_s = 3600.0;
  cfg.storm.level = 8;
  cfg.storm.losses_per_level = 8;
  cfg.storm_seed = 2015;
  cfg.max_waves = 16;
  WaveExecutor executor(model, cfg);
  const ChaosReport report = executor.run(fleet, beam, now);

  int rolled_back = 0;
  int retried = 0;
  for (const WaveOutcome& w : report.waves) {
    rolled_back += w.rolled_back;
    retried += w.retries_attempted;
  }
  ASSERT_GT(rolled_back, 0) << "storm produced no failures; raise the level";
  EXPECT_GT(retried, 0);
  EXPECT_EQ(report.invariant_violations, 0);
  // No tracked move ever exceeds its retry budget, and every resolved
  // move carries the wave it resolved in.
  for (const TrackedMove& mv : executor.ledger()) {
    EXPECT_LE(mv.attempts, cfg.replan.retry_budget);
    if (mv.resolution != MoveResolution::kPending) {
      EXPECT_GE(mv.resolved_wave, 0);
    }
  }
  // Wasted energy was metered for the failed attempts.
  EXPECT_GT(report.ledger.wasted_j, 0.0);
}

TEST(WaveExecutor, ReliefShedsOverloadedHostsUnderTheLine) {
  const core::Wavm3Model model = make_model();
  const plan::BeamSearchStrategy beam;

  // Hand-build a fleet with one severely overloaded host and idle
  // receivers: only overload relief can produce moves here (no
  // underloaded donor has anywhere cheaper to go).
  plan::Fleet fleet;
  for (int h = 0; h < 4; ++h) {
    cloud::HostSpec spec;
    spec.name = "host" + std::to_string(h);
    spec.vcpus = 8;
    spec.ram_bytes = 64.0 * 1024 * 1024 * 1024;
    spec.max_concurrent_migrations = 4;
    fleet.add_host(spec);
  }
  for (int v = 0; v < 6; ++v) {
    plan::FleetVm vm;
    vm.id = "vm" + std::to_string(v);
    vm.vcpus = 4.0;
    vm.ram_bytes = 2.0 * 1024 * 1024 * 1024;
    vm.working_set_pages = 50000;
    vm.history.t = {0.0, 1000.0};
    vm.history.cpu = {2.0, 2.0};  // 6 VMs x 2 vCPU = 12 > 8 * 0.9
    vm.history.dirty = {4000.0, 4000.0};
    fleet.add_vm(vm, 0);
  }

  ChaosConfig cfg;
  cfg.faults_enabled = false;
  cfg.relief_enabled = true;
  cfg.max_waves = 4;
  const double now = 1000.0;
  // The fleet as relief sees it at the wave boundary.
  plan::Fleet before = fleet;
  before.refresh_loads(now, cfg.planner.load_window_s);
  WaveExecutor executor(model, cfg);
  const WaveOutcome wave = executor.run_wave(fleet, beam, 0, now);

  EXPECT_EQ(wave.overloaded_hosts, 1);
  ASSERT_GT(wave.relief_moves, 0);
  EXPECT_EQ(wave.completed, wave.executed);
  EXPECT_TRUE(wave.violations.empty());
  // The overloaded host is back under the policy's overload fraction.
  const plan::FleetHost& relieved = fleet.host(0);
  EXPECT_LE(relieved.cpu_load / relieved.spec.vcpus,
            cfg.planner.policy.overload_fraction + 1e-9);
  // Relief moves are real ledger entries with committed energy, priced
  // bit-exactly like planner candidates.
  EXPECT_GT(wave.ledger.committed_j, 0.0);
  const core::MigrationPlanner forecaster(model);
  for (const TrackedMove& mv : executor.ledger()) {
    EXPECT_TRUE(mv.relief);
    const core::MigrationForecast expect = forecaster.forecast(
        plan::move_scenario(before, mv.move.vm, mv.move.source, mv.move.target, cfg.planner));
    EXPECT_EQ(mv.move.energy_j, expect.total_energy()) << "vm " << mv.move.vm;
    EXPECT_EQ(mv.move.downtime_s, expect.downtime) << "vm " << mv.move.vm;
    EXPECT_EQ(mv.move.end_s, now + expect.times.me) << "vm " << mv.move.vm;
  }
}

TEST(WaveExecutor, ReliefWakesAStandbyHostWhenNoRunningHostFits) {
  const core::Wavm3Model model = make_model();
  const plan::BeamSearchStrategy beam;

  // host0 carries 12 vCPUs of demand (line: 0.9 * 8 = 7.2); host1 runs
  // 7 vCPUs, so no 2-vCPU VM fits under its line; host2 is powered off.
  // The only feasible receiver is the standby host.
  plan::Fleet fleet;
  for (int h = 0; h < 3; ++h) {
    cloud::HostSpec spec;
    spec.name = "host" + std::to_string(h);
    spec.vcpus = 8;
    spec.ram_bytes = 64.0 * 1024 * 1024 * 1024;
    spec.max_concurrent_migrations = 4;
    fleet.add_host(spec);
  }
  const auto add_vm = [&](const std::string& id, double cpu, int host) {
    plan::FleetVm vm;
    vm.id = id;
    vm.vcpus = 4.0;
    vm.ram_bytes = 2.0 * 1024 * 1024 * 1024;
    vm.working_set_pages = 50000;
    vm.cpu_now = cpu;
    vm.dirty_now = 2000.0 * cpu;
    fleet.add_vm(vm, host);
  };
  for (int v = 0; v < 6; ++v) add_vm("hot" + std::to_string(v), 2.0, 0);
  for (int v = 0; v < 4; ++v) add_vm("busy" + std::to_string(v), 1.75, 1);
  fleet.set_powered(2, false);

  ChaosConfig cfg;
  cfg.faults_enabled = false;
  WaveExecutor executor(model, cfg);
  const WaveOutcome wave = executor.run_wave(fleet, beam, 0, 1000.0);

  // 12 -> 10 -> 8 -> 6 vCPUs: three VMs shed, all onto the woken host.
  EXPECT_EQ(wave.overloaded_hosts, 1);
  ASSERT_EQ(wave.relief_moves, 3);
  EXPECT_EQ(wave.completed, 3);
  EXPECT_TRUE(wave.violations.empty());
  EXPECT_TRUE(fleet.host(2).powered_on);
  EXPECT_EQ(fleet.host(2).vms.size(), 3u);
  EXPECT_EQ(fleet.host(1).vms.size(), 4u);
  EXPECT_LE(fleet.host(0).cpu_load, cfg.planner.policy.overload_fraction * 8.0);
  for (const TrackedMove& mv : executor.ledger()) {
    EXPECT_TRUE(mv.relief);
    EXPECT_EQ(mv.move.target, 2);
  }
}

TEST(WaveExecutor, PostCopyStormLossesLandVmsOnTarget) {
  // Under post-copy, a connection loss during the pull phase loses the
  // VM to a target-side restart (never a retry): the executor must
  // treat that as a placement, not re-migrate a VM that already moved.
  const core::Wavm3Model model = make_model();
  const plan::BeamSearchStrategy beam;
  const double now = plan::SyntheticFleetOptions{}.history_s;
  plan::Fleet fleet = plan::Fleet::synthetic(16, 64, 23);

  ChaosConfig cfg;
  cfg.planner.policy.migration_type = MigrationType::kPostCopy;
  cfg.planner.wave_horizon_s = 2.0 * 7200.0;
  cfg.storm.level = 6;
  cfg.storm.losses_per_level = 6;
  cfg.storm_seed = 11;
  cfg.max_waves = 16;
  WaveExecutor executor(model, cfg);
  const ChaosReport report = executor.run(fleet, beam, now);

  int vm_lost = 0;
  for (const WaveOutcome& w : report.waves) vm_lost += w.vm_lost;
  ASSERT_GT(vm_lost, 0) << "no pull-phase loss landed; adjust the storm";
  EXPECT_EQ(report.invariant_violations, 0);
  // A lost VM counts as *placed* (the engine restarted it on the
  // target) — never as a failure to retry: the loss ends the move's
  // life in the ledger at the wave it happened.
  EXPECT_GE(report.resolved_placed, vm_lost);
  for (const TrackedMove& mv : executor.ledger()) {
    if (mv.resolution == MoveResolution::kVmLost) {
      EXPECT_TRUE(is_placed(mv.resolution));
      EXPECT_GE(mv.resolved_wave, 0);
      EXPECT_LE(mv.attempts, cfg.replan.retry_budget);
    }
  }
}

}  // namespace
}  // namespace wavm3::chaos
