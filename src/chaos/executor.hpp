// Chaos-hardened plan -> execute -> replan loop: the WaveExecutor runs
// each planner wave through the event-driven migration engine under a
// deterministic per-wave fault storm and commits back into the fleet
// only the migrations that *actually* completed. Relief, retries,
// degraded mode, the energy ledger and the audit are ClosedLoop's
// rules (closed_loop.hpp), which dcsim's controller runs too; the
// executor adds the storm, the cells, per-host re-serialisation, the
// wave deadline, donor power-off and chaos_* metrics.
//
// Each attempt runs in its own two-host simulation cell (source and
// target with the migrating VM plus an aggregate background-load VM
// each, the pair's link, an engine fed the storm) on a wave-absolute
// clock, so a storm event at time T hits exactly the attempts in flight
// at T. Attempts are serialised per host under max_concurrent_migrations
// on their actual durations. With faults disabled the committed outcome
// is identical to MigrationPlanner::plan_wave(commit=true).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chaos/closed_loop.hpp"
#include "faults/fault_plan.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"

namespace wavm3::chaos {

/// Deterministic per-wave fault storm shape. `level` scales every
/// event class linearly; level 0 is a calm network. Storms use only
/// absolute-time events (a phase-bound connection loss re-arms for
/// every migration and would deterministically abort the whole wave).
struct StormOptions {
  int level = 1;
  int losses_per_level = 3;        ///< absolute-time connection losses
  int degradations_per_level = 2;
  int stalls_per_level = 2;
  int flaps_per_level = 1;
};

/// Builds wave `wave`'s storm: FaultPlan::random events plus extra
/// connection losses, all shifted into [wave_start_s, wave_start_s +
/// horizon_s). Deterministic in (options, seed, wave).
faults::FaultPlan make_storm(const StormOptions& options, std::uint64_t seed, int wave,
                             double wave_start_s, double horizon_s);

struct ChaosConfig {
  plan::PlannerConfig planner;
  ReplanConfig replan;
  StormOptions storm;
  std::uint64_t storm_seed = 2015;
  bool faults_enabled = true;
  /// Emergency shedding for hosts over the policy's overload fraction
  /// (plan::relief_moves). Off = planner waves and retries only.
  bool relief_enabled = true;
  /// Wall time between wave openings (the closed-loop cadence).
  double wave_gap_s = 7200.0;
  int max_waves = 16;
};

/// Whole-run summary.
struct ChaosReport {
  std::vector<WaveOutcome> waves;
  int moves_planned = 0;       ///< unique ledger entries
  int resolved_placed = 0;     ///< completed + vm-lost
  int resolved_replanned = 0;  ///< deferred / invalidated / superseded retries
  int unresolved = 0;          ///< shed + still pending at exit
  /// (resolved_placed + resolved_replanned) / moves_planned — the
  /// bench gate's "eventually completed or successfully re-planned".
  double resolution_fraction = 1.0;
  int invariant_violations = 0;
  bool terminal = false;       ///< reached quiescence before max_waves
  LedgerSnapshot ledger;
};

/// Closed-loop wave executor. Stateful across waves (ledger, retry
/// queue, degraded mode); one executor drives one fleet's run.
class WaveExecutor {
 public:
  /// `model` must outlive the executor and be fitted for the policy's
  /// migration type.
  WaveExecutor(const core::Wavm3Model& model, ChaosConfig config = {});

  const ChaosConfig& config() const { return config_; }
  const ReplanPolicy& policy() const { return loop_.policy(); }
  const std::vector<TrackedMove>& ledger() const { return loop_.ledger(); }

  /// Runs up to config.max_waves closed-loop waves over `fleet`,
  /// opening wave w at start_now + w * wave_gap_s. Stops early at
  /// quiescence (nothing planned, nothing pending, nothing relieved).
  ChaosReport run(plan::Fleet& fleet, const plan::PlacementStrategy& strategy,
                  double start_now = 0.0);

  /// Executes a single wave (exposed for tests; run() loops this).
  WaveOutcome run_wave(plan::Fleet& fleet, const plan::PlacementStrategy& strategy, int wave,
                      double now);

 private:
  ChaosConfig config_;
  plan::MigrationPlanner planner_;
  ClosedLoop loop_;  ///< relief, retry, ledger and audit rules
};

}  // namespace wavm3::chaos
