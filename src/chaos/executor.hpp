// Chaos-hardened plan -> execute -> replan loop.
//
// The datacenter planner (src/plan/) prices and schedules waves against
// a static Fleet snapshot and assumes clean execution. The WaveExecutor
// closes the loop: each wave's moves are run through the event-driven
// migration engine under a deterministic per-wave fault storm, and only
// the migrations that *actually* completed are committed back into the
// fleet — the live re-planning hook the ROADMAP calls for. Failures
// flow through the ReplanPolicy (deadlines, bounded retries with
// backoff across waves, degraded mode), hosts pushed over capacity by
// load drift or failed moves get emergency overload-relief waves priced
// by the planner's closed-form forecast, and every wave ends with a
// FleetInvariantChecker audit plus chaos_* metrics and spans.
//
// Execution model: moves are serialised per host under the fleet's
// max_concurrent_migrations caps (actual durations, not predicted
// ones), and each attempt runs in its own two-host simulation cell —
// source and target hosts carrying the migrating VM plus an aggregate
// background-load VM each, the pair's link, and a MigrationEngine fed
// the wave's storm. Cell clocks are wave-absolute, so a storm event at
// time T hits exactly the attempts in flight at T. With faults
// disabled every attempt completes and the committed outcome is
// identical to MigrationPlanner::plan_wave(commit=true) — the loop
// adds no cost on the happy path (pinned by test and bench).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "chaos/invariants.hpp"
#include "chaos/replan.hpp"
#include "faults/fault_plan.hpp"
#include "core/planner.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "stream/session.hpp"

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
  /// (raw demand, not the capped utilisation). Off = planner waves and
  /// retries only.
  bool relief_enabled = true;
  /// Wall time between wave openings (the closed-loop cadence).
  double wave_gap_s = 7200.0;
  int max_waves = 16;
  int max_relief_moves_per_wave = 64;
};

/// What one closed-loop wave did.
struct WaveOutcome {
  int wave = 0;
  double started_at_s = 0.0;
  int planned_moves = 0;       ///< fresh planner moves accepted into the ledger
  int dropped_degraded = 0;    ///< fresh moves cut by degraded wave width
  int superseded = 0;          ///< fresh moves dropped: VM owned by a pending retry
  int relief_moves = 0;        ///< overload-relief moves accepted
  int overloaded_hosts = 0;    ///< hosts over the overload fraction at wave start
  int retries_attempted = 0;   ///< carried moves re-executed this wave
  int executed = 0;            ///< migration attempts run
  int completed = 0;
  int rolled_back = 0;
  int vm_lost = 0;
  int deferred = 0;            ///< refunded: could not start before the deadline
  int invalidated = 0;         ///< refunded: fleet drifted under a pending retry
  int shed = 0;                ///< refunded: retry budget exhausted
  int live_aborted = 0;        ///< refunded: live degeneration abort (src/stream/)
  int hosts_powered_off = 0;
  bool degraded = false;       ///< policy in degraded mode after the wave
  LedgerSnapshot ledger;       ///< running totals after the wave
  std::vector<InvariantViolation> violations;
  double wave_seconds = 0.0;   ///< wall-clock time of the wave
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
  double wasted_attempts_j = 0.0;  ///< == ledger.wasted_j (convenience)
};

/// Closed-loop wave executor. Stateful across waves (ledger, retry
/// queue, degraded mode); one executor drives one fleet's run.
class WaveExecutor {
 public:
  /// `model` must outlive the executor and be fitted for the policy's
  /// migration type.
  WaveExecutor(const core::Wavm3Model& model, ChaosConfig config = {});

  const ChaosConfig& config() const { return config_; }
  const ReplanPolicy& policy() const { return policy_; }
  const std::vector<TrackedMove>& ledger() const { return ledger_; }

  /// Runs up to config.max_waves closed-loop waves over `fleet`,
  /// opening wave w at start_now + w * wave_gap_s. Stops early at
  /// quiescence (nothing planned, nothing pending, nothing relieved).
  ChaosReport run(plan::Fleet& fleet, const plan::PlacementStrategy& strategy,
                  double start_now = 0.0);

  /// Executes a single wave (exposed for tests; run() loops this).
  WaveOutcome run_wave(plan::Fleet& fleet, const plan::PlacementStrategy& strategy, int wave,
                      double now);

  /// Flags `vm` for live abort: any attempt (fresh, relief, or carried
  /// retry) moving that VM is refunded — resolution kReplanned, energy
  /// back to the planner — at the next wave boundary instead of being
  /// executed, so the planner re-prices the move against the fleet it
  /// finds. This is the re-plan hook behind a stream degeneration
  /// alert ("this live migration will not converge; stop paying for
  /// it"). Thread-safe: the stream callback fires from serve worker
  /// threads while run_wave owns the ledger. Requests are consumed
  /// once per wave; flags for untracked VMs expire silently.
  void request_live_abort(int vm);

  /// Total request_live_abort() calls (monotonic; diagnostics).
  std::uint64_t live_abort_requests() const;

 private:
  core::MigrationPlanner forecaster_;  ///< prices relief moves
  ChaosConfig config_;
  plan::MigrationPlanner planner_;
  ReplanPolicy policy_;
  std::vector<TrackedMove> ledger_;
  std::vector<int> pending_;  ///< ledger ids awaiting a retry wave
  LedgerSnapshot totals_;
  FleetInvariantChecker checker_;
  mutable std::mutex abort_mutex_;       ///< guards the two fields below only
  std::unordered_set<int> live_abort_vms_;  ///< flagged since the last wave
  std::uint64_t live_abort_requests_ = 0;
};

/// Adapts an executor into the stream degeneration-alert consumer:
/// alerts carrying a planner VM id (sessions opened with plan_vm >= 0)
/// flag that VM for abort-and-refund at the next wave boundary; others
/// are ignored. Install via
/// serve::PredictionService::set_degeneration_callback. The executor
/// must outlive every service holding the callback.
stream::DegenerationCallback make_live_abort_hook(WaveExecutor& executor);

}  // namespace wavm3::chaos
