// The closed loop's rules, shared by chaos's WaveExecutor (attempts in
// two-host cells under a fault storm) and dcsim's controller (one engine
// over a live data centre): the move ledger, the ReplanPolicy and the
// FleetInvariantChecker. The driver owns how an attempt runs, time and
// power states. Per wave it calls open_wave (relief, due retries, fresh
// moves), then for each returned attempt revalidate, start_attempt and
// resolve -- or refund when it does not run it -- and close_wave.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "chaos/invariants.hpp"
#include "chaos/replan.hpp"
#include "core/wavm3_model.hpp"
#include "migration/engine.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"

namespace wavm3::chaos {

/// What one closed-loop wave did.
struct WaveOutcome {
  int wave = 0;
  double started_at_s = 0.0;
  int planned_moves = 0;       ///< fresh planner moves accepted into the ledger
  int dropped_degraded = 0;    ///< fresh moves cut by degraded wave width
  int superseded = 0;          ///< fresh moves dropped: VM owned by a pending retry
  int relief_moves = 0;        ///< overload-relief moves accepted
  int relief_unplaced = 0;     ///< VMs relief picked with no feasible receiver
  int overloaded_hosts = 0;    ///< hosts over the overload fraction at wave start
  int retries_attempted = 0;   ///< carried moves re-executed this wave
  int executed = 0;            ///< migration attempts run
  int completed = 0;
  int rolled_back = 0;
  int vm_lost = 0;
  int deferred = 0;            ///< refunded: could not start before the deadline
  int invalidated = 0;         ///< refunded: fleet drifted under a pending retry
  int shed = 0;                ///< refunded: retry budget exhausted
  int hosts_powered_off = 0;
  bool degraded = false;       ///< policy in degraded mode after the wave
  LedgerSnapshot ledger;       ///< running totals after the wave
  std::vector<InvariantViolation> violations;
  double wave_seconds = 0.0;   ///< wall-clock time of the wave
};

/// Wasted share of an attempt's bytes in [0, 1]: energy it burnt.
double wasted_fraction(const migration::MigrationRecord& record);

/// Stateful across waves; one loop drives one fleet's run.
class ClosedLoop {
 public:
  /// The wave's fresh planner moves, planned on the fleet relief left.
  using FreshMoves = std::function<std::vector<plan::ScheduledMove>(plan::Fleet&)>;

  /// `model` prices relief moves and must outlive the loop.
  ClosedLoop(const core::Wavm3Model& model, plan::PlannerConfig planner,
             ReplanConfig replan = {});

  const ReplanPolicy& policy() const { return policy_; }
  const std::vector<TrackedMove>& ledger() const { return ledger_; }
  const TrackedMove& entry(int id) const { return ledger_[static_cast<std::size_t>(id)]; }
  /// Ledger ids with a retry armed, as of the last close_wave.
  const std::vector<int>& pending() const { return pending_; }

  /// Opens wave `wave` at `now`: plan::relief_moves (when `relief`),
  /// the due retries revalidated against the fleet, then the fresh
  /// moves whose VM no tracked move owns, cut to the degraded width.
  /// Returns the ledger ids to execute by planned start, then id.
  std::vector<int> open_wave(plan::Fleet& fleet, int wave, double now, bool relief,
                             const FreshMoves& fresh, WaveOutcome& out);

  /// True when entry `id` can still run (VM on the source, target
  /// powered on with RAM room); otherwise refunds it as invalidated.
  bool revalidate(const plan::Fleet& fleet, int id, WaveOutcome& out);

  /// Counts the attempt about to run for entry `id`.
  void start_attempt(int id, WaveOutcome& out);

  /// Resolves entry `id`'s attempt: commit a completed (or VM-lost)
  /// placement into `fleet`, charge a failure's wasted energy, and arm
  /// a rolled-back move's retry with backoff or shed it.
  void resolve(plan::Fleet& fleet, int id, migration::MigrationOutcome outcome,
               double wasted_fraction, WaveOutcome& out);

  /// Hands entry `id` back to the planner unrun, refunding its energy;
  /// `reason` (a counter of the wave's WaveOutcome) counts it.
  void refund(int id, int& reason);

  /// Rebuilds the pending queue and outstanding energy, then audits
  /// `fleet` and the ledger with the wave's executed `intervals`.
  void close_wave(const plan::Fleet& fleet, std::span<const ExecutedInterval> intervals,
                  WaveOutcome& out);

  /// Follows the ledger's VMs into a fleet where VM v is new_index[v].
  void reindex_vms(std::span<const int> new_index);

 private:
  const core::Wavm3Model* model_;
  plan::PlannerConfig planner_;
  ReplanPolicy policy_;
  std::vector<TrackedMove> ledger_;
  std::vector<int> pending_;  ///< ledger ids awaiting a retry wave
  LedgerSnapshot totals_;
  FleetInvariantChecker checker_;
  int wave_ = 0;              ///< the open wave
};

}  // namespace wavm3::chaos
