// Replan policy of the closed loop (chaos::ClosedLoop): what happens to
// a planned migration after reality disagrees with the plan. Three
// mechanisms, like the serve degradation ladder:
//
//   * wave deadlines — a move that cannot *start* within
//     ReplanConfig::wave_deadline_s of its wave's opening is refunded
//     and re-priced by the planner instead of executed late;
//   * bounded retries with backoff — a rolled-back migration keeps the
//     VM on its source, so the move can be re-attempted; every failure
//     pushes the next attempt further out (exponentially, in waves),
//     and an exhausted budget sheds the move;
//   * degraded mode — while the rolling failure rate of recent
//     executions is high, the admitted wave width shrinks (fewer
//     in-flight migrations, less wasted energy per storm).
#pragma once

#include <cstddef>
#include <deque>

#include "plan/planner.hpp"

namespace wavm3::chaos {

/// How a tracked move left (or has not yet left) the ledger.
enum class MoveResolution {
  kPending,    ///< attempt outstanding or retry scheduled
  kCompleted,  ///< the VM runs on the planned target
  kVmLost,     ///< post-copy durability hazard: VM restarted on the target
  kReplanned,  ///< refunded back to the planner (deadline, drift, supersede)
  kShed,       ///< retry budget exhausted; abandoned
};

const char* to_string(MoveResolution r);

/// True when the resolution means the VM landed on the move's target
/// (the move's predicted energy is committed).
inline bool is_placed(MoveResolution r) {
  return r == MoveResolution::kCompleted || r == MoveResolution::kVmLost;
}

/// One planned migration tracked across waves: the executor's unit of
/// accounting. Every accepted move (fresh plan, overload relief, or
/// carried retry) gets exactly one ledger entry whose predicted energy
/// is later committed (placed) or refunded (replanned / shed) — the
/// partition the FleetInvariantChecker's energy-ledger check enforces.
struct TrackedMove {
  int id = -1;                ///< ledger index
  plan::ScheduledMove move;   ///< planned schedule, predicted energy
  bool relief = false;        ///< emergency overload-relief move
  int planned_wave = 0;       ///< wave the move entered the ledger
  int attempts = 0;           ///< executions so far
  int eligible_wave = 0;      ///< earliest wave the next attempt may run
  MoveResolution resolution = MoveResolution::kPending;
  int resolved_wave = -1;     ///< wave the resolution landed in (-1 while pending)
};

struct ReplanConfig {
  /// A move must *start* within this of its wave's opening; later
  /// starts are refunded and replanned instead of executed stale.
  double wave_deadline_s = 2.0 * 7200.0;
  /// Executions allowed per tracked move (first attempt included).
  int retry_budget = 3;
  /// Waves to wait after the first failure; doubles per further
  /// failure, capped at max_backoff_waves.
  int backoff_base_waves = 1;
  int max_backoff_waves = 4;
  /// Rolling failure rate at which degraded mode engages / releases.
  double degraded_failure_rate = 0.5;
  double recovery_failure_rate = 0.2;
  /// Executions in the rolling failure window.
  int rolling_window = 16;
  /// Fresh-plan width multiplier while degraded.
  double degraded_width_factor = 0.5;
  int min_wave_moves = 1;
};

/// Deadline / retry / degraded-mode decisions. Stateful only in the
/// rolling failure window; per-move state lives in TrackedMove.
class ReplanPolicy {
 public:
  explicit ReplanPolicy(ReplanConfig config = {});

  const ReplanConfig& config() const { return config_; }

  bool degraded() const { return degraded_; }

  /// Failure fraction of the rolling window (0 while empty).
  double failure_rate() const;

  /// Fresh planner moves admitted this wave given `planned` were
  /// produced: all of them at full health, a shrunken prefix while
  /// degraded (never below min_wave_moves unless fewer were planned).
  std::size_t admitted_width(std::size_t planned) const;

  /// Records one execution outcome into the rolling window and updates
  /// the degraded flag (with hysteresis: engage at
  /// degraded_failure_rate, release at recovery_failure_rate).
  void record_execution(bool success);

  /// Arms the next retry of a failed move: true when budget remains
  /// (mv.eligible_wave pushed out by the backoff), false when the move
  /// must be shed. `wave` is the wave the failure happened in.
  bool arm_retry(TrackedMove& mv, int wave) const;

 private:
  ReplanConfig config_;
  std::deque<bool> window_;  ///< recent executions, true = failure
  std::size_t window_failures_ = 0;
  bool degraded_ = false;
};

}  // namespace wavm3::chaos
