#include "chaos/closed_loop.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace wavm3::chaos {

double wasted_fraction(const migration::MigrationRecord& record) {
  return record.total_bytes > 0.0
             ? std::clamp(record.wasted_bytes / record.total_bytes, 0.0, 1.0)
             : 0.0;
}

ClosedLoop::ClosedLoop(const core::Wavm3Model& model, plan::PlannerConfig planner,
                       ReplanConfig replan)
    : model_(&model), planner_(std::move(planner)), policy_(replan) {}

std::vector<int> ClosedLoop::open_wave(plan::Fleet& fleet, int wave, double now, bool relief,
                                       const FreshMoves& fresh, WaveOutcome& out) {
  wave_ = wave;
  std::vector<int> attempts;
  const auto accept = [&](const plan::ScheduledMove& move, bool is_relief) {
    totals_.planned_j += move.energy_j;
    attempts.push_back(static_cast<int>(ledger_.size()));
    ledger_.push_back(TrackedMove{attempts.back(), move, is_relief, wave, 0, wave});
  };

  // VMs owned by a tracked pending move (eligible this wave or backing
  // off) are off limits to relief picks and fresh planner moves.
  std::unordered_set<int> owned;
  for (const int id : pending_) owned.insert(entry(id).move.vm);

  // --- 1. Emergency overload relief.
  if (relief) {
    WAVM3_OBS_SPAN(relief_span, "chaos", "relief");
    const plan::ReliefPlan rp = plan::relief_moves(fleet, planner_, *model_, now, owned);
    for (const plan::ScheduledMove& move : rp.moves) {
      accept(move, /*is_relief=*/true);
      owned.insert(move.vm);
    }
    out.overloaded_hosts = rp.overloaded_hosts;
    out.relief_moves = static_cast<int>(rp.moves.size());
    out.relief_unplaced = rp.unplaced;
    relief_span.arg("overloaded", static_cast<double>(rp.overloaded_hosts));
    relief_span.arg("moves", static_cast<double>(out.relief_moves));
  }

  // --- 2. Carried retries that reached their eligible wave.
  const double overload_fraction = planner_.policy.overload_fraction;
  for (const int id : pending_) {
    TrackedMove& mv = ledger_[static_cast<std::size_t>(id)];
    if (mv.eligible_wave > wave) continue;
    // A retry the fleet drifted under goes back to the planner instead
    // of forcing a stale placement.
    const plan::FleetHost& target = fleet.host(mv.move.target);
    const bool cpu_room = target.cpu_load + fleet.vm(mv.move.vm).cpu_now <=
                          overload_fraction * static_cast<double>(target.spec.vcpus);
    if (!cpu_room) refund(id, out.invalidated);
    if (!cpu_room || !revalidate(fleet, id, out)) {
      owned.erase(mv.move.vm);
      continue;
    }
    attempts.push_back(id);
    ++out.retries_attempted;
  }

  // --- 3. Fresh moves from the planner, superseded where a tracked move
  // owns the VM and cut to the policy's admitted width.
  const std::vector<plan::ScheduledMove> moves = fresh(fleet);
  const std::size_t width = policy_.admitted_width(moves.size());
  for (const plan::ScheduledMove& move : moves) {
    if (owned.count(move.vm) != 0) {
      ++out.superseded;
    } else if (static_cast<std::size_t>(out.planned_moves) >= width) {
      ++out.dropped_degraded;
    } else {
      accept(move, /*is_relief=*/false);
      owned.insert(move.vm);
      ++out.planned_moves;
    }
  }

  std::sort(attempts.begin(), attempts.end(), [&](int a, int b) {
    const double sa = entry(a).move.start_s;
    const double sb = entry(b).move.start_s;
    return sa != sb ? sa < sb : a < b;
  });
  return attempts;
}

bool ClosedLoop::revalidate(const plan::Fleet& fleet, int id, WaveOutcome& out) {
  const plan::ScheduledMove& move = entry(id).move;
  const plan::FleetVm& vm = fleet.vm(move.vm);
  if (vm.host == move.source && fleet.host(move.target).powered_on &&
      fleet.fits(move.target, vm)) {
    return true;
  }
  refund(id, out.invalidated);
  return false;
}

void ClosedLoop::start_attempt(int id, WaveOutcome& out) {
  ++ledger_[static_cast<std::size_t>(id)].attempts;
  ++out.executed;
}

void ClosedLoop::resolve(plan::Fleet& fleet, int id, migration::MigrationOutcome outcome,
                         double wasted, WaveOutcome& out) {
  TrackedMove& mv = ledger_[static_cast<std::size_t>(id)];
  const bool completed = outcome == migration::MigrationOutcome::kCompleted;
  policy_.record_execution(completed);
  // A failure's pushed bytes are waste. A lost VM (post-copy) still
  // lands: the engine restarts it on the *target*, so the placement is
  // committed and charged, and it is never retried.
  if (!completed) totals_.wasted_j += mv.move.energy_j * wasted;
  if (outcome == migration::MigrationOutcome::kRolledBack) {
    ++out.rolled_back;
    if (policy_.arm_retry(mv, wave_)) return;  // the VM is still on the source
    mv.resolution = MoveResolution::kShed;
    totals_.refunded_j += mv.move.energy_j;
    ++out.shed;
  } else {
    fleet.move_vm(mv.move.vm, mv.move.target);
    mv.resolution = completed ? MoveResolution::kCompleted : MoveResolution::kVmLost;
    totals_.committed_j += mv.move.energy_j;
    ++(completed ? out.completed : out.vm_lost);
  }
  mv.resolved_wave = wave_;
}

void ClosedLoop::refund(int id, int& reason) {
  TrackedMove& mv = ledger_[static_cast<std::size_t>(id)];
  mv.resolution = MoveResolution::kReplanned;
  mv.resolved_wave = wave_;
  totals_.refunded_j += mv.move.energy_j;
  ++reason;
}

void ClosedLoop::close_wave(const plan::Fleet& fleet,
                            std::span<const ExecutedInterval> intervals, WaveOutcome& out) {
  pending_.clear();
  totals_.outstanding_j = 0.0;
  for (const TrackedMove& mv : ledger_) {
    if (mv.resolution == MoveResolution::kPending) {
      pending_.push_back(mv.id);
      totals_.outstanding_j += mv.move.energy_j;
    }
  }
  out.degraded = policy_.degraded();
  out.ledger = totals_;
  {
    WAVM3_OBS_SPAN(check_span, "chaos", "invariants");
    out.violations = checker_.check(fleet, ledger_, intervals, totals_);
    check_span.arg("violations", static_cast<double>(out.violations.size()));
  }
  for (const InvariantViolation& v : out.violations) {
    util::log_warn("chaos: invariant violated [" + v.check + "]: " + v.detail);
  }
}

void ClosedLoop::reindex_vms(std::span<const int> new_index) {
  for (TrackedMove& mv : ledger_) {
    mv.move.vm = new_index[static_cast<std::size_t>(mv.move.vm)];
  }
}

}  // namespace wavm3::chaos
