#include "plan/strategy.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace wavm3::plan {

namespace {

/// What a donor's tentative assignment adds to one host.
struct HostDelta {
  int host = -1;
  double cpu = 0.0;
  double ram = 0.0;
};

/// Per-host (cpu, ram) additions a donor's tentative assignment would
/// cause, one entry per host in first-touch order. Kept per attempt so
/// a failed donor folds nothing back. A donor moves a handful of VMs,
/// so a linear scan beats hashing, and copying one into a reused state
/// allocates nothing once its capacity is there.
using Delta = std::vector<HostDelta>;

template <typename D>  // Delta or const Delta
auto find_host(D& delta, int host) {
  return std::find_if(delta.begin(), delta.end(),
                      [host](const HostDelta& d) { return d.host == host; });
}

/// Tentative loads accumulated across already-decided donors.
struct TentativeLoads {
  std::vector<double> cpu;
  std::vector<double> ram;

  explicit TentativeLoads(const Fleet& fleet) {
    cpu.reserve(fleet.host_count());
    ram.reserve(fleet.host_count());
    for (const FleetHost& h : fleet.hosts()) {
      cpu.push_back(h.cpu_load);
      ram.push_back(h.ram_committed);
    }
  }

  void fold(const Delta& delta) {
    for (const HostDelta& d : delta) {
      cpu[static_cast<std::size_t>(d.host)] += d.cpu;
      ram[static_cast<std::size_t>(d.host)] += d.ram;
    }
  }
};

bool target_feasible(const Fleet& fleet, const PlannerConfig& config, const FleetVm& vm,
                     int target, const TentativeLoads& base, const Delta& delta) {
  double cpu = base.cpu[static_cast<std::size_t>(target)];
  double ram = base.ram[static_cast<std::size_t>(target)];
  if (const auto d = find_host(delta, target); d != delta.end()) {
    cpu += d->cpu;
    ram += d->ram;
  }
  const cloud::HostSpec& spec = fleet.host(target).spec;
  if (ram + vm.ram_bytes > spec.ram_bytes) return false;
  const double capacity = static_cast<double>(spec.vcpus);
  return cpu + vm.cpu_now <= config.policy.overload_fraction * capacity;
}

void add_to_delta(Delta& delta, int target, const FleetVm& vm) {
  auto slot = find_host(delta, target);
  if (slot == delta.end()) slot = delta.insert(slot, HostDelta{target, 0.0, 0.0});
  slot->cpu += vm.cpu_now;
  slot->ram += vm.ram_bytes;
}

/// One donor under naive first-fit: each VM goes to the feasible
/// candidate on the lowest-indexed host. Fills `picks` with the picked
/// move indices (left empty = donor infeasible) and `delta`.
void assign_first_fit(const Fleet& fleet, const CandidateSet& candidates,
                      const PlannerConfig& config, const DonorCandidates& donor,
                      const TentativeLoads& base, std::vector<int>& picks, Delta& delta) {
  picks.clear();
  delta.clear();
  for (const VmCandidates& vc : donor.vms) {
    const FleetVm& vm = fleet.vm(vc.vm);
    int best_move = -1;
    int best_target = std::numeric_limits<int>::max();
    for (int m = vc.begin; m < vc.end; ++m) {
      const ScoredMove& move = candidates.moves[static_cast<std::size_t>(m)];
      if (move.target >= best_target) continue;
      if (!target_feasible(fleet, config, vm, move.target, base, delta)) continue;
      best_move = m;
      best_target = move.target;
    }
    if (best_move < 0) {  // all-or-nothing: donor stays
      picks.clear();
      return;
    }
    picks.push_back(best_move);
    add_to_delta(delta, best_target, vm);
  }
}

double assignment_energy(const CandidateSet& candidates, const std::vector<int>& picks) {
  double total = 0.0;
  for (const int m : picks) total += candidates.moves[static_cast<std::size_t>(m)].selection_energy();
  return total;
}

/// One donor under beam search over its VMs. The first-fit assignment
/// (if any) is admitted as one more completed candidate, so the result
/// never prices above first-fit.
///
/// The search runs in two pools of states that one choose() call
/// reuses across all its donors: the first `beam_size` states of
/// `beam_` are the live beam, and each VM expands them into `next_`,
/// copying into states whose vectors already hold `depth` entries.
/// Only an expansion wider than any before allocates (a new state).
class BeamSearch {
 public:
  /// `depth`: the most VMs any donor of the wave moves, which is the
  /// most picks and delta entries a state ever holds.
  explicit BeamSearch(std::size_t depth) : depth_(depth) {}

  void operator()(const Fleet& fleet, const CandidateSet& candidates, const PlannerConfig& config,
              const DonorCandidates& donor, const TentativeLoads& base,
              std::vector<int>& picks, Delta& delta) {
    const std::size_t width = static_cast<std::size_t>(std::max(1, config.beam_width));
    if (beam_.empty()) add_state(beam_);
    beam_.front().picks.clear();
    beam_.front().delta.clear();
    beam_.front().energy = 0.0;
    std::size_t beam_size = 1;
    for (const VmCandidates& vc : donor.vms) {
      const FleetVm& vm = fleet.vm(vc.vm);
      std::size_t next_size = 0;
      for (std::size_t s = 0; s < beam_size; ++s) {
        const State& state = beam_[s];
        for (int m = vc.begin; m < vc.end; ++m) {
          const ScoredMove& move = candidates.moves[static_cast<std::size_t>(m)];
          if (!target_feasible(fleet, config, vm, move.target, base, state.delta)) continue;
          if (next_size == next_.size()) add_state(next_);
          State& expanded = next_[next_size++];
          expanded.picks = state.picks;
          expanded.picks.push_back(m);
          expanded.delta = state.delta;
          add_to_delta(expanded.delta, move.target, vm);
          expanded.energy = state.energy + move.selection_energy();
        }
      }
      beam_size = next_size;
      if (beam_size == 0) break;  // beam dead-ended; first-fit below may still work
      std::sort(next_.begin(), next_.begin() + static_cast<std::ptrdiff_t>(next_size),
                [](const State& a, const State& b) { return a.energy < b.energy; });
      beam_size = std::min(beam_size, width);
      beam_.swap(next_);
    }

    assign_first_fit(fleet, candidates, config, donor, base, ff_picks_, ff_delta_);

    const bool beam_ok = beam_size > 0;
    const bool ff_ok = !ff_picks_.empty();
    if (!beam_ok && !ff_ok) {
      picks.clear();
      delta.clear();
      return;
    }
    const double ff_energy = ff_ok ? assignment_energy(candidates, ff_picks_)
                                   : std::numeric_limits<double>::infinity();
    const bool take_beam = beam_ok && beam_.front().energy <= ff_energy;
    picks = take_beam ? beam_.front().picks : ff_picks_;
    delta = take_beam ? beam_.front().delta : ff_delta_;
  }

 private:
  struct State {
    std::vector<int> picks;
    Delta delta;
    double energy = 0.0;
  };

  void add_state(std::vector<State>& pool) {
    State& state = pool.emplace_back();
    state.picks.reserve(depth_);
    state.delta.reserve(depth_);
  }

  std::size_t depth_;
  std::vector<State> beam_;
  std::vector<State> next_;
  std::vector<int> ff_picks_;
  Delta ff_delta_;
};

template <typename AssignFn>
std::vector<int> choose_by_donor(const Fleet& fleet, const CandidateSet& candidates,
                                 const PlannerConfig& config, AssignFn assign) {
  TentativeLoads loads(fleet);
  std::vector<int> chosen;
  std::vector<int> picks;
  Delta delta;
  for (const DonorCandidates& donor : candidates.donors) {
    assign(fleet, candidates, config, donor, loads, picks, delta);
    if (picks.empty()) continue;
    loads.fold(delta);
    chosen.insert(chosen.end(), picks.begin(), picks.end());
  }
  return chosen;
}

}  // namespace

std::vector<int> FirstFitStrategy::choose(const Fleet& fleet, const CandidateSet& candidates,
                                          const PlannerConfig& config) const {
  return choose_by_donor(fleet, candidates, config, assign_first_fit);
}

std::vector<int> BeamSearchStrategy::choose(const Fleet& fleet, const CandidateSet& candidates,
                                            const PlannerConfig& config) const {
  std::size_t depth = 0;
  for (const DonorCandidates& donor : candidates.donors) depth = std::max(depth, donor.vms.size());
  return choose_by_donor(fleet, candidates, config, BeamSearch(depth));
}

}  // namespace wavm3::plan
