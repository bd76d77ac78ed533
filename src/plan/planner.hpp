// Datacenter-scale migration planner: rolling consolidation waves over
// a Fleet, with candidate moves priced by the closed-form forecast
// (core::MigrationPlanner) and scheduled into workload-cycle
// low-dirtying windows (plan/cycle_detector.hpp).
//
// One wave, one stage function each:
//   1. refresh loads; pick donor hosts (underloaded, to be vacated)
//      and receivers;
//   2. generate (VM, source, target) candidates, scanning only the
//      receivers that can take the wave's smallest donor VM (an exact
//      cut: the fit checks are monotone sums), then price each into a
//      lean record (energy, duration, downtime) of its cycle-blind
//      variant (trailing-window dirtying). Pricing fans out once per
//      VM run: one core forecast_targets call prices the VM's move to
//      all its targets, running the pre-copy recursion, the source
//      energy and the target half's key-only part once per distinct
//      (bandwidth, link rate), and per target only its host-CPU clamps
//      and the Eq. 4 sums. The scenario is rebuilt by move_scenario()
//      for pricing and not kept;
//   3. a PlacementStrategy picks targets (naive first-fit, or
//      energy-aware beam search) donor by donor, all-or-nothing per
//      donor (partial vacates save no host energy). No stage up to
//      here reads a workload cycle;
//   4. detect workload cycles on the dirtying histories of the chosen
//      moves' VMs only, through the fleet's per-VM memo (Fleet::cycle):
//      a history is analysed once, so a wave analyses at most one trace
//      per scheduled move, and a rolling wave none it has seen before;
//   5. moves are scheduled under per-host concurrency caps. Each chosen
//      move of a periodic VM is priced once more, at its cycle's
//      low-window dirtying rate (the cycle-aligned variant), and snaps
//      into its next low-dirtying window when that is no dearer;
//   6. the wave is committed to the fleet (placements move, vacated
//      donors power off).
//
// Every stage runs under its own obs:: span (category "plan": select,
// candidates, score_batch, strategy, cycle_detect, schedule, commit,
// all inside "wave") and feeds plan_* metrics, so planner runs are
// traceable like serve requests.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "plan/cycle_detector.hpp"
#include "plan/fleet.hpp"

namespace wavm3::plan {

/// Thresholds and horizon of the consolidation policy.
struct ConsolidationPolicy {
  double underload_fraction = 0.30;  ///< hosts below this CPU fraction donate
  double overload_fraction = 0.90;   ///< never load a target beyond this fraction
  double horizon_seconds = 3600.0;   ///< period a vacated host would stay off
  migration::MigrationType migration_type = migration::MigrationType::kLive;
};

/// Observable steady-state host power estimate used for the benefit
/// side of the ledger (idle draw + linear CPU term; the planner has no
/// access to ground truth either).
struct HostPowerEstimate {
  double idle_watts = 430.0;
  double watts_per_vcpu = 11.0;

  double power(double cpu_vcpus) const { return idle_watts + watts_per_vcpu * cpu_vcpus; }
};

struct PlannerConfig {
  /// Underload/overload thresholds, planning horizon, migration type —
  /// shared with the dcsim consolidation controller.
  ConsolidationPolicy policy;
  /// Benefit side of the ledger (idle draw of a vacated host).
  HostPowerEstimate host_power;
  migration::MigrationConfig migration;
  net::BandwidthModelParams bandwidth;

  /// Link payload rates (bytes/s, post-protocol-efficiency) within and
  /// across topology groups. Host NIC rates cap both.
  double intra_group_payload_rate = 117.5e6;
  double inter_group_payload_rate = 117.5e6;
  /// Payload fraction of a host NIC's wire rate (protocol efficiency).
  double nic_protocol_efficiency = 0.94;

  /// Candidate destinations considered per VM (split between
  /// first-fit-order, same-group, and most-loaded receivers).
  int candidate_targets = 12;
  /// Donors attempted per wave; 0 = every underloaded host.
  int max_donors_per_wave = 0;
  /// Trailing window for cpu_now/dirty_now load estimates.
  double load_window_s = 3600.0;
  /// Moves must start within [now, now + wave_horizon_s].
  double wave_horizon_s = 7200.0;

  bool cycle_aware = true;
  CycleDetectorConfig cycles;

  /// Beam width of the energy-aware strategy.
  int beam_width = 8;
};

/// Link payload rate (bytes/s) between two hosts: the topology-group
/// rate (same FleetHost::group_id or not) capped by both NICs' payload
/// rates.
double link_payload_rate(const PlannerConfig& config, const FleetHost& source,
                         const FleetHost& target);

/// What vacating one donor saves: its idle draw over the policy
/// horizon. WavePlan::steady_saving_j sums it over vacated donors; the
/// dcsim cost gate compares it with each donor's move energy.
double donor_saving_j(const PlannerConfig& config);

/// The scenario of moving `vm` from `source` to `target` on the fleet
/// as it stands: the VM's current signature, the source's load without
/// the VM, the target's load, and the link between them.
core::MigrationScenario move_scenario(const Fleet& fleet, int vm, int source, int target,
                                      const PlannerConfig& config);

/// The target fields of move_scenario(fleet, vm, source, target,
/// config): the target's load and capacity and the link from `source`.
core::TargetSide move_target(const Fleet& fleet, int source, int target,
                             const PlannerConfig& config);

/// One priced placement variant of a candidate move: what the
/// closed-form forecast of its scenario says, and nothing the later
/// stages do not read.
struct MoveVariant {
  double energy_j = 0.0;    ///< source + target
  double duration_s = 0.0;  ///< migration time (forecast times.me)
  double downtime_s = 0.0;
};

/// One (VM, source, target) candidate with its priced blind variant.
/// It carries nothing about the VM's workload cycle: cycles are
/// analysed after selection, for the chosen moves only, and the
/// schedule stage prices a periodic VM's aligned variant (low-window
/// dirtying rate) itself, so no strategy can read either.
struct ScoredMove {
  int vm = -1;
  int source = -1;
  int target = -1;
  MoveVariant blind;  ///< trailing-window dirtying rate

  /// The energy strategies optimise. Deliberately the *blind* price:
  /// selection is then identical whether cycle scheduling is on or
  /// off, so the cycle-aware-vs-blind comparison isolates the
  /// scheduling effect — the scheduler only ever swaps a committed
  /// move to its aligned variant when that variant is cheaper, which
  /// makes "cycle-aware <= cycle-blind predicted energy" a per-move
  /// invariant rather than a statistical tendency.
  double selection_energy() const { return blind.energy_j; }
};

/// Candidate ranges of one donor VM: moves[begin, end) all migrate
/// `vm`, to different targets.
struct VmCandidates {
  int vm = -1;
  int begin = 0;
  int end = 0;
};

/// All candidates of one donor host; vms in first-fit-decreasing
/// order (RAM descending).
struct DonorCandidates {
  int host = -1;
  std::vector<VmCandidates> vms;
};

struct CandidateSet {
  std::vector<ScoredMove> moves;
  std::vector<DonorCandidates> donors;
};

/// Strategy interface: picks one candidate per donor VM, donor by
/// donor, all-or-nothing per donor. Returns indices into
/// candidates.moves. Implementations must keep every tentative target
/// under its RAM capacity and the policy's overload fraction as the
/// selection accumulates.
class PlacementStrategy {
 public:
  virtual ~PlacementStrategy() = default;
  virtual const char* name() const = 0;
  virtual std::vector<int> choose(const Fleet& fleet, const CandidateSet& candidates,
                                  const PlannerConfig& config) const = 0;
};

/// One committed, scheduled move of a wave.
struct ScheduledMove {
  int vm = -1;
  int source = -1;
  int target = -1;
  double start_s = 0.0;        ///< absolute time (history axis)
  double end_s = 0.0;
  bool cycle_aligned = false;
  double energy_j = 0.0;
  double downtime_s = 0.0;
};

/// Per-host migration intervals of a schedule, for placing moves under
/// the hosts' max_concurrent_migrations caps. Feasibility is
/// conservative: an interval overlapping a window anywhere occupies one
/// slot for the whole window.
struct BusyIntervals {
  std::unordered_map<int, std::vector<std::pair<double, double>>> by_host;

  int overlap(int host, double t0, double t1) const;
  void add(int host, double t0, double t1) { by_host[host].emplace_back(t0, t1); }
  /// Earliest start >= t_min at which both endpoints have a free slot
  /// for `duration`. Candidates are t_min and the ends of the intervals;
  /// past the last end both hosts are idle, so the scan always succeeds.
  double earliest_start(const Fleet& fleet, int source, int target, double duration,
                        double t_min) const;
};

/// What one wave produced.
struct WavePlan {
  std::vector<ScheduledMove> moves;       ///< sorted by start time
  double total_migration_energy_j = 0.0;
  double total_downtime_s = 0.0;          ///< SLA view: summed VM blackouts
  double steady_saving_j = 0.0;           ///< vacated idle draw over the horizon
  int donors_considered = 0;
  int donors_vacated = 0;
  int moves_cycle_aligned = 0;
  int overloaded_hosts_before = 0;        ///< hosts above the overload fraction
  int overloaded_hosts_after = 0;
  std::size_t candidates_scored = 0;      ///< (VM, target) pairs priced
  double scoring_seconds = 0.0;           ///< wall time pricing candidates
  double wave_seconds = 0.0;              ///< wall time of the whole wave
};

/// Plans rolling consolidation waves over a fleet.
class MigrationPlanner {
 public:
  /// `model` must outlive the planner and be fitted for the policy's
  /// migration type. Throws util::ContractError on an invalid policy:
  /// underload outside (0,1), overload not in (underload, 1], or a
  /// non-positive horizon.
  MigrationPlanner(const core::Wavm3Model& model, PlannerConfig config = {});

  const PlannerConfig& config() const { return config_; }

  /// Plans one wave at absolute time `now` and (when `commit`) applies
  /// it to the fleet: placements move and fully vacated donors power
  /// off. With commit = false the fleet is left untouched (what-if).
  WavePlan plan_wave(Fleet& fleet, const PlacementStrategy& strategy, double now,
                     bool commit = true);

 private:
  core::MigrationPlanner forecaster_;
  PlannerConfig config_;
};

/// Relief moves planned per relief_moves() call.
inline constexpr int kMaxReliefMoves = 64;

/// What one relief call planned.
struct ReliefPlan {
  std::vector<ScheduledMove> moves;  ///< in pick order, each starting at `now`
  int overloaded_hosts = 0;          ///< powered-on hosts over the overload fraction
  int unplaced = 0;                  ///< VMs picked to shed with no feasible receiver
};

/// Overload relief, which both closed loops (chaos::ClosedLoop) open
/// every wave with. Hosts over the overload fraction by raw demand go
/// most-overloaded first; each sheds its smallest VMs not in `owned`
/// until at or below the line. A VM goes to the least-loaded running
/// host (not overloaded) with RAM and CPU room after the moves already
/// planned, else to the first powered-off host with room, which is
/// powered on. Each move is priced by forecast(move_scenario(...));
/// placements are left to the caller.
ReliefPlan relief_moves(Fleet& fleet, const PlannerConfig& config,
                        const core::Wavm3Model& model, double now,
                        const std::unordered_set<int>& owned);

}  // namespace wavm3::plan
