// Datacenter-scale migration planner: rolling consolidation waves over
// a Fleet, with candidate moves priced by the closed-form forecast
// (core::MigrationPlanner) and scheduled into workload-cycle
// low-dirtying windows (plan/cycle_detector.hpp).
//
// One wave:
//   1. refresh loads; pick donor hosts (underloaded, to be vacated)
//      and receivers;
//   2. detect workload cycles on every donor VM's dirtying history;
//   3. generate (VM, source, target) candidates and price them — each
//      in a cycle-blind variant (trailing-window dirtying) and, for
//      periodic VMs, a cycle-aligned variant (low-window dirtying);
//   4. a PlacementStrategy picks targets (naive first-fit, or
//      energy-aware beam search) donor by donor, all-or-nothing per
//      donor (partial vacates save no host energy);
//   5. moves are scheduled under per-host concurrency caps, snapping
//      periodic VMs' start times into their next low-dirtying window;
//   6. the wave is committed to the fleet (placements move, vacated
//      donors power off).
//
// Every phase runs under an obs:: span (category "plan") and feeds
// plan_* metrics, so planner runs are traceable like serve requests.
#pragma once

#include <algorithm>
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
/// rate capped by both NICs' payload rates.
double link_payload_rate(const PlannerConfig& config, const cloud::HostSpec& source,
                         const cloud::HostSpec& target);

/// What vacating one donor saves: its idle draw over the policy
/// horizon. WavePlan::steady_saving_j sums it over vacated donors; the
/// dcsim cost gate compares it with each donor's move energy.
double donor_saving_j(const PlannerConfig& config);

/// The scenario of moving `vm` from `source` to `target` on the fleet
/// as it stands: the VM's current signature, the source's load without
/// the VM, the target's load, and the link between them.
core::MigrationScenario move_scenario(const Fleet& fleet, int vm, int source, int target,
                                      const PlannerConfig& config);

/// One priced placement variant of a candidate move.
struct MoveVariant {
  core::MigrationScenario scenario;
  core::MigrationForecast forecast;  ///< closed-form timings + energies
  double energy_j = 0.0;             ///< source + target
};

/// One (VM, source, target) candidate with its priced variants.
struct ScoredMove {
  int vm = -1;
  int source = -1;
  int target = -1;
  MoveVariant blind;        ///< trailing-window dirtying rate
  bool has_aligned = false;
  MoveVariant aligned;      ///< low-cycle-window dirtying rate
  CycleEstimate cycle;      ///< the VM's detected cycle (when has_aligned)

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

}  // namespace wavm3::plan
