// Closed-loop data-centre simulation — the integration the paper's
// SVIII calls for ("such a model could also be easily integrated in
// Cloud simulators to provide more accurate estimation of energy
// consumption in data centres").
//
// A fleet of homogeneous hosts runs VMs with time-varying load
// profiles. On every idle tick a controller snapshots the data centre
// into a plan::Fleet and runs one wave of chaos::ClosedLoop (the loop
// chaos's executor runs): overload relief, due retries and one what-if
// plan::MigrationPlanner wave. Moves run one at a time through the
// migration engine; each donor powers off as soon as it is empty. Fleet
// energy is integrated from every host's ground-truth power, so
// consolidation strategies compare end to end:
//
//   kNoConsolidation  - never migrate (baseline)
//   kCostBlind        - vacate every donor the wave plans, ignoring
//                       what the migrations themselves will cost
//   kCostAware        - drop each donor whose forecast move energy is
//                       not repaid by its idle draw over the horizon
//                       (plan::donor_saving_j)
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cloud/datacenter.hpp"
#include "core/wavm3_model.hpp"
#include "faults/fault_plan.hpp"
#include "migration/engine.hpp"
#include "net/bandwidth_model.hpp"
#include "plan/planner.hpp"
#include "power/host_power_model.hpp"
#include "workloads/traced_workload.hpp"

namespace wavm3::dcsim {

/// Consolidation strategy under test.
enum class Strategy { kNoConsolidation, kCostBlind, kCostAware };

const char* to_string(Strategy s);

/// One VM to place at simulation start.
struct VmPlacement {
  std::string vm_id;
  std::string host;          ///< initial host name
  cloud::VmSpec spec;
  workloads::TracedWorkloadParams workload;
};

/// Full simulation configuration.
struct DcSimConfig {
  std::vector<cloud::HostSpec> hosts;    ///< homogeneous fleet (>= 2)
  power::HostPowerParams power;          ///< ground-truth machine class
  net::LinkSpec link;                    ///< default link between any host pair
  net::BandwidthModelParams bandwidth;
  migration::MigrationConfig migration;
  std::vector<VmPlacement> vms;

  double duration = 4.0 * 3600.0;          ///< simulated seconds
  double controller_interval = 300.0;      ///< consolidation check cadence
  double power_sample_period = 2.0;        ///< energy-accounting resolution
  double standby_watts = 0.0;              ///< draw of a powered-off host
  plan::ConsolidationPolicy policy;
  Strategy strategy = Strategy::kCostAware;
  /// Optional fault schedule injected into the migration engine (link
  /// faults, overload spikes, connection losses). A rolled-back move is
  /// retried in later controller rounds under chaos::ReplanConfig{}'s
  /// budget and backoff, or shed.
  std::shared_ptr<const faults::FaultPlan> faults;
};

/// What one simulation produced.
struct DcSimReport {
  Strategy strategy = Strategy::kNoConsolidation;
  double duration = 0.0;
  double total_energy_joules = 0.0;          ///< fleet energy over the horizon
  std::map<std::string, double> host_energy; ///< per-host breakdown
  int migrations_executed = 0;               ///< completed migrations
  int migrations_failed = 0;                 ///< rolled back or VM lost
  int migrations_retried = 0;                ///< re-attempts after rollback
  int migration_retries_exhausted = 0;       ///< moves shed at the retry budget
  /// Failed migrations keyed by cause ("rolled-back" / "vm-lost"); the
  /// per-cause split behind migrations_failed. Lost VMs never retry:
  /// the engine already restarted them on the target.
  std::map<std::string, int> migration_failures_by_cause;
  double wasted_migration_bytes = 0.0;       ///< traffic of failed migrations
  int plans_rejected_by_cost = 0;            ///< donors dropped by the cost gate
  int power_off_events = 0;
  int power_on_events = 0;
  double total_migration_downtime = 0.0;
  /// Mean of the migrating VMs' performance fraction over their
  /// migrations (1 = unaffected); the fleet-level SLA view of Table I's
  /// slowdown column. 1.0 when no migration ran.
  double mean_migration_performance = 1.0;
  double final_powered_on_hosts = 0.0;
  /// Summed VM CPU demand per host at the end of the horizon, vCPUs.
  std::map<std::string, double> final_host_load;
  /// FleetInvariantChecker failures over all controller waves.
  int invariant_violations = 0;
};

/// Runs one configured simulation. The model is required for
/// kCostBlind/kCostAware (the planner prices the moves with it); it may
/// be null for kNoConsolidation. It must outlive the simulation.
class DataCenterSimulation {
 public:
  DataCenterSimulation(DcSimConfig config, const core::Wavm3Model* model);

  /// Executes the simulation to `config.duration` and returns the report.
  /// A simulation object is single-use.
  DcSimReport run();

 private:
  struct Runtime;  // owns simulator, datacenter, engine, controller state

  DcSimConfig config_;
  const core::Wavm3Model* model_;
  bool ran_ = false;
};

/// Convenience: builds a pseudo-random fleet scenario with `n_hosts`
/// hosts and `n_vms` diurnal-profile VMs (deterministic in `seed`),
/// suitable for strategy comparisons.
DcSimConfig make_fleet_scenario(int n_hosts, int n_vms, std::uint64_t seed);

}  // namespace wavm3::dcsim
