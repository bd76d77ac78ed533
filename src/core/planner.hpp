// Forward-prediction API: given a *hypothetical* migration (a VM, its
// workload signature, the load on both hosts, and the link), forecast
// phase durations, transferred data, downtime, and — through a fitted
// WAVM3 model — the energy each host will spend. This is the interface
// the consolidation planner (plan::MigrationPlanner) calls before
// deciding to migrate (the SVIII use-case), with no simulator in the
// loop: the pre-copy dynamics are evaluated in closed form with the
// same laws the engine uses.
//
// A forecast splits at two seams. The target host enters the timings
// only through the transfer bandwidth (transfer_bandwidth), and the
// energy splits into a source half and a target half
// (attach_source_energy / attach_target_energy). So pricing one VM's
// move to many targets (MigrationPlanner::forecast_targets) runs the
// pre-copy recursion and the source half once per distinct (bandwidth,
// link rate) and only the target half per target. forecast() is a
// batch of one of it, so every caller prices through one code path.
//
// The timing recursion itself is one step function over a per-scenario
// lane. forecast_targets runs it as a single lane; forecast_batch,
// which prices many independent scenarios (a serve batch), runs up to
// MigrationPlanner::kBatchLanes lanes in lockstep. Both give the same
// bits.
#pragma once

#include <cstddef>
#include <span>

#include "core/wavm3_model.hpp"
#include "migration/engine.hpp"
#include "net/bandwidth_model.hpp"

namespace wavm3::core {

/// A contemplated migration.
struct MigrationScenario {
  migration::MigrationType type = migration::MigrationType::kLive;

  // The migrating VM.
  double vm_mem_bytes = 0.0;
  double vm_cpu_vcpus = 0.0;          ///< CPU(v) while running
  double vm_dirty_pages_per_s = 0.0;  ///< nominal dirtying rate
  double vm_working_set_pages = 0.0;  ///< writable working set

  // Host state (excluding the migration itself). Loads include the VMM
  // and are *demands* (uncapped): under multiplexing pass the summed
  // per-domain demand (xentop-style), not the capped utilisation, or
  // the planner cannot see that the migration helper has no headroom.
  double source_cpu_load = 0.0;  ///< vCPUs demanded on the source *besides* the migrating VM
  double source_cpu_capacity = 32.0;
  double target_cpu_load = 0.0;
  double target_cpu_capacity = 32.0;

  // Network.
  double link_payload_rate = 117.5e6;  ///< bytes/s (1 Gbit * protocol efficiency)

  // Machinery parameters (defaults match the engine).
  migration::MigrationConfig migration;
  net::BandwidthModelParams bandwidth;
};

/// The forecast for one scenario.
struct MigrationForecast {
  migration::PhaseTimestamps times;  ///< relative times with ms == 0
  double bandwidth = 0.0;            ///< pre-copy/transfer bandwidth, bytes/s
  double total_bytes = 0.0;
  int precopy_rounds = 0;
  double downtime = 0.0;
  bool degenerated_to_nonlive = false;

  // Energy predictions (joules) from the fitted model, full AC draw.
  double source_energy = 0.0;
  double target_energy = 0.0;
  double source_phase_energy[3] = {0, 0, 0};  ///< initiation, transfer, activation
  double target_phase_energy[3] = {0, 0, 0};

  double total_energy() const { return source_energy + target_energy; }
};

/// The target-host fields of a MigrationScenario: what varies when one
/// VM's move is priced towards several candidate targets.
struct TargetSide {
  double cpu_load = 0.0;  ///< as MigrationScenario::target_cpu_load
  double cpu_capacity = 32.0;
  double link_payload_rate = 117.5e6;  ///< bytes/s, source to this target
};

/// Closed-form planner over a fitted WAVM3 model.
class MigrationPlanner {
 public:
  /// `model` must outlive the planner and be fitted for the scenario's
  /// migration type.
  explicit MigrationPlanner(const Wavm3Model& model) : model_(&model) {}

  /// Forecasts durations, traffic, downtime and energy: a batch of one
  /// of forecast_targets.
  MigrationForecast forecast(const MigrationScenario& scenario) const;

  /// Forecasts moving `base`'s VM to each of `targets`: out[i] bit-equals
  /// forecast() of `base` with its target fields set to targets[i]. The
  /// timing recursion and the source energy half run once per distinct
  /// (transfer bandwidth, link rate) — exact `==`, in any order — and
  /// each target pays only its target half. `base`'s own target fields
  /// are not read. Every target is validated like forecast(). Keys are
  /// matched by a scan over the earlier outputs, so a batch is meant to
  /// be one VM's handful of candidates. Returns the number of timing
  /// recursions run (distinct keys).
  std::size_t forecast_targets(const MigrationScenario& base,
                               std::span<const TargetSide> targets,
                               std::span<MigrationForecast> out) const;

  /// Scenarios whose pre-copy recursions forecast_batch runs in lockstep.
  static constexpr std::size_t kBatchLanes = 4;

  /// Forecasts independent scenarios: out[i] bit-equals
  /// forecast(*scenarios[i]). The live recursions of up to kBatchLanes
  /// scenarios run interleaved, a lane taking the next scenario as soon
  /// as its own stops, so their latencies overlap. Throws like
  /// forecast() on the first scenario it rejects; `out` is then
  /// partially written.
  void forecast_batch(std::span<const MigrationScenario* const> scenarios,
                      std::span<MigrationForecast> out) const;

 private:
  const Wavm3Model* model_;
};

/// Pure timing/traffic forecast (no energy model needed): evaluates the
/// pre-copy recursion in closed form at transfer_bandwidth(scenario).
/// Exposed separately so callers without a fitted model (and the
/// engine's tests) can use it. Throws util::ContractError on a scenario
/// without memory size, link rate or positive host capacities.
MigrationForecast forecast_timings(const MigrationScenario& scenario);

/// Pre-copy/transfer bandwidth (bytes/s) of a scenario: the link rate
/// scaled by the weaker endpoint's CPU-headroom efficiency, floored at
/// 1e5. The only way the target host enters the timings.
double transfer_bandwidth(const MigrationScenario& scenario);

/// The timing recursion of forecast_timings at a given transfer
/// `bandwidth`; forecast_timings(sc) is
/// forecast_timings_at(sc, transfer_bandwidth(sc)). Same checks.
MigrationForecast forecast_timings_at(const MigrationScenario& scenario, double bandwidth);

/// The representative constant feature values the energy attribution
/// integrates over each phase: one (source, target) sample pair per
/// phase, chosen to mirror how the engine drives the hosts, plus the
/// coefficient table the scenario's type maps to (post-copy prices
/// with the live tables). attach_energy evaluates these through
/// predict_power and multiplies by each phase's duration — paper Eq. 4
/// with constant per-phase features. The closed-form planner, the
/// datacenter planner's candidates, chaos relief moves and engine-timed
/// serve forecasts all price through it. Each role's samples come from
/// one helper: the source samples read the VM, the source host, the
/// link rate and the timings; the target samples read the VM, the
/// target host, the link rate and the timings.
struct PhaseRepresentatives {
  models::MigrationSample source[3];  ///< initiation, transfer, activation
  models::MigrationSample target[3];
  double duration[3] = {0.0, 0.0, 0.0};
  migration::MigrationType coeff_type = migration::MigrationType::kLive;
};

PhaseRepresentatives representative_features(const MigrationScenario& scenario,
                                             const MigrationForecast& fc);

/// Fills the energy fields of `fc` from the fitted model, given the
/// scenario and already-computed timings/traffic: attach_source_energy
/// then attach_target_energy. Exposed so forecasts whose timings come
/// from elsewhere (e.g. an engine simulation run by
/// serve::simulate_forecast) get the exact same energy attribution as
/// the closed-form planner.
void attach_energy(const Wavm3Model& model, const MigrationScenario& scenario,
                   MigrationForecast& fc);

/// The source half of attach_energy: fills source_phase_energy and
/// source_energy, leaving the target fields alone. Reads no target
/// host field, so one result serves every target with the same
/// (bandwidth, link rate).
void attach_source_energy(const Wavm3Model& model, const MigrationScenario& scenario,
                          MigrationForecast& fc);

/// The target half of attach_energy: fills target_phase_energy and
/// target_energy, leaving the source fields alone.
void attach_target_energy(const Wavm3Model& model, const MigrationScenario& scenario,
                          MigrationForecast& fc);

}  // namespace wavm3::core
