// Forward-prediction API: given a *hypothetical* migration (a VM, its
// workload signature, the load on both hosts, and the link), forecast
// phase durations, transferred data, downtime, and — through a fitted
// WAVM3 model — the energy each host will spend. This is the interface
// the consolidation planner (plan::MigrationPlanner) calls before
// deciding to migrate (the SVIII use-case), with no simulator in the
// loop: the pre-copy dynamics are evaluated in closed form with the
// same laws the engine uses.
#pragma once

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

/// Closed-form planner over a fitted WAVM3 model.
class MigrationPlanner {
 public:
  /// `model` must outlive the planner and be fitted for the scenario's
  /// migration type.
  explicit MigrationPlanner(const Wavm3Model& model) : model_(&model) {}

  /// Forecasts durations, traffic, downtime and energy.
  MigrationForecast forecast(const MigrationScenario& scenario) const;

 private:
  const Wavm3Model* model_;
};

/// Pure timing/traffic forecast (no energy model needed): evaluates the
/// pre-copy recursion in closed form. Exposed separately so callers
/// without a fitted model (and the engine's tests) can use it.
MigrationForecast forecast_timings(const MigrationScenario& scenario);

/// The representative constant feature values the energy attribution
/// integrates over each phase: one (source, target) sample pair per
/// phase, chosen to mirror how the engine drives the hosts, plus the
/// coefficient table the scenario's type maps to (post-copy prices
/// with the live tables). attach_energy evaluates these through
/// predict_power and multiplies by each phase's duration — paper Eq. 4
/// with constant per-phase features. The closed-form planner, the
/// datacenter planner's candidates, chaos relief moves and engine-timed
/// serve forecasts all price through it.
struct PhaseRepresentatives {
  models::MigrationSample source[3];  ///< initiation, transfer, activation
  models::MigrationSample target[3];
  double duration[3] = {0.0, 0.0, 0.0};
  migration::MigrationType coeff_type = migration::MigrationType::kLive;
};

PhaseRepresentatives representative_features(const MigrationScenario& scenario,
                                             const MigrationForecast& fc);

/// Fills the energy fields of `fc` from the fitted model, given the
/// scenario and already-computed timings/traffic. Exposed so forecasts
/// whose timings come from elsewhere (e.g. an engine simulation run by
/// serve::simulate_forecast) get the exact same energy attribution as
/// the closed-form planner.
void attach_energy(const Wavm3Model& model, const MigrationScenario& scenario,
                   MigrationForecast& fc);

}  // namespace wavm3::core
