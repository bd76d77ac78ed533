// Dataset structures shared by all energy models: what one host-side
// power meter plus dstat-style instrumentation observed during one
// migration. The experiment harness (src/exp) assembles these from
// PowerTrace + FeatureTrace + MigrationRecord; the models never see the
// ground-truth power parameters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "migration/engine.hpp"
#include "migration/phases.hpp"

namespace wavm3::models {

/// Which side of the migration the meter was attached to.
enum class HostRole { kSource, kTarget };

const char* to_string(HostRole r);

/// One time-aligned (power, features) sample.
struct MigrationSample {
  double time = 0.0;
  double power_watts = 0.0;   ///< observed AC power of the metered host
  double cpu_host = 0.0;      ///< CPU(h,t) of the metered host, vCPUs
  double cpu_vm = 0.0;        ///< CPU(v,t) of the migrating VM
  double dirty_ratio = 0.0;   ///< DR(v,t)
  double bandwidth = 0.0;     ///< BW(S,T,t), bytes/s
  migration::MigrationPhase phase = migration::MigrationPhase::kNormal;
};

/// One migration as observed from one host's meter.
struct MigrationObservation {
  std::string experiment;  ///< e.g. "CPULOAD-SOURCE/level=3/live"
  int run = 0;
  std::string testbed;     ///< e.g. "m01-m02"
  migration::MigrationType type = migration::MigrationType::kNonLive;
  HostRole role = HostRole::kSource;

  migration::PhaseTimestamps times;
  std::vector<MigrationSample> samples;  ///< within [ms, me], 2 Hz

  // Migration-level quantities the baselines regress on:
  double mem_bytes = 0.0;        ///< MEM(v), bytes (STRUNK)
  double data_bytes = 0.0;       ///< measured transferred payload (LIU's DATA)
  double avg_bandwidth = 0.0;    ///< mean achieved bandwidth over the transfer (STRUNK)
  double idle_power_watts = 0.0; ///< testbed idle draw (bias transfer, SVI-F)

  /// True when the sample timestamps form a valid integration axis
  /// (finite, non-decreasing). Ingest paths reading traces from
  /// outside the process must screen with this before integrating:
  /// an out-of-order timestamp flips the sign of a trapezoid panel
  /// and silently corrupts every energy integral downstream.
  bool has_monotonic_timeline() const;

  /// Observed migration energy: integral of measured power over
  /// [ms, me] (trapezoidal over `samples`), in joules.
  double observed_energy() const;

  /// Observed energy restricted to one phase.
  double observed_phase_energy(migration::MigrationPhase phase) const;
};

/// A collection of observations (one testbed's worth of experiments).
struct Dataset {
  std::string name;  ///< e.g. "m01-m02"
  std::vector<MigrationObservation> observations;

  /// Observations matching a migration type and/or role.
  std::vector<const MigrationObservation*> select(migration::MigrationType type,
                                                  HostRole role) const;

  std::size_t size() const { return observations.size(); }

  /// Stratified train/test split, deterministic in `seed`: partitions
  /// *within each experiment* so that every scenario contributes
  /// training observations (at least one per experiment), like the
  /// paper's readings-level 20% split of its m01-m02 readings, which by
  /// construction covers all scenarios.
  std::pair<Dataset, Dataset> split_stratified(double train_fraction, std::uint64_t seed) const;
};

}  // namespace wavm3::models
