// Cache keys for migration scenarios.
//
// A key is (model version, every field of the scenario) — the version
// makes hot-swapped coefficients self-invalidating: results computed
// against retired coefficients live under a version no query will ask
// for again, and the LRU ages them out.
//
// Quantization: with step q > 0 the *workload feature* fields (VM size,
// CPU, dirtying, host loads, link rate) are snapped to a geometric grid
// of relative pitch q before keying AND before evaluation, so queries
// within ~q/2 relative distance share one cache entry and one answer.
// Coarser q buys a higher hit rate at the price of answering for the
// grid point rather than the exact query (a bounded relative
// perturbation of the inputs, not of the outputs). q = 0 keys on exact
// bit patterns, making cached results bit-identical to direct planner
// calls. Machinery parameters (MigrationConfig, bandwidth params) are
// never quantized — they are compared exactly.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/planner.hpp"

namespace wavm3::serve {

/// Number of scalar fields a MigrationScenario flattens to (type + 9
/// workload features + 21 MigrationConfig + 2 bandwidth parameters).
inline constexpr std::size_t kScenarioFieldCount = 33;

/// Flattens every semantically relevant field, in a fixed order.
std::array<double, kScenarioFieldCount> scenario_fields(const core::MigrationScenario& sc);

/// Inverse of scenario_fields(): rebuilds the scenario from the flat
/// array. Round-trips bit-exactly — the pair doubles as the wire
/// serialization for src/rpc/. The type field must encode a valid
/// MigrationType (ContractError otherwise); fields scenario_fields()
/// does not carry (postcopy_restart_duration) keep their defaults.
core::MigrationScenario scenario_from_fields(
    const std::array<double, kScenarioFieldCount>& fields);

/// Returns `sc` with its workload features snapped to the geometric
/// grid of relative pitch `quantization_step` (0 = identity).
core::MigrationScenario canonicalize(const core::MigrationScenario& sc,
                                     double quantization_step);

/// A field's bit pattern as keys hash and compare it: -0.0 folds onto
/// +0.0, every other value (NaNs included) keeps its own bits.
inline std::uint64_t field_bits(double v) {
  if (v == 0.0) v = 0.0;
  return std::bit_cast<std::uint64_t>(v);
}

/// Key equality of two flattened scenarios: field_bits() per field.
bool same_fields(const std::array<double, kScenarioFieldCount>& a,
                 const std::array<double, kScenarioFieldCount>& b);

struct ScenarioKey {
  std::uint64_t model_version = 0;
  std::array<double, kScenarioFieldCount> fields{};

  ScenarioKey() = default;
  ScenarioKey(std::uint64_t version, const core::MigrationScenario& canonical)
      : model_version(version), fields(scenario_fields(canonical)) {}
  ScenarioKey(std::uint64_t version, const std::array<double, kScenarioFieldCount>& flat)
      : model_version(version), fields(flat) {}

  bool operator==(const ScenarioKey& other) const;
};

struct ScenarioKeyHash {
  std::size_t operator()(const ScenarioKey& key) const;
};

}  // namespace wavm3::serve
