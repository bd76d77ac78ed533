// Synthetic query streams for load-testing the prediction service.
//
// A scheduling round in a consolidation-driven data centre asks the
// planner about many candidate (VM, source, target) triples whose host
// loads follow the fleet's diurnal cycle, and consecutive rounds repeat
// most of their questions (the fleet barely changes between rounds).
// QueryStreamGenerator reproduces that shape: host loads are sampled
// from workloads::LoadProfile curves as simulated time advances, VM sizes
// and dirtying rates are drawn from a small instance catalogue, and a
// configurable fraction of queries is an exact repeat of an earlier
// one (the cacheable regime).
#pragma once

#include <cstdint>
#include <vector>

#include "core/planner.hpp"
#include "workloads/load_profile.hpp"
#include "util/rng.hpp"

namespace wavm3::serve {

struct QueryStreamOptions {
  /// Fraction of queries in [0, 1] replayed verbatim from the stream's
  /// history (0 = all distinct, 0.9 = the 90%-repeated regime).
  double repeat_fraction = 0.0;
  /// Simulated seconds between consecutive queries (advances the load
  /// profiles; one scheduling round per query by default).
  double query_interval_s = 60.0;
  /// Host CPU capacity in vCPUs (testbed m hosts have 32 threads).
  double host_capacity = 32.0;
  /// Live : non-live mix (fraction of live queries).
  double live_fraction = 0.8;
};

class QueryStreamGenerator {
 public:
  /// `source_profile` / `target_profile` drive the two hosts' loads
  /// over simulated time.
  QueryStreamGenerator(workloads::LoadProfile source_profile, workloads::LoadProfile target_profile,
                       QueryStreamOptions options, std::uint64_t seed);

  /// Convenience: offset diurnal profiles (day-shifted between source
  /// and target, as in a geographically spread fleet).
  static QueryStreamGenerator diurnal(QueryStreamOptions options, std::uint64_t seed);

  /// The next query in the stream.
  core::MigrationScenario next();

  /// Generates `n` queries in one go.
  std::vector<core::MigrationScenario> generate(std::size_t n);

 private:
  core::MigrationScenario fresh_scenario();

  workloads::LoadProfile source_profile_;
  workloads::LoadProfile target_profile_;
  QueryStreamOptions options_;
  util::RngStream rng_;
  double clock_ = 0.0;
  std::vector<core::MigrationScenario> history_;
};

}  // namespace wavm3::serve
