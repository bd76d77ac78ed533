#include "serve/query_stream.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::serve {

namespace {

/// Instance catalogue echoing Table IIb's VM sizes.
struct InstanceShape {
  double mem_gb;
  double vcpus;
};
constexpr InstanceShape kInstances[] = {
    {1.0, 1.0}, {2.0, 1.0}, {4.0, 2.0}, {4.0, 4.0}, {8.0, 4.0},
};

}  // namespace

QueryStreamGenerator::QueryStreamGenerator(workloads::LoadProfile source_profile,
                                           workloads::LoadProfile target_profile,
                                           QueryStreamOptions options, std::uint64_t seed)
    : source_profile_(std::move(source_profile)),
      target_profile_(std::move(target_profile)),
      options_(options),
      rng_(seed) {
  WAVM3_REQUIRE(options.repeat_fraction >= 0.0 && options.repeat_fraction <= 1.0,
                "repeat_fraction must be in [0, 1]");
  WAVM3_REQUIRE(options.host_capacity > 0.0, "host capacity must be positive");
}

QueryStreamGenerator QueryStreamGenerator::diurnal(QueryStreamOptions options,
                                                   std::uint64_t seed) {
  // Source hosts peak during the day, targets half a cycle later — the
  // regime where consolidation keeps finding migration candidates.
  return QueryStreamGenerator(workloads::LoadProfile::diurnal(0.1, 0.8),
                              workloads::LoadProfile::diurnal(0.1, 0.8, 86400.0, 43200.0),
                              options, seed);
}

core::MigrationScenario QueryStreamGenerator::fresh_scenario() {
  core::MigrationScenario sc;
  sc.type = rng_.chance(options_.live_fraction) ? migration::MigrationType::kLive
                                                : migration::MigrationType::kNonLive;
  const auto& shape = kInstances[static_cast<std::size_t>(
      rng_.uniform_int(0, std::size(kInstances) - 1))];
  sc.vm_mem_bytes = util::gib(shape.mem_gb);
  sc.vm_cpu_vcpus = shape.vcpus;

  // Dirtying: a MEMLOAD-style sweep, DR 5–95% of a working set that is
  // 10–50% of VM memory.
  const double mem_pages = sc.vm_mem_bytes / util::kPageSize;
  sc.vm_working_set_pages = mem_pages * rng_.uniform(0.1, 0.5);
  sc.vm_dirty_pages_per_s = sc.vm_working_set_pages * rng_.uniform(0.05, 0.95);

  // Host loads follow the profiles at the stream's simulated clock,
  // jittered per query (individual hosts scatter around the fleet mean).
  const double cap = options_.host_capacity;
  const double src_frac = source_profile_.fraction_at(clock_);
  const double dst_frac = target_profile_.fraction_at(clock_);
  sc.source_cpu_load = cap * std::clamp(src_frac + rng_.uniform(-0.1, 0.1), 0.0, 1.2);
  sc.target_cpu_load = cap * std::clamp(dst_frac + rng_.uniform(-0.1, 0.1), 0.0, 1.2);
  sc.source_cpu_capacity = cap;
  sc.target_cpu_capacity = cap;
  return sc;
}

core::MigrationScenario QueryStreamGenerator::next() {
  clock_ += options_.query_interval_s;
  if (!history_.empty() && rng_.chance(options_.repeat_fraction)) {
    return history_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(history_.size()) - 1))];
  }
  core::MigrationScenario sc = fresh_scenario();
  // Cap history so long streams repeat a bounded working set (what a
  // fleet between two consolidation rounds actually looks like) and the
  // generator's memory stays flat.
  if (history_.size() < 4096) {
    history_.push_back(sc);
  } else {
    history_[static_cast<std::size_t>(rng_.uniform_int(0, 4095))] = sc;
  }
  return sc;
}

std::vector<core::MigrationScenario> QueryStreamGenerator::generate(std::size_t n) {
  std::vector<core::MigrationScenario> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(next());
  return out;
}

}  // namespace wavm3::serve
