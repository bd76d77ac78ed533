#include "models/dataset.hpp"

#include <map>

#include "stats/integrate.hpp"
#include "stats/split.hpp"
#include "util/error.hpp"

namespace wavm3::models {

const char* to_string(HostRole r) {
  switch (r) {
    case HostRole::kSource: return "source";
    case HostRole::kTarget: return "target";
  }
  return "?";
}

bool MigrationObservation::has_monotonic_timeline() const {
  std::vector<double> t(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) t[i] = samples[i].time;
  return stats::is_non_decreasing(t);
}

double MigrationObservation::observed_energy() const {
  // Unfiltered trapezoidal integral of the measured power over the
  // sample times, via the shared stats::trapezoid kernel.
  std::vector<double> t(samples.size());
  std::vector<double> y(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    t[i] = samples[i].time;
    y[i] = samples[i].power_watts;
  }
  return stats::trapezoid(t, y);
}

double MigrationObservation::observed_phase_energy(migration::MigrationPhase phase) const {
  // Strict per-phase integral: only sample pairs fully inside `phase`
  // contribute (boundary-straddling segments are dropped).
  double energy = 0.0;
  const auto& s = samples;
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i - 1].phase != phase || s[i].phase != phase) continue;
    energy += 0.5 * (s[i - 1].power_watts + s[i].power_watts) * (s[i].time - s[i - 1].time);
  }
  return energy;
}

std::vector<const MigrationObservation*> Dataset::select(migration::MigrationType type,
                                                         HostRole role) const {
  std::vector<const MigrationObservation*> out;
  for (const auto& obs : observations)
    if (obs.type == type && obs.role == role) out.push_back(&obs);
  return out;
}

std::pair<Dataset, Dataset> Dataset::split_stratified(double train_fraction,
                                                      std::uint64_t seed) const {
  WAVM3_REQUIRE(train_fraction > 0.0 && train_fraction < 1.0, "train_fraction must be in (0,1)");
  // Group observation indices by (experiment, role): every scenario
  // must contribute training data for *both* meter positions, or a
  // (type, role, phase) regression cell can end up without the load
  // variation it needs and collapse to a bias-only fit.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    groups[observations[i].experiment + "|" + to_string(observations[i].role)].push_back(i);
  }

  Dataset train;
  train.name = name + "/train";
  Dataset test;
  test.name = name + "/test";
  std::uint64_t group_salt = 0;
  for (const auto& [experiment, indices] : groups) {
    ++group_salt;
    if (indices.size() == 1) {
      // A lone observation goes to training so the scenario is covered.
      train.observations.push_back(observations[indices.front()]);
      continue;
    }
    const stats::IndexSplit idx =
        stats::train_test_split(indices.size(), train_fraction, seed ^ (group_salt * 0x9E37ULL));
    for (const std::size_t i : idx.train) train.observations.push_back(observations[indices[i]]);
    for (const std::size_t i : idx.test) test.observations.push_back(observations[indices[i]]);
  }
  WAVM3_REQUIRE(!test.observations.empty(), "stratified split produced an empty test set");
  return {std::move(train), std::move(test)};
}

}  // namespace wavm3::models
