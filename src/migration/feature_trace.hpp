// Per-sample workload features recorded alongside each power trace —
// the simulated counterpart of the paper's dstat + network
// instrumentation (SV-B). These are exactly the regressors of the WAVM3
// model (Eqs. 5-7) and of the baselines.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "migration/phases.hpp"

namespace wavm3::migration {

/// One instrumentation sample.
struct FeatureSample {
  double time = 0.0;
  double cpu_source = 0.0;   ///< CPU(S,t) in vCPUs (Eq. 2)
  double cpu_target = 0.0;   ///< CPU(T,t) in vCPUs
  double cpu_vm = 0.0;       ///< CPU(v,t): granted CPU of the migrating VM
  double dirty_ratio = 0.0;  ///< DR(v,t) of Eq. 1, in [0,1]
  double bandwidth = 0.0;    ///< BW(S,T,t) achieved migration payload rate, bytes/s
  MigrationPhase phase = MigrationPhase::kNormal;
};

/// Append-only time-ordered feature samples.
class FeatureTrace {
 public:
  FeatureTrace() = default;
  explicit FeatureTrace(std::string label) : label_(std::move(label)) {}

  const std::string& label() const { return label_; }

  void add(const FeatureSample& sample);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const std::vector<FeatureSample>& samples() const { return samples_; }
  const FeatureSample& operator[](std::size_t i) const { return samples_[i]; }

 private:
  std::string label_;
  std::vector<FeatureSample> samples_;
};

}  // namespace wavm3::migration
