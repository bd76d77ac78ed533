// Time-varying load profiles for data-centre simulations: the paper's
// SVIII use-case needs VMs whose utilisation changes over time so that
// consolidation opportunities appear and disappear.
#pragma once

#include <vector>

namespace wavm3::workloads {

/// One profile breakpoint.
struct LoadPoint {
  double time = 0.0;      ///< seconds from profile start
  double fraction = 0.0;  ///< CPU fraction of the VM's vCPUs, [0, 1]
};

/// Piecewise-constant CPU utilisation over time, optionally cyclic.
class LoadProfile {
 public:
  /// Always-`fraction` profile.
  static LoadProfile constant(double fraction);

  /// Profile stepping through `points` (times strictly increasing,
  /// starting at 0). When `period` > 0 the profile repeats with that
  /// period; otherwise the last fraction holds forever.
  static LoadProfile steps(std::vector<LoadPoint> points, double period = 0.0);

  /// A smooth day/night pattern: fraction oscillates between `low` and
  /// `high` with the given period (default 24 h), starting at `phase`
  /// seconds into the cycle. Sampled into `steps_per_cycle` constant
  /// segments for determinism.
  static LoadProfile diurnal(double low, double high, double period = 86400.0,
                             double phase = 0.0, int steps_per_cycle = 24);

  /// CPU fraction at absolute time t (>= 0).
  double fraction_at(double t) const;

  bool cyclic() const { return period_ > 0.0; }
  double period() const { return period_; }

 private:
  LoadProfile() = default;
  std::vector<LoadPoint> points_;
  double period_ = 0.0;
};

}  // namespace wavm3::workloads
