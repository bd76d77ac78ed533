#include "stream/incremental.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wavm3::stream {

namespace {

using models::FeatureBatch;
using models::MigrationSample;
using migration::MigrationPhase;

/// Dense phase index: initiation 0, transfer 1, activation 2 — must
/// stay in lockstep with feature_batch.cpp's phase_index.
std::size_t phase_index(MigrationPhase p) {
  switch (p) {
    case MigrationPhase::kInitiation: return 0;
    case MigrationPhase::kTransfer: return 1;
    case MigrationPhase::kActivation: return 2;
    case MigrationPhase::kNormal: break;
  }
  WAVM3_REQUIRE(false, "stream: kNormal is not an aggregation phase");
  return 0;
}

/// kNormal boundary samples fall back to initiation, exactly as
/// FeatureBatch::build() and the WAVM3 predict path do.
std::size_t effective_phase_index(MigrationPhase p) {
  return p == MigrationPhase::kNormal ? 0 : phase_index(p);
}

/// Linear interpolation of every signal between two samples; the
/// synthetic point holds `a`'s phase (zero-order phase hold — we only
/// *know* the phase at real samples).
MigrationSample lerp_sample(const MigrationSample& a, const MigrationSample& b, double t) {
  const double f = (t - a.time) / (b.time - a.time);
  MigrationSample s;
  s.time = t;
  s.power_watts = a.power_watts + f * (b.power_watts - a.power_watts);
  s.cpu_host = a.cpu_host + f * (b.cpu_host - a.cpu_host);
  s.cpu_vm = a.cpu_vm + f * (b.cpu_vm - a.cpu_vm);
  s.dirty_ratio = a.dirty_ratio + f * (b.dirty_ratio - a.dirty_ratio);
  s.bandwidth = a.bandwidth + f * (b.bandwidth - a.bandwidth);
  s.phase = a.phase;
  return s;
}

}  // namespace

IncrementalExtractor::IncrementalExtractor(migration::MigrationType type,
                                           models::HostRole role, ExtractorConfig config)
    : config_(config), acc_(type, role) {
  WAVM3_REQUIRE(config_.nominal_dt_s > 0.0, "stream: nominal cadence must be positive");
  WAVM3_REQUIRE(config_.interpolate_above_s >= config_.nominal_dt_s,
                "stream: interpolation threshold below the nominal cadence");
  WAVM3_REQUIRE(config_.max_gap_s >= config_.interpolate_above_s,
                "stream: max gap below the interpolation threshold");
}

void IncrementalExtractor::set_migration_scalars(double mem_bytes, double data_bytes,
                                                 double avg_bandwidth,
                                                 double idle_power_watts) {
  acc_.set_scalars(mem_bytes, data_bytes, avg_bandwidth, idle_power_watts);
}

void IncrementalExtractor::push(const models::MigrationSample& sample) {
  if (finished_) {
    throw StreamError(StreamErrorCode::kFinished, "sample after finish()");
  }
  // Mirror has_monotonic_timeline(): non-finite or backwards
  // timestamps are corrupt telemetry, not a recoverable stream state.
  WAVM3_REQUIRE(std::isfinite(sample.time), "stream: non-finite timestamp");
  if (samples_ > 0) {
    WAVM3_REQUIRE(sample.time >= prev_.time,
                  "stream: non-monotonic timestamp (out-of-order sample)");
    const double dt = sample.time - prev_.time;
    if (dt > config_.max_gap_s) {
      throw StreamError(StreamErrorCode::kGapExceeded,
                        "gap of " + std::to_string(dt) + " s exceeds max_gap_s");
    }
    if (dt > config_.interpolate_above_s) {
      // Bridge the dropped-sample run at the nominal cadence. Linear
      // interpolation preserves the trapezoid area (the sub-panels sum
      // to the single wide panel up to rounding); what it fixes is the
      // phase bucketing — interior weight follows the zero-order phase
      // hold instead of being split between the two endpoint phases.
      const auto n = static_cast<std::size_t>(std::ceil(dt / config_.nominal_dt_s));
      models::MigrationSample left = prev_;
      for (std::size_t k = 1; k < n; ++k) {
        const double t = prev_.time + dt * (static_cast<double>(k) / static_cast<double>(n));
        const models::MigrationSample mid = lerp_sample(prev_, sample, t);
        acc_.add_pair(left, mid);
        left = mid;
        ++synthetic_samples_;
      }
      acc_.add_pair(left, sample);
      ++gaps_bridged_;
    } else {
      acc_.add_pair(prev_, sample);
    }
  } else {
    first_time_ = sample.time;
  }
  prev_ = sample;
  last_time_ = sample.time;
  ++samples_;
  const int dense = static_cast<int>(effective_phase_index(sample.phase));
  current_phase_ = dense;
  if (dense > deepest_phase_) deepest_phase_ = dense;
}

double IncrementalExtractor::integral(models::FeatureBatch::Column col, std::size_t phase,
                                      models::FeatureBatch::Weighting w) const {
  WAVM3_REQUIRE(phase < FeatureBatch::kPhases, "stream: phase index out of range");
  return acc_.partial()
      .integrals[static_cast<std::size_t>(w)][static_cast<std::size_t>(col)][phase];
}

double IncrementalExtractor::phase_coverage(std::size_t phase) const {
  return integral(FeatureBatch::Column::kOne, phase);
}

models::FeatureBatch IncrementalExtractor::to_batch() const {
  const FeatureBatch::RowAggregates snapshot = acc_.row();
  return FeatureBatch::from_rows(std::span<const FeatureBatch::RowAggregates>(&snapshot, 1));
}

}  // namespace wavm3::stream
