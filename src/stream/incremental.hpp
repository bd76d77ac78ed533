// IncrementalExtractor: the streaming twin of models::FeatureBatch.
//
// FeatureBatch aggregates a *completed* trace in one pass; every
// consumer above it (predict_batch, calib windows, plan pricing)
// therefore assumes the migration has finished. The extractor removes
// that assumption: it consumes timestamped 2 Hz samples one at a time
// and maintains, in O(1) per sample,
//
//   * the per-phase trapezoid-integral aggregates of every FeatureBatch
//     column, in both weightings (kTotal and kPhasePure), plus the
//     observed-energy trapezoid, all via FeatureBatch::RowAccumulator —
//     the ONE compiled pair-update FeatureBatch::build() itself drives,
//     so a finished stream is bit-compatible with the batch path BY
//     CONSTRUCTION (golden-parity pinned to 1e-9 in
//     tests/stream_test.cpp; the FP contract lives on RowAccumulator
//     in models/feature_batch.hpp);
//   * phase progress (first/last time per phase, deepest phase seen),
//     which LivePredictor uses to decide which phases have landed.
//
// Timestamp semantics mirror the batch ingest screening:
//   * a timestamp running BACKWARDS throws util::ContractError, the
//     same class has_monotonic_timeline() screening rejects;
//   * a DUPLICATE timestamp is a zero-width panel and collapses to the
//     last value, exactly like stats::trapezoid (documented there);
//   * a GAP wider than interpolate_above_s (a dropped-sample run) is
//     bridged by linear interpolation at the nominal cadence — the
//     synthetic interior points hold the earlier sample's phase, so a
//     wide panel straddling a boundary no longer dumps half its weight
//     into the wrong phase — up to max_gap_s, beyond which the sample
//     is rejected with StreamError(kGapExceeded) and state is
//     unchanged (resubmit after re-opening).
#pragma once

#include <cstddef>
#include <cstdint>

#include "models/feature_batch.hpp"
#include "stream/errors.hpp"

namespace wavm3::stream {

struct ExtractorConfig {
  double nominal_dt_s = 0.5;        ///< expected cadence (2 Hz meter)
  double interpolate_above_s = 1.5; ///< panels wider than this are subdivided
  double max_gap_s = 30.0;          ///< wider than this rejects the sample
};

class IncrementalExtractor {
 public:
  IncrementalExtractor() = default;
  IncrementalExtractor(migration::MigrationType type, models::HostRole role,
                       ExtractorConfig config = {});

  /// Feeds one sample. O(1) (O(gap/nominal_dt) when bridging a gap).
  /// Throws util::ContractError on a non-finite or backwards
  /// timestamp, StreamError(kFinished) after finish(), and
  /// StreamError(kGapExceeded) on a gap beyond max_gap_s (the sample
  /// is rejected, accumulated state is untouched).
  void push(const models::MigrationSample& sample);

  /// Marks the stream complete: every phase is landed, further push()
  /// throws. Idempotent.
  void finish() { finished_ = true; }
  bool finished() const { return finished_; }

  /// Migration-level scalars (MEM(v), DATA, avg BW, idle power) are
  /// header data, not derivable from the stream — set them whenever
  /// they become known (DATA typically only at the end).
  void set_migration_scalars(double mem_bytes, double data_bytes, double avg_bandwidth,
                             double idle_power_watts);

  std::size_t samples() const { return samples_; }
  bool empty() const { return samples_ == 0; }
  double first_time() const { return first_time_; }
  double last_time() const { return last_time_; }
  /// Interpolated panels inserted while bridging gaps (diagnostics).
  std::uint64_t gaps_bridged() const { return gaps_bridged_; }
  std::uint64_t synthetic_samples() const { return synthetic_samples_; }

  migration::MigrationType type() const { return acc_.partial().type; }
  models::HostRole role() const { return acc_.partial().role; }
  const ExtractorConfig& config() const { return config_; }

  /// Observed power integral over the pushed samples so far (joules),
  /// bit-identical to the batch observed_energy column on the same
  /// samples.
  double observed_energy() const { return acc_.observed_energy(); }

  /// kTotal integral of one column restricted to one dense phase
  /// (0 initiation, 1 transfer, 2 activation).
  double integral(models::FeatureBatch::Column col, std::size_t phase,
                  models::FeatureBatch::Weighting w =
                      models::FeatureBatch::Weighting::kTotal) const;

  /// Observed coverage of one dense phase in seconds: the kTotal
  /// integral of the constant-1 column (summed over phases this is the
  /// full observed duration).
  double phase_coverage(std::size_t phase) const;

  /// Deepest dense phase index any sample has carried so far (-1
  /// before the first non-normal sample under the effective mapping,
  /// i.e. never: kNormal maps to initiation, so >= 0 after one push).
  int deepest_phase() const { return deepest_phase_; }
  /// Dense phase index of the newest sample (effective mapping).
  int current_phase() const { return current_phase_; }

  /// The accumulated aggregate state, FeatureBatch layout, with the
  /// observed-energy panel sum finalised — feed to
  /// FeatureBatch::from_rows to price through predict_batch.
  models::FeatureBatch::RowAggregates row() const { return acc_.row(); }

  /// Single-row batch over the current state.
  models::FeatureBatch to_batch() const;

 private:
  ExtractorConfig config_;
  models::FeatureBatch::RowAccumulator acc_;
  models::MigrationSample prev_;
  std::size_t samples_ = 0;
  bool finished_ = false;
  double first_time_ = 0.0;
  double last_time_ = 0.0;
  int deepest_phase_ = -1;
  int current_phase_ = -1;
  std::uint64_t gaps_bridged_ = 0;
  std::uint64_t synthetic_samples_ = 0;
};

}  // namespace wavm3::stream
