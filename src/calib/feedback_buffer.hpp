// FeedbackBuffer: the sliding observation windows the online
// recalibration loop refits on.
//
// Each accepted feedback sample — one migration's ground truth —
// splits into two rows (source-host energy, target-host energy) and
// lands in the bounded window of its (migration-type, host-role)
// slice. Post-copy rows fold into the live slice: the energy model
// attaches post-copy energy through the live coefficient table (see
// core::attach_energy), so its feedback must recalibrate that same
// table. Windows are columnar (SoA): the observed-energy / duration /
// sequence columns stay contiguous so drift scoring and refits consume
// them as spans, matching the stats::fit_linear columnar path.
//
// Eviction is strictly FIFO per slice. Storage uses a start offset
// with amortized compaction, so steady-state ingest is O(1) per row
// and the live region of every column stays contiguous.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "core/planner.hpp"
#include "models/dataset.hpp"

namespace wavm3::calib {

class FeedbackBuffer {
 public:
  /// Coefficient-table slices, not raw migration types: non-live, and
  /// live (which also absorbs post-copy feedback).
  static constexpr std::size_t kTypeSlices = 2;
  static constexpr std::size_t kRoles = 2;

  /// `capacity` is the row budget of each (type, role) slice window.
  explicit FeedbackBuffer(std::size_t capacity);

  /// Ingests one observed migration: validates the scalars, assigns a
  /// global sequence number, and appends one row per host role to the
  /// scenario's type slice (evicting the oldest row of a full window).
  /// Returns the assigned sequence, or nullopt when the sample is
  /// rejected (non-finite energies, non-positive or non-finite
  /// duration) — the ingest-path counterpart of the throwing
  /// validation in the offline loaders.
  std::optional<std::uint64_t> push(const core::MigrationScenario& scenario,
                                    double source_energy_j, double target_energy_j,
                                    double duration_s);

  /// Oldest-first snapshot of one slice's window (copies, so refits
  /// run on stable data without holding the buffer lock).
  struct Window {
    std::vector<core::MigrationScenario> scenarios;
    std::vector<double> observed_energy;  ///< joules, metered host
    std::vector<double> duration;         ///< seconds, observed wall time
    std::vector<std::uint64_t> seq;       ///< global ingest sequence

    std::size_t size() const { return scenarios.size(); }
    bool empty() const { return scenarios.empty(); }
  };
  Window window(std::size_t type_slice, models::HostRole role) const;

  std::size_t capacity() const { return capacity_; }

  std::uint64_t total_ingested() const;  ///< accepted samples (not rows)
  std::uint64_t last_seq() const;        ///< highest sequence assigned (0 = none)

  /// Which coefficient-table slice a migration type recalibrates.
  static std::size_t type_slice(migration::MigrationType type);
  /// The representative migration type of a slice (what
  /// set_coefficients / the planner are keyed on).
  static migration::MigrationType slice_type(std::size_t type_slice);

 private:
  struct Slice {
    std::vector<core::MigrationScenario> scenarios;
    std::vector<double> observed;
    std::vector<double> duration;
    std::vector<std::uint64_t> seq;
    std::size_t start = 0;  ///< live rows are [start, scenarios.size())

    std::size_t size() const { return scenarios.size() - start; }
  };

  void push_row(Slice& slice, const core::MigrationScenario& scenario, double energy,
                double duration_s, std::uint64_t seq);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  Slice slices_[kTypeSlices][kRoles];
  std::uint64_t next_seq_ = 1;
  std::uint64_t ingested_ = 0;
};

}  // namespace wavm3::calib
