#include "calib/feedback_buffer.hpp"

#include <cmath>

#include "util/error.hpp"

namespace wavm3::calib {

FeedbackBuffer::FeedbackBuffer(std::size_t capacity) : capacity_(capacity) {
  WAVM3_REQUIRE(capacity > 0, "feedback window capacity must be positive");
}

std::size_t FeedbackBuffer::type_slice(migration::MigrationType type) {
  // Post-copy migrations are predicted through the live coefficient
  // table (core::attach_energy), so their feedback recalibrates it.
  return type == migration::MigrationType::kNonLive ? 0 : 1;
}

migration::MigrationType FeedbackBuffer::slice_type(std::size_t type_slice) {
  return type_slice == 0 ? migration::MigrationType::kNonLive
                         : migration::MigrationType::kLive;
}

void FeedbackBuffer::push_row(Slice& slice, const core::MigrationScenario& scenario,
                              double energy, double duration_s, std::uint64_t seq) {
  if (slice.size() >= capacity_) {
    ++slice.start;  // FIFO eviction: retire the oldest row
    if (slice.start >= capacity_) {
      // Amortized compaction: after `capacity_` evictions, drop the
      // dead prefix in one move so every column stays a contiguous
      // [start, end) span and memory stays bounded at ~2x capacity.
      slice.scenarios.erase(slice.scenarios.begin(),
                            slice.scenarios.begin() + static_cast<std::ptrdiff_t>(slice.start));
      slice.observed.erase(slice.observed.begin(),
                           slice.observed.begin() + static_cast<std::ptrdiff_t>(slice.start));
      slice.duration.erase(slice.duration.begin(),
                           slice.duration.begin() + static_cast<std::ptrdiff_t>(slice.start));
      slice.seq.erase(slice.seq.begin(),
                      slice.seq.begin() + static_cast<std::ptrdiff_t>(slice.start));
      slice.start = 0;
    }
  }
  slice.scenarios.push_back(scenario);
  slice.observed.push_back(energy);
  slice.duration.push_back(duration_s);
  slice.seq.push_back(seq);
}

std::optional<std::uint64_t> FeedbackBuffer::push(const core::MigrationScenario& scenario,
                                                  double source_energy_j,
                                                  double target_energy_j, double duration_s) {
  const bool valid = std::isfinite(source_energy_j) && std::isfinite(target_energy_j) &&
                     std::isfinite(duration_s) && duration_s > 0.0;
  if (!valid) return std::nullopt;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = next_seq_++;
  const std::size_t ts = type_slice(scenario.type);
  push_row(slices_[ts][0], scenario, source_energy_j, duration_s, seq);
  push_row(slices_[ts][1], scenario, target_energy_j, duration_s, seq);
  ++ingested_;
  return seq;
}

FeedbackBuffer::Window FeedbackBuffer::window(std::size_t type_slice,
                                              models::HostRole role) const {
  WAVM3_REQUIRE(type_slice < kTypeSlices, "type slice out of range");
  const std::size_t r = role == models::HostRole::kSource ? 0 : 1;
  std::lock_guard<std::mutex> lock(mutex_);
  const Slice& s = slices_[type_slice][r];
  Window w;
  w.scenarios.assign(s.scenarios.begin() + static_cast<std::ptrdiff_t>(s.start),
                     s.scenarios.end());
  w.observed_energy.assign(s.observed.begin() + static_cast<std::ptrdiff_t>(s.start),
                           s.observed.end());
  w.duration.assign(s.duration.begin() + static_cast<std::ptrdiff_t>(s.start),
                    s.duration.end());
  w.seq.assign(s.seq.begin() + static_cast<std::ptrdiff_t>(s.start), s.seq.end());
  return w;
}

std::uint64_t FeedbackBuffer::total_ingested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ingested_;
}

std::uint64_t FeedbackBuffer::last_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_ - 1;
}

}  // namespace wavm3::calib
