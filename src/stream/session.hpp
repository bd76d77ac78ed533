// StreamSession + SessionRegistry: the stateful registry behind
// serve::PredictionService's submit_sample / predict_live entry
// points. One session tracks one in-flight migration: a pair of
// IncrementalExtractors (source + target meters), a PhaseTracker per
// role, and the revision state of its live forecast. The registry maps
// session ids to sessions, bounds how many are in flight
// (least-recently-updated eviction, or a typed kSessionLimit error when
// eviction is disabled), and marks degeneration — a live forecast
// crossing the policy threshold, or the pre-copy round count running
// away — with a latched alert on the revision that trips it plus an
// obs instant.
//
// Thread safety: the registry serialises its map under one mutex; each
// session serialises its own state under its own mutex, so samples for
// different migrations never contend. Sessions are handed out as
// shared_ptr, so an eviction or close never invalidates an operation
// already in flight — the TSan hammer in tests/stream_test.cpp races
// all of this from >= 8 threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/planner.hpp"
#include "stream/incremental.hpp"
#include "stream/live_predictor.hpp"
#include "stream/phase_track.hpp"

namespace wavm3::stream {

/// When a live forecast counts as "degenerating" (converging toward
/// non-live / not worth finishing).
struct DegenerationPolicy {
  bool enabled = true;
  /// Alert when the revised total exceeds this multiple of the
  /// baseline (open-time) forecast. Needs a known baseline.
  double energy_factor = 1.5;
  /// Alert when the observed pre-copy round count exceeds this.
  int max_precopy_rounds = 30;
};

/// Raised (at most once per session) when the policy trips.
struct DegenerationAlert {
  std::uint64_t session = 0;
  double baseline_j = 0.0;
  double revised_j = 0.0;
  int rounds_observed = 0;
  std::string reason;
};

/// How a session is opened.
struct SessionOptions {
  migration::MigrationType type = migration::MigrationType::kLive;
  /// Per-role extrapolation priors (see live_predictor.hpp).
  PhasePrior source_prior;
  PhasePrior target_prior;
  /// Open-time forecast of the total (source + target) energy; 0 =
  /// unknown (degeneration then triggers only on the round count).
  double baseline_total_j = 0.0;
  /// Expected wall-clock duration, for the revision-delta watts
  /// normalisation; 0 falls back to the prior durations, then to the
  /// observed duration.
  double expected_total_s = 0.0;
  /// The scenario this migration realises, when known (serve keeps it
  /// to auto-convert the finished session into calib feedback).
  std::optional<core::MigrationScenario> scenario;
};

/// One combined (source + target) live forecast revision.
struct LiveForecast {
  std::uint64_t revision = 0;  ///< 1-based revision counter
  RoleForecast source;
  RoleForecast target;
  double observed_fraction = 0.0;  ///< max over roles with samples
  /// |total - previous total| / expected duration — the absolute
  /// forecast change of this revision expressed as a mean power, what
  /// the stream_revision_delta_watts histogram records. Revision 1
  /// compares against the open-time baseline when one is known.
  double delta_watts = 0.0;
  bool degenerated = false;  ///< latched once the policy trips
  int rounds_observed = 0;   ///< max over roles
  /// Present exactly on the revision that first tripped the policy.
  std::optional<DegenerationAlert> alert;

  double total_j() const { return source.energy_j + target.energy_j; }
};

struct SessionSummary {
  std::uint64_t id = 0;
  std::uint64_t source_samples = 0;
  std::uint64_t target_samples = 0;
  std::uint64_t revisions = 0;
  double observed_source_j = 0.0;  ///< measured power integral, source meter
  double observed_target_j = 0.0;
  double duration_s = 0.0;         ///< max over roles (last - first sample time)
  bool finished = false;
  bool degenerated = false;
};

class StreamSession {
 public:
  StreamSession(std::uint64_t id, SessionOptions options, ExtractorConfig extractor,
                DegenerationPolicy policy);

  std::uint64_t id() const { return id_; }
  const SessionOptions& options() const { return options_; }

  /// Feeds one sample to one role's extractor and tracker.
  /// Error semantics are the extractor's (ContractError / StreamError).
  void submit(models::HostRole role, const models::MigrationSample& sample);

  /// Revised forecast under `model`. Thread-safe; bumps the revision
  /// counter.
  LiveForecast predict(const core::Wavm3Model& model);

  /// Marks both streams complete (predictions become exact-prefix
  /// only, every phase landed). Idempotent.
  void finish();

  SessionSummary summary() const;

  /// Registry bookkeeping: monotonically increasing last-touch tick.
  std::uint64_t last_used() const { return last_used_.load(std::memory_order_relaxed); }
  void touch(std::uint64_t tick) { last_used_.store(tick, std::memory_order_relaxed); }

 private:
  struct RoleState {
    IncrementalExtractor extractor;
    PhaseTracker tracker;
  };

  RoleState& role_state(models::HostRole role) {
    return role == models::HostRole::kSource ? source_ : target_;
  }

  const std::uint64_t id_;
  const SessionOptions options_;
  const DegenerationPolicy policy_;
  mutable std::mutex mutex_;
  RoleState source_;
  RoleState target_;
  bool finished_ = false;
  bool degenerated_ = false;
  std::uint64_t revisions_ = 0;
  double last_total_j_ = 0.0;
  bool has_last_total_ = false;
  std::atomic<std::uint64_t> last_used_{0};
};

struct RegistryConfig {
  ExtractorConfig extractor;
  std::size_t max_sessions = 256;
  /// Full registry: evict the least-recently-updated session (true) or
  /// refuse the open with StreamError(kSessionLimit) (false).
  bool evict_on_full = true;
  DegenerationPolicy degeneration;
};

class SessionRegistry {
 public:
  explicit SessionRegistry(RegistryConfig config = {});

  /// Creates and registers a session. Throws
  /// StreamError(kDuplicateSession) on an id collision and
  /// StreamError(kSessionLimit) when full with eviction disabled.
  std::shared_ptr<StreamSession> open(std::uint64_t id, SessionOptions options);

  /// Throws StreamError(kUnknownSession) when absent.
  std::shared_ptr<StreamSession> find(std::uint64_t id) const;

  /// Routes one sample; error semantics of find() + submit().
  void submit(std::uint64_t id, models::HostRole role,
              const models::MigrationSample& sample);

  /// session->predict(model); a revision carrying a degeneration
  /// alert also emits an obs instant.
  LiveForecast predict(std::uint64_t id, const core::Wavm3Model& model);

  /// finish()es and removes the session, returning it for final
  /// inspection (summary / feedback conversion).
  std::shared_ptr<StreamSession> close(std::uint64_t id);

  std::size_t active() const;
  std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  std::uint64_t opened() const { return opened_.load(std::memory_order_relaxed); }
  std::uint64_t samples_total() const { return samples_.load(std::memory_order_relaxed); }

  const RegistryConfig& config() const { return config_; }

 private:
  std::uint64_t next_tick() { return tick_.fetch_add(1, std::memory_order_relaxed) + 1; }

  RegistryConfig config_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<StreamSession>> sessions_;
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> opened_{0};
  std::atomic<std::uint64_t> samples_{0};
};

}  // namespace wavm3::stream
