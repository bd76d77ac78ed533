#include "stream/session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace wavm3::stream {

// ---------------------------------------------------------- session

StreamSession::StreamSession(std::uint64_t id, SessionOptions options,
                             ExtractorConfig extractor, DegenerationPolicy policy)
    : id_(id), options_(std::move(options)), policy_(policy) {
  source_.extractor = IncrementalExtractor(options_.type, models::HostRole::kSource, extractor);
  target_.extractor = IncrementalExtractor(options_.type, models::HostRole::kTarget, extractor);
  if (options_.scenario.has_value()) {
    const core::MigrationScenario& sc = *options_.scenario;
    source_.extractor.set_migration_scalars(sc.vm_mem_bytes, 0.0, 0.0, 0.0);
    target_.extractor.set_migration_scalars(sc.vm_mem_bytes, 0.0, 0.0, 0.0);
  }
}

void StreamSession::submit(models::HostRole role, const models::MigrationSample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) {
    throw StreamError(StreamErrorCode::kFinished, "sample after session finish");
  }
  RoleState& rs = role_state(role);
  rs.extractor.push(sample);  // throws before any state change below
  rs.tracker.observe(sample);
}

LiveForecast StreamSession::predict(const core::Wavm3Model& model) {
  std::lock_guard<std::mutex> lock(mutex_);
  LiveForecast fc;
  fc.source = predict_role(model, source_.extractor, options_.source_prior);
  fc.target = predict_role(model, target_.extractor, options_.target_prior);
  fc.revision = ++revisions_;
  fc.observed_fraction = 0.0;
  if (!source_.extractor.empty()) {
    fc.observed_fraction = std::max(fc.observed_fraction, fc.source.observed_fraction);
  }
  if (!target_.extractor.empty()) {
    fc.observed_fraction = std::max(fc.observed_fraction, fc.target.observed_fraction);
  }
  fc.rounds_observed =
      std::max(source_.tracker.rounds_observed(), target_.tracker.rounds_observed());

  // Revision delta, expressed as a mean power over the migration's
  // expected span so early and late revisions are comparable.
  const double total = fc.total_j();
  double norm = options_.expected_total_s;
  if (norm <= 0.0) {
    norm = options_.source_prior.duration[0] + options_.source_prior.duration[1] +
           options_.source_prior.duration[2];
  }
  if (norm <= 0.0) {
    norm = std::max(source_.extractor.last_time() - source_.extractor.first_time(),
                    target_.extractor.last_time() - target_.extractor.first_time());
  }
  if (norm <= 0.0) norm = 1.0;
  if (has_last_total_) {
    fc.delta_watts = std::abs(total - last_total_j_) / norm;
  } else if (options_.baseline_total_j > 0.0) {
    fc.delta_watts = std::abs(total - options_.baseline_total_j) / norm;
  }
  last_total_j_ = total;
  has_last_total_ = true;

  // Degeneration policy (latched; the alert rides out exactly once).
  if (policy_.enabled && !degenerated_) {
    const bool energy_blown = options_.baseline_total_j > 0.0 &&
                              total > policy_.energy_factor * options_.baseline_total_j;
    const bool rounds_blown = fc.rounds_observed > policy_.max_precopy_rounds;
    if (energy_blown || rounds_blown) {
      degenerated_ = true;
      DegenerationAlert alert;
      alert.session = id_;
      alert.baseline_j = options_.baseline_total_j;
      alert.revised_j = total;
      alert.rounds_observed = fc.rounds_observed;
      alert.reason = energy_blown ? "energy forecast crossed the degeneration threshold"
                                  : "pre-copy round count ran away";
      fc.alert = std::move(alert);
    }
  }
  fc.degenerated = degenerated_;
  return fc;
}

void StreamSession::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  finished_ = true;
  source_.extractor.finish();
  target_.extractor.finish();
}

SessionSummary StreamSession::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionSummary s;
  s.id = id_;
  s.source_samples = source_.extractor.samples();
  s.target_samples = target_.extractor.samples();
  s.revisions = revisions_;
  s.observed_source_j = source_.extractor.observed_energy();
  s.observed_target_j = target_.extractor.observed_energy();
  double duration = 0.0;
  if (source_.extractor.samples() > 1) {
    duration = source_.extractor.last_time() - source_.extractor.first_time();
  }
  if (target_.extractor.samples() > 1) {
    duration = std::max(duration,
                        target_.extractor.last_time() - target_.extractor.first_time());
  }
  s.duration_s = duration;
  s.finished = finished_;
  s.degenerated = degenerated_;
  return s;
}

// --------------------------------------------------------- registry

SessionRegistry::SessionRegistry(RegistryConfig config) : config_(std::move(config)) {
  WAVM3_REQUIRE(config_.max_sessions > 0, "stream: registry needs at least one slot");
}

std::shared_ptr<StreamSession> SessionRegistry::open(std::uint64_t id,
                                                     SessionOptions options) {
  auto session = std::make_shared<StreamSession>(id, std::move(options), config_.extractor,
                                                 config_.degeneration);
  session->touch(next_tick());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.count(id) != 0) {
      throw StreamError(StreamErrorCode::kDuplicateSession,
                        "session " + std::to_string(id) + " already open");
    }
    if (sessions_.size() >= config_.max_sessions) {
      if (!config_.evict_on_full) {
        throw StreamError(StreamErrorCode::kSessionLimit,
                          "registry full (" + std::to_string(config_.max_sessions) + ")");
      }
      // Evict the least-recently-updated session: the stalest stream
      // is the likeliest to be a leaked/abandoned migration.
      auto victim = sessions_.end();
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        const std::uint64_t used = it->second->last_used();
        if (used < oldest) {
          oldest = used;
          victim = it;
        }
      }
      sessions_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    sessions_.emplace(id, session);
  }
  opened_.fetch_add(1, std::memory_order_relaxed);
  return session;
}

std::shared_ptr<StreamSession> SessionRegistry::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw StreamError(StreamErrorCode::kUnknownSession,
                      "session " + std::to_string(id) + " not open");
  }
  return it->second;
}

void SessionRegistry::submit(std::uint64_t id, models::HostRole role,
                             const models::MigrationSample& sample) {
  const std::shared_ptr<StreamSession> session = find(id);
  session->submit(role, sample);
  session->touch(next_tick());
  samples_.fetch_add(1, std::memory_order_relaxed);
}

LiveForecast SessionRegistry::predict(std::uint64_t id, const core::Wavm3Model& model) {
  const std::shared_ptr<StreamSession> session = find(id);
  LiveForecast fc = session->predict(model);
  session->touch(next_tick());
  if (fc.alert.has_value()) WAVM3_OBS_INSTANT("stream", "degeneration");
  return fc;
}

std::shared_ptr<StreamSession> SessionRegistry::close(std::uint64_t id) {
  std::shared_ptr<StreamSession> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw StreamError(StreamErrorCode::kUnknownSession,
                        "session " + std::to_string(id) + " not open");
    }
    session = it->second;
    sessions_.erase(it);
  }
  session->finish();
  return session;
}

std::size_t SessionRegistry::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace wavm3::stream
