#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/sim_backend.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace wavm3::serve {

namespace {

/// Endpoint label of each PredictionService::Endpoint.
constexpr const char* kEndpointNames[] = {"predict", "submit", "predict_batch"};

/// Records the enclosing call's latency into an endpoint histogram on
/// scope exit, so a call that throws is still counted.
class EndpointTimer {
 public:
  explicit EndpointTimer(obs::Histogram* latency)
      : latency_(latency), start_ns_(obs::now_ns()) {}
  ~EndpointTimer() {
    const std::uint64_t end_ns = obs::now_ns();
    latency_->observe(static_cast<double>(end_ns > start_ns_ ? end_ns - start_ns_ : 0));
  }
  EndpointTimer(const EndpointTimer&) = delete;
  EndpointTimer& operator=(const EndpointTimer&) = delete;

 private:
  obs::Histogram* latency_;
  std::uint64_t start_ns_;
};

}  // namespace

PredictionService::PredictionService(const core::Wavm3Model& model, ServiceConfig config)
    : PredictionService(std::make_shared<const core::Wavm3Model>(model), config) {}

PredictionService::PredictionService(std::shared_ptr<const core::Wavm3Model> model,
                                     ServiceConfig config)
    : config_(config),
      store_(std::move(model)),
      breaker_(config.breaker),
      deadline_expired_(obs_metrics_.counter("serve_deadline_expired_total",
                                             "Requests that spent their deadline queued")),
      shed_(obs_metrics_.counter("serve_shed_total",
                                 "try_submit requests shed because the queue was full")),
      rejected_after_shutdown_(obs_metrics_.counter(
          "serve_rejected_after_shutdown_total", "Requests rejected after shutdown")),
      backend_failures_(obs_metrics_.counter("serve_backend_failures_total",
                                             "Individual sim-backend call failures")),
      backend_retries_(obs_metrics_.counter("serve_backend_retries_total",
                                            "Backend backoff retries taken")),
      degraded_(obs_metrics_.counter("serve_degraded_to_closed_form_total",
                                     "Simulated requests answered at closed-form fidelity")),
      g_cache_hits_(obs_metrics_.gauge("serve_cache_hits", "Result cache hits")),
      g_cache_misses_(obs_metrics_.gauge("serve_cache_misses", "Result cache misses")),
      g_cache_insertions_(
          obs_metrics_.gauge("serve_cache_insertions", "Result cache insertions")),
      g_cache_evictions_(
          obs_metrics_.gauge("serve_cache_evictions", "Result cache LRU evictions")),
      g_queue_depth_(obs_metrics_.gauge("serve_queue_depth", "Pending async requests")),
      g_threads_(obs_metrics_.gauge("serve_threads", "Worker pool size")),
      g_coeff_version_(
          obs_metrics_.gauge("serve_coefficient_version", "Live coefficient version")),
      g_breaker_open_transitions_(obs_metrics_.gauge("serve_breaker_open_transitions",
                                                     "Circuit breaker closed->open trips")),
      g_breaker_rejections_(obs_metrics_.gauge("serve_breaker_rejections",
                                               "Backend calls skipped while open")),
      g_breaker_state_(obs_metrics_.gauge("serve_breaker_state",
                                          "Breaker state (0 closed, 1 open, 2 half-open)")),
      h_batch_size_(obs_metrics_.histogram(
          "serve_batch_size",
          "Deduplicated scenarios per predict_batch worker task or inline batch",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0})),
      h_batch_item_latency_(obs_metrics_.exponential_histogram(
          "serve_batch_item_latency_ns",
          "Amortized per-item latency of batched evaluations", 1000.0, 1.046, 400)),
      feedback_accepted_(obs_metrics_.counter("serve_feedback_accepted_total",
                                              "Feedback samples handed to the sink")),
      feedback_dropped_(obs_metrics_.counter(
          "serve_feedback_dropped_total",
          "Feedback samples dropped (no sink, invalid, queue full, or shutdown)")),
      feedback_errors_(obs_metrics_.counter("serve_feedback_errors_total",
                                            "Feedback sink invocations that threw")),
      g_stream_sessions_(obs_metrics_.gauge("stream_sessions_active",
                                            "Open live-migration stream sessions")),
      stream_samples_(obs_metrics_.counter(
          "stream_samples_total", "Telemetry samples accepted by submit_sample")),
      h_stream_revision_delta_(obs_metrics_.exponential_histogram(
          "stream_revision_delta_watts",
          "Per-revision live-forecast change, as mean watts over the expected span",
          0.01, 1.6, 44)),
      started_ns_(obs::now_ns()),
      stream_registry_(config.stream),
      pool_(ThreadPoolConfig{config.threads, config.queue_capacity}) {
  WAVM3_REQUIRE(config_.batch_max_size > 0, "batch_max_size must be positive");
  WAVM3_REQUIRE(config_.backend_max_retries >= 0, "retry budget must be non-negative");
  WAVM3_REQUIRE(config_.backend_backoff_initial_s >= 0.0 &&
                    config_.backend_backoff_multiplier >= 1.0,
                "backoff must not shrink");
  WAVM3_REQUIRE(config_.backend_backoff_max_s >= 0.0,
                "backoff cap must be non-negative");
  if (config_.cache_capacity > 0) {
    cache_ = std::make_unique<
        ShardedLruCache<ScenarioKey, core::MigrationForecast, ScenarioKeyHash>>(
        config_.cache_capacity, std::max<std::size_t>(1, config_.cache_shards));
  }
  // Latency grid: 400 buckets growing by 1.046 from 1 us, ~4.6%
  // relative resolution over [1 us, ~88 s).
  for (int e = 0; e < kEndpointCount; ++e) {
    endpoint_latency_[e] = &obs_metrics_.exponential_histogram(
        "serve_endpoint_latency_ns", "End-to-end request latency per endpoint", 1000.0,
        1.046, 400, {{"endpoint", kEndpointNames[e]}});
  }
}

PredictionService::~PredictionService() { shutdown(DrainMode::kDrain); }

PredictionService::EvalResult PredictionService::degrade_or_throw(
    const core::Wavm3Model& model, const core::MigrationScenario& canonical,
    const char* why) {
  if (config_.degrade_to_closed_form) {
    degraded_.inc();
    WAVM3_OBS_INSTANT("serve", "degraded_to_closed_form");
    // Degraded answers are served but never cached: once the backend
    // recovers, the service should answer simulated again instead of
    // replaying closed-form leftovers until the cache turns over.
    return EvalResult{core::MigrationPlanner(model).forecast(canonical), false};
  }
  throw PredictError(PredictErrorCode::kBackendFailure, why);
}

double PredictionService::backoff_delay(int attempt) {
  double delay = config_.backend_backoff_initial_s *
                 std::pow(config_.backend_backoff_multiplier, attempt - 1);
  const double jitter = std::clamp(config_.backend_backoff_jitter, 0.0, 1.0);
  if (jitter > 0.0) {
    // Deterministic jitter: the k-th backoff ever taken gets the k-th
    // draw of the seeded stream — reproducible modulo thread
    // interleaving, and retry bursts still decorrelate.
    const std::uint64_t ticket = backoff_ticket_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t bits = util::splitmix64(config_.backend_backoff_seed ^ ticket);
    const double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
    delay *= 1.0 - jitter + 2.0 * jitter * unit;
  }
  // Cap after jitter so the bound is hard. The !(delay <= cap) form
  // also catches the inf that pow() overflows to at high attempt
  // counts — inf compares false against any finite cap.
  const double cap = config_.backend_backoff_max_s;
  if (cap > 0.0 && !(delay <= cap)) delay = cap;
  return delay;
}

PredictionService::EvalResult PredictionService::compute(
    const core::Wavm3Model& model, const core::MigrationScenario& canonical) {
  if (config_.fidelity != Fidelity::kSimulated) {
    return EvalResult{core::MigrationPlanner(model).forecast(canonical), true};
  }
  // The degradation ladder, rung by rung: (1) breaker open -> answer
  // closed-form immediately instead of queueing doomed engine runs;
  // (2) backend call, retried with exponential backoff + jitter;
  // (3) retries exhausted -> closed-form (or a typed failure when
  // degradation is disabled).
  if (!breaker_.allow()) return degrade_or_throw(model, canonical, "circuit breaker open");
  int attempt = 0;
  for (;;) {
    try {
      core::MigrationForecast fc = config_.simulated_backend
                                       ? config_.simulated_backend(model, canonical)
                                       : simulate_forecast(model, canonical);
      breaker_.record_success();
      return EvalResult{std::move(fc), true};
    } catch (...) {
      backend_failures_.inc();
      breaker_.record_failure();
      if (attempt >= config_.backend_max_retries) break;
      ++attempt;
      backend_retries_.inc();
      const double delay = backoff_delay(attempt);
      if (delay > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
      if (!breaker_.allow()) break;  // tripped open mid-retry: stop hammering
    }
  }
  return degrade_or_throw(model, canonical, "simulated backend failed");
}

core::MigrationForecast PredictionService::evaluate(const core::MigrationScenario& sc) {
  WAVM3_OBS_SPAN(span, "serve", "evaluate");
  const core::MigrationScenario canonical = canonicalize(sc, config_.quantization_step);
  const CoefficientStore::Snapshot snap = store_.snapshot();
  const ScenarioKey key(snap.version, canonical);
  if (cache_ != nullptr) {
    if (std::optional<core::MigrationForecast> hit = cache_->get(key)) {
      span.note("source", "cache");
      return *hit;
    }
  }
  EvalResult result = compute(*snap.model, canonical);
  const char* computed = config_.fidelity == Fidelity::kSimulated ? "backend" : "planner";
  span.note("source", result.cacheable ? computed : "fallback");
  if (result.cacheable && cache_ != nullptr) cache_->put(key, result.forecast);
  return result.forecast;
}

core::MigrationForecast PredictionService::predict(const core::MigrationScenario& sc) {
  // No span of its own: "evaluate" covers the whole call and carries
  // the source annotation, so a second span would only double the
  // hot-path tracing cost.
  const EndpointTimer timer(endpoint_latency_[kPredictEndpoint]);
  return evaluate(sc);
}

void PredictionService::check_deadline(std::chrono::steady_clock::time_point enqueued,
                                       double deadline_s, const char* waited_how) {
  if (deadline_s <= 0.0) return;
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - enqueued).count();
  if (waited <= deadline_s) return;
  // The request spent its whole budget waiting; answering it now would
  // only delay live requests behind it.
  deadline_expired_.inc();
  WAVM3_OBS_INSTANT("serve", "deadline_expired");
  throw PredictError(PredictErrorCode::kDeadlineExceeded,
                     util::format("%s %.1f ms past a %.1f ms deadline", waited_how,
                                  waited * 1e3, deadline_s * 1e3));
}

void PredictionService::run_job(const core::MigrationScenario& scenario, double deadline_s,
                                std::chrono::steady_clock::time_point enqueued,
                                std::uint64_t enqueued_ns,
                                std::promise<core::MigrationForecast>& promise) {
  const EndpointTimer timer(endpoint_latency_[kSubmitEndpoint]);
  {
    obs::Tracer& tr = obs::tracer();
    if (tr.enabled()) {
      const std::uint64_t now = obs::now_ns();
      tr.emit_complete("serve", "queue_wait", enqueued_ns,
                       now > enqueued_ns ? now - enqueued_ns : 0);
    }
  }
  try {
    check_deadline(enqueued, deadline_s, "queued");
    promise.set_value(evaluate(scenario));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
}

std::optional<std::future<core::MigrationForecast>> PredictionService::enqueue(
    const core::MigrationScenario& sc, double deadline_s, bool block) {
  // Fast path: a cache hit is answered on the caller's thread,
  // skipping the queue round trip entirely (hits also dodge
  // backpressure, which is the point — only real work queues). A
  // shut-down service must reject even hits, so the pool is consulted
  // first. Hits are deliberately not traced per-event: a hit is
  // sub-µs, so one instant would roughly double its cost; hits show
  // up in the cache gauges instead. The "submit" instant marks queue
  // entry.
  if (cache_ != nullptr && pool_.accepting()) {
    const core::MigrationScenario canonical = canonicalize(sc, config_.quantization_step);
    const CoefficientStore::Snapshot snap = store_.snapshot();
    if (std::optional<core::MigrationForecast> hit =
            cache_->peek(ScenarioKey(snap.version, canonical))) {
      const EndpointTimer timer(endpoint_latency_[kSubmitEndpoint]);
      std::promise<core::MigrationForecast> ready;
      ready.set_value(*hit);
      return ready.get_future();
    }
  }
  WAVM3_OBS_INSTANT("serve", "submit");
  const std::chrono::steady_clock::time_point enqueued = std::chrono::steady_clock::now();
  const std::uint64_t enqueued_ns = obs::now_ns();
  std::promise<core::MigrationForecast> promise;
  std::future<core::MigrationForecast> future = promise.get_future();
  UniqueFunction job([this, sc, deadline_s, enqueued, enqueued_ns,
                      promise = std::move(promise)]() mutable {
    run_job(sc, deadline_s, enqueued, enqueued_ns, promise);
  });
  if (block ? pool_.submit(std::move(job)) : pool_.try_submit(std::move(job))) return future;
  // A blocking submit only fails once the pool is shut down; a
  // non-blocking one also fails on a full queue, which is load shed.
  if (pool_.accepting()) {
    shed_.inc();
    WAVM3_OBS_INSTANT("serve", "shed");
  } else {
    rejected_after_shutdown_.inc();
  }
  return std::nullopt;
}

std::future<core::MigrationForecast> PredictionService::submit(
    const core::MigrationScenario& sc) {
  return submit(sc, config_.default_deadline_s);
}

std::future<core::MigrationForecast> PredictionService::submit(
    const core::MigrationScenario& sc, double deadline_s) {
  if (std::optional<std::future<core::MigrationForecast>> queued =
          enqueue(sc, deadline_s, /*block=*/true)) {
    return std::move(*queued);
  }
  // Pool already shut down: fail the request instead of hanging.
  std::promise<core::MigrationForecast> failed;
  failed.set_exception(std::make_exception_ptr(
      PredictError(PredictErrorCode::kShutdown, "prediction service is shut down")));
  return failed.get_future();
}

std::optional<std::future<core::MigrationForecast>> PredictionService::try_submit(
    const core::MigrationScenario& sc) {
  return enqueue(sc, config_.default_deadline_s, /*block=*/false);
}

void PredictionService::run_batch_chunk(const CoefficientStore::Snapshot& snap,
                                        std::span<const BatchWorkItem> chunk,
                                        std::span<BatchItem> results,
                                        std::chrono::steady_clock::time_point enqueued,
                                        double deadline_s) {
  WAVM3_OBS_SPAN(span, "serve", "batch_chunk");
  const std::uint64_t started_ns = obs::now_ns();
  h_batch_size_.observe(static_cast<double>(chunk.size()));
  for (const BatchWorkItem& item : chunk) {
    BatchItem& slot = results[item.slot];
    slot = BatchItem{};
    try {
      check_deadline(enqueued, deadline_s, "batched");
      EvalResult computed = compute(*snap.model, *item.canonical);
      if (computed.cacheable && cache_ != nullptr) {
        cache_->put(ScenarioKey(snap.version, *item.canonical), computed.forecast);
      }
      slot.forecast = std::move(computed.forecast);
    } catch (const PredictError& e) {
      slot.error = e;
    } catch (const std::exception& e) {
      slot.error = PredictError(PredictErrorCode::kBackendFailure, e.what());
    }
  }
  const std::uint64_t elapsed_ns = obs::now_ns() - started_ns;
  const double amortized = static_cast<double>(elapsed_ns) / static_cast<double>(chunk.size());
  h_batch_item_latency_.observe_n(amortized, chunk.size());
}

void PredictionService::price_batch_inline(const CoefficientStore::Snapshot& snap,
                                           BatchScratch& scratch,
                                           std::span<BatchItem> results) {
  const std::span<const BatchWorkItem> work = scratch.work;
  WAVM3_OBS_SPAN(span, "serve", "batch_inline");
  span.arg("items", static_cast<double>(results.size()));
  span.arg("distinct", static_cast<double>(work.size()));
  const std::uint64_t started_ns = obs::now_ns();
  h_batch_size_.observe(static_cast<double>(work.size()));
  const core::MigrationPlanner planner(*snap.model);
  scratch.priced.clear();
  for (const BatchWorkItem& item : work) scratch.priced.push_back(item.canonical);
  scratch.forecasts.resize(work.size());
  try {
    planner.forecast_batch(scratch.priced, scratch.forecasts);
    for (std::size_t w = 0; w < work.size(); ++w) {
      BatchItem& slot = results[work[w].slot];
      slot.error.reset();
      slot.forecast = scratch.forecasts[w];
    }
  } catch (const std::exception&) {
    // Some scenario is out of the planner's contract: price one at a
    // time, so its error lands in its own slots only.
    for (const BatchWorkItem& item : work) {
      BatchItem& slot = results[item.slot];
      slot = BatchItem{};
      try {
        slot.forecast = planner.forecast(*item.canonical);
      } catch (const std::exception& e) {
        slot.error = PredictError(PredictErrorCode::kBackendFailure, e.what());
      }
    }
  }
  const std::uint64_t elapsed_ns = obs::now_ns() - started_ns;
  const double amortized = static_cast<double>(elapsed_ns) / static_cast<double>(work.size());
  h_batch_item_latency_.observe_n(amortized, work.size());
}

PredictionService::BatchScratch& PredictionService::batch_scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

namespace {

/// Slot marker: answered inline from the cache, no work item.
constexpr std::size_t kCacheHit = static_cast<std::size_t>(-1);

/// Batch-local dedup hash of a scenario's key fields (one batch has one
/// model version, so the version is left out). Four independent
/// multiply-xorshift lanes, folded at the end: the 33 steps form four
/// short dependency chains instead of ScenarioKeyHash's one long one.
std::uint64_t dedup_hash(const std::array<double, kScenarioFieldCount>& fields) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t lane[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                           0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  std::size_t i = 0;
  for (; i + 4 <= kScenarioFieldCount; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      lane[l] = (lane[l] ^ field_bits(fields[i + l])) * kMul;
      lane[l] ^= lane[l] >> 29U;
    }
  }
  for (; i < kScenarioFieldCount; ++i) lane[0] = (lane[0] ^ field_bits(fields[i])) * kMul;
  return util::splitmix64(lane[0] ^ std::rotl(lane[1], 16) ^ std::rotl(lane[2], 32) ^
                          std::rotl(lane[3], 48));
}

}  // namespace

void PredictionService::predict_batch_results(
    std::span<const core::MigrationScenario> scenarios, std::span<BatchItem> results) {
  WAVM3_REQUIRE(results.size() == scenarios.size(),
                "predict_batch: results size mismatch");
  const EndpointTimer timer(endpoint_latency_[kBatchEndpoint]);
  if (scenarios.empty()) return;

  // One snapshot for the whole batch: every scenario is priced — and,
  // at simulated fidelity, cached — under the same coefficient
  // version, even if a reload lands mid-batch.
  const CoefficientStore::Snapshot snap = store_.snapshot();
  const bool simulated = config_.fidelity == Fidelity::kSimulated;

  // Per-thread grow-only workspace: clearing keeps the capacity, so a
  // steady-state batch reuses every buffer. The dedup table is open
  // addressing over a power-of-two slot vector (an unordered_map here
  // would allocate a node per insert, every call). Only the smallest
  // power of two >= 2n slots (at least 16) is cleared and probed, so a
  // thread that once served a huge batch does not clear that whole
  // table again for every small one.
  BatchScratch& scratch = batch_scratch();
  scratch.work.clear();
  scratch.item_of.resize(scenarios.size());
  std::size_t table_size = 16;
  while (table_size < 2 * scenarios.size()) table_size *= 2;
  if (scratch.dedup.size() < table_size) scratch.dedup.resize(table_size);
  std::fill_n(scratch.dedup.begin(), table_size, 0);
  const std::size_t mask = table_size - 1;
  // canonicalize() is the identity without quantization, so the inputs
  // themselves are keyed and priced.
  const bool quantized = config_.quantization_step > 0.0;
  if (quantized) scratch.canonical.resize(scenarios.size());

  // Inline phase: canonicalize, deduplicate (a repeated scenario is
  // priced once and fanned out), and at simulated fidelity probe the
  // cache.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const core::MigrationScenario* canonical = &scenarios[i];
    if (quantized) {
      scratch.canonical[i] = canonicalize(scenarios[i], config_.quantization_step);
      canonical = &scratch.canonical[i];
    }
    const std::array<double, kScenarioFieldCount> fields = scenario_fields(*canonical);
    const std::uint64_t hash = dedup_hash(fields);
    std::size_t probe = hash & mask;
    std::size_t found = kCacheHit;
    while (scratch.dedup[probe] != 0) {
      const std::size_t w = scratch.dedup[probe] - 1;
      if (scratch.work[w].hash == hash &&
          same_fields(scenario_fields(*scratch.work[w].canonical), fields)) {
        found = w;
        break;
      }
      probe = (probe + 1) & mask;
    }
    if (found != kCacheHit) {
      scratch.item_of[i] = found;
      continue;
    }
    if (simulated && cache_ != nullptr) {
      if (std::optional<core::MigrationForecast> hit =
              cache_->get(ScenarioKey(snap.version, fields))) {
        results[i] = BatchItem{};
        results[i].forecast = std::move(*hit);
        scratch.item_of[i] = kCacheHit;
        continue;
      }
    }
    scratch.item_of[i] = scratch.work.size();
    scratch.dedup[probe] = scratch.work.size() + 1;
    scratch.work.push_back(BatchWorkItem{canonical, i, hash});
  }
  if (scratch.work.empty()) return;

  const auto reject_after_shutdown = [&](std::span<const BatchWorkItem> items) {
    for (const BatchWorkItem& item : items) {
      rejected_after_shutdown_.inc();
      results[item.slot] = BatchItem{};
      results[item.slot].error =
          PredictError(PredictErrorCode::kShutdown, "prediction service is shut down");
    }
  };
  if (!simulated) {
    // A closed-form batch never queues, but a shut-down service still
    // rejects it like any other request.
    if (pool_.accepting()) {
      price_batch_inline(snap, scratch, results);
    } else {
      reject_after_shutdown(scratch.work);
    }
  } else {
    // Fan the misses out in chunks of batch_max_size, one worker task
    // per chunk; per-chunk promises both signal completion and publish
    // the workers' slot writes to this thread.
    const double deadline_s = config_.default_deadline_s;
    const std::chrono::steady_clock::time_point enqueued = std::chrono::steady_clock::now();
    scratch.completions.clear();
    for (std::size_t begin = 0; begin < scratch.work.size();
         begin += config_.batch_max_size) {
      const std::size_t count = std::min(config_.batch_max_size, scratch.work.size() - begin);
      const std::span<const BatchWorkItem> chunk(scratch.work.data() + begin, count);
      std::promise<void> done;
      scratch.completions.push_back(done.get_future());
      const bool queued = pool_.submit(
          [this, &snap, chunk, results, enqueued, deadline_s,
           done = std::move(done)]() mutable {
            run_batch_chunk(snap, chunk, results, enqueued, deadline_s);
            done.set_value();
          });
      if (!queued) {
        scratch.completions.pop_back();
        reject_after_shutdown(chunk);
      }
    }
    for (std::future<void>& f : scratch.completions) f.get();
    scratch.completions.clear();
  }

  // Copy each first occurrence's answer to the duplicates that mapped
  // to it.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::size_t w = scratch.item_of[i];
    if (w != kCacheHit && scratch.work[w].slot != i) results[i] = results[scratch.work[w].slot];
  }
}

std::vector<PredictionService::BatchItem> PredictionService::predict_batch_results(
    const std::vector<core::MigrationScenario>& scenarios) {
  std::vector<BatchItem> results(scenarios.size());
  predict_batch_results(std::span<const core::MigrationScenario>(scenarios),
                        std::span<BatchItem>(results));
  return results;
}

std::vector<core::MigrationForecast> PredictionService::predict_batch(
    const std::vector<core::MigrationScenario>& scenarios) {
  std::vector<BatchItem> items = predict_batch_results(scenarios);
  std::vector<core::MigrationForecast> out;
  out.reserve(items.size());
  for (BatchItem& item : items) {
    if (item.error.has_value()) throw *item.error;
    out.push_back(std::move(*item.forecast));
  }
  return out;
}

std::uint64_t PredictionService::swap_model(
    std::shared_ptr<const core::Wavm3Model> model) {
  return store_.swap(std::move(model));
}

void PredictionService::set_feedback_sink(FeedbackSink sink) {
  auto shared = std::make_shared<const FeedbackSink>(std::move(sink));
  std::lock_guard<std::mutex> lock(feedback_mutex_);
  feedback_sink_ = std::move(shared);
}

bool PredictionService::record_feedback(const core::MigrationScenario& scenario,
                                        const MigrationFeedback& feedback) {
  // Screen corrupt samples before they cost a queue slot: a telemetry
  // glitch must not be able to poison a recalibration window.
  const bool valid = std::isfinite(feedback.source_energy_j) &&
                     std::isfinite(feedback.target_energy_j) &&
                     std::isfinite(feedback.duration_s) && feedback.duration_s > 0.0;
  std::shared_ptr<const FeedbackSink> sink;
  {
    std::lock_guard<std::mutex> lock(feedback_mutex_);
    sink = feedback_sink_;
  }
  if (!valid || sink == nullptr || !*sink) {
    feedback_dropped_.inc();
    return false;
  }
  // The job owns its copy of the sink handle, so a racing replacement
  // never invalidates a sample already in flight.
  const bool queued = pool_.try_submit([this, sink = std::move(sink), scenario, feedback] {
    WAVM3_OBS_SPAN(span, "serve", "feedback");
    try {
      (*sink)(scenario, feedback);
    } catch (...) {
      // A throwing sink is the consumer's bug, but an uncaught
      // exception here would terminate the worker thread — count it
      // and keep serving.
      feedback_errors_.inc();
    }
  });
  if (!queued) {
    feedback_dropped_.inc();
    return false;
  }
  feedback_accepted_.inc();
  return true;
}

void PredictionService::open_stream(std::uint64_t session,
                                    const core::MigrationScenario& scenario) {
  // One snapshot prices the whole open: the baseline forecast and both
  // roles' representative features come from the same coefficients.
  const CoefficientStore::Snapshot snap = store_.snapshot();
  const core::MigrationForecast fc = core::MigrationPlanner(*snap.model).forecast(scenario);
  stream::SessionOptions options;
  options.type = scenario.type;
  options.scenario = scenario;
  options.source_prior =
      stream::PhasePrior::from_scenario(scenario, fc, models::HostRole::kSource);
  options.target_prior =
      stream::PhasePrior::from_scenario(scenario, fc, models::HostRole::kTarget);
  options.baseline_total_j = fc.total_energy();
  options.expected_total_s = fc.times.total_duration();
  stream_registry_.open(session, std::move(options));
  g_stream_sessions_.set(static_cast<double>(stream_registry_.active()));
}

void PredictionService::open_stream(std::uint64_t session, migration::MigrationType type,
                                    const migration::PhaseTimestamps& expected_times) {
  stream::SessionOptions options;
  options.type = type;
  options.source_prior = stream::PhasePrior::from_times(expected_times);
  options.target_prior = options.source_prior;
  options.expected_total_s = expected_times.total_duration();
  stream_registry_.open(session, std::move(options));
  g_stream_sessions_.set(static_cast<double>(stream_registry_.active()));
}

void PredictionService::submit_sample(std::uint64_t session, models::HostRole role,
                                      const models::MigrationSample& sample) {
  stream_registry_.submit(session, role, sample);
  stream_samples_.inc();
}

stream::LiveForecast PredictionService::predict_live(std::uint64_t session) {
  const CoefficientStore::Snapshot snap = store_.snapshot();
  stream::LiveForecast fc = stream_registry_.predict(session, *snap.model);
  h_stream_revision_delta_.observe(fc.delta_watts);
  return fc;
}

PredictionService::StreamCloseReport PredictionService::close_stream(
    std::uint64_t session) {
  StreamCloseReport report;
  const std::shared_ptr<stream::StreamSession> closed = stream_registry_.close(session);
  g_stream_sessions_.set(static_cast<double>(stream_registry_.active()));
  report.summary = closed->summary();
  // A session opened with a scenario and long enough to measure
  // becomes ground truth: the meters' energy integrals feed the same
  // record_feedback() path external reports use, so the calib sink
  // (when installed) ingests streamed migrations automatically.
  if (closed->options().scenario.has_value() && report.summary.duration_s > 0.0) {
    MigrationFeedback feedback;
    feedback.source_energy_j = report.summary.observed_source_j;
    feedback.target_energy_j = report.summary.observed_target_j;
    feedback.duration_s = report.summary.duration_s;
    report.feedback_recorded = record_feedback(*closed->options().scenario, feedback);
  }
  return report;
}

ServiceStats PredictionService::stats() const {
  ServiceStats s;
  if (cache_ != nullptr) s.cache = cache_->stats();
  s.queue_depth = pool_.queue_depth();
  s.threads = pool_.threads();
  s.model_version = store_.version();
  s.resilience.deadline_expired = deadline_expired_.value();
  s.resilience.shed = shed_.value();
  s.resilience.rejected_after_shutdown = rejected_after_shutdown_.value();
  s.resilience.backend_failures = backend_failures_.value();
  s.resilience.backend_retries = backend_retries_.value();
  s.resilience.degraded_to_closed_form = degraded_.value();
  s.resilience.breaker_open_transitions = breaker_.open_transitions();
  s.resilience.breaker_rejections = breaker_.rejections();
  s.resilience.breaker_state = to_string(breaker_.state());
  return s;
}

std::string PredictionService::metrics_table() const {
  const std::uint64_t now_ns = obs::now_ns();
  const double elapsed_s =
      now_ns > started_ns_ ? static_cast<double>(now_ns - started_ns_) / 1e9 : 0.0;
  std::string out = util::format("%-24s %10s %12s %10s %10s %10s %10s\n", "endpoint",
                                 "requests", "qps", "mean[us]", "p50[us]", "p95[us]",
                                 "p99[us]");
  for (int e = 0; e < kEndpointCount; ++e) {
    const obs::HistogramSnapshot snap = endpoint_latency_[e]->snapshot();
    const double n = static_cast<double>(snap.count);
    out += util::format("%-24s %10llu %12.1f %10.1f %10.1f %10.1f %10.1f\n",
                        kEndpointNames[e], static_cast<unsigned long long>(snap.count),
                        elapsed_s > 0.0 ? n / elapsed_s : 0.0,
                        snap.count == 0 ? 0.0 : snap.sum / n / 1e3,
                        snap.quantile_upper_bound(0.50) / 1e3,
                        snap.quantile_upper_bound(0.95) / 1e3,
                        snap.quantile_upper_bound(0.99) / 1e3);
  }
  const ServiceStats s = stats();
  out += util::format(
      "\ncache    : %llu hits, %llu misses (%.1f%% hit rate), %llu insertions, "
      "%llu evictions\n",
      static_cast<unsigned long long>(s.cache.hits),
      static_cast<unsigned long long>(s.cache.misses), s.cache.hit_rate() * 100.0,
      static_cast<unsigned long long>(s.cache.insertions),
      static_cast<unsigned long long>(s.cache.evictions));
  out += util::format("workers  : %d threads, queue depth %zu\n", s.threads, s.queue_depth);
  out += util::format("coeffs   : version %llu\n",
                      static_cast<unsigned long long>(s.model_version));
  const ResilienceStats& r = s.resilience;
  out += util::format(
      "breaker  : %s, %llu open transitions, %llu rejections\n",
      r.breaker_state.c_str(), static_cast<unsigned long long>(r.breaker_open_transitions),
      static_cast<unsigned long long>(r.breaker_rejections));
  out += util::format(
      "resilience: %llu backend failures (%llu retries), %llu degraded to closed-form, "
      "%llu deadline-expired, %llu shed, %llu rejected-after-shutdown\n",
      static_cast<unsigned long long>(r.backend_failures),
      static_cast<unsigned long long>(r.backend_retries),
      static_cast<unsigned long long>(r.degraded_to_closed_form),
      static_cast<unsigned long long>(r.deadline_expired),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.rejected_after_shutdown));
  return out;
}

void PredictionService::refresh_gauges() const {
  CacheStats cs;
  if (cache_ != nullptr) cs = cache_->stats();
  g_cache_hits_.set(static_cast<double>(cs.hits));
  g_cache_misses_.set(static_cast<double>(cs.misses));
  g_cache_insertions_.set(static_cast<double>(cs.insertions));
  g_cache_evictions_.set(static_cast<double>(cs.evictions));
  g_queue_depth_.set(static_cast<double>(pool_.queue_depth()));
  g_threads_.set(static_cast<double>(pool_.threads()));
  g_coeff_version_.set(static_cast<double>(store_.version()));
  g_breaker_open_transitions_.set(static_cast<double>(breaker_.open_transitions()));
  g_breaker_rejections_.set(static_cast<double>(breaker_.rejections()));
  g_breaker_state_.set(static_cast<double>(static_cast<int>(breaker_.state())));
  g_stream_sessions_.set(static_cast<double>(stream_registry_.active()));
}

std::string PredictionService::metrics_prometheus() const {
  refresh_gauges();
  return obs::prometheus_text(obs_metrics_);
}

std::string PredictionService::metrics_json() const {
  refresh_gauges();
  return obs::json_snapshot(obs_metrics_);
}

void PredictionService::shutdown(DrainMode mode) { pool_.shutdown(mode); }

}  // namespace wavm3::serve
