// The prediction service: a thread-safe, in-process server answering
// "what would this migration cost?" queries against core::Wavm3Model +
// core::MigrationPlanner at high throughput.
//
//   - predict()        synchronous, runs on the caller's thread
//   - submit()         asynchronous, executed by the worker pool,
//                      backpressured by the bounded queue
//   - predict_batch()  dedups repeated scenarios under one coefficient
//                      snapshot, then prices the distinct ones by
//                      fidelity: closed form inline on the caller's
//                      thread, with no cache and no pool; simulated
//                      through the cache, the misses in worker tasks
//                      of <= batch_max_size scenarios each. Results
//                      are per slot either way.
//
// predict(), submit(), try_submit() and simulated batches share one
// sharded LRU result cache (keyed on the quantized scenario +
// coefficient version, see scenario_key.hpp). All entry points share
// one RCU-style coefficient store: reload()/swap_model() publish new
// coefficients without blocking in-flight predictions, and the version
// baked into every cache key retires stale results automatically.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "obs/metrics.hpp"
#include "serve/breaker.hpp"
#include "serve/coeff_store.hpp"
#include "serve/errors.hpp"
#include "serve/lru_cache.hpp"
#include "serve/scenario_key.hpp"
#include "serve/thread_pool.hpp"
#include "stream/session.hpp"

namespace wavm3::serve {

/// How a query is answered.
enum class Fidelity {
  kClosedForm,  ///< core::MigrationPlanner (sub-microsecond, approximate)
  kSimulated,   ///< full engine run per miss (see sim_backend.hpp; exact,
                ///< orders of magnitude slower — caching is essential)
};

/// Replacement backend for Fidelity::kSimulated — the test/bench hook
/// used to inject failing or slow backends. Exceptions thrown here
/// drive the retry / breaker / degradation ladder.
using SimulatedBackend = std::function<core::MigrationForecast(
    const core::Wavm3Model&, const core::MigrationScenario&)>;

struct ServiceConfig {
  int threads = 4;                   ///< worker pool size
  std::size_t queue_capacity = 1024; ///< pending async requests before backpressure
  /// Total cached forecasts; 0 disables caching. Batches use the
  /// cache at simulated fidelity only: a closed-form batch prices its
  /// distinct scenarios inline without reading or filling it.
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 8;
  /// Relative pitch of the cache-key feature grid (see
  /// scenario_key.hpp). 0 = exact keys, results bit-identical to
  /// direct planner calls.
  double quantization_step = 0.0;
  Fidelity fidelity = Fidelity::kClosedForm;
  /// Largest number of deduplicated cache-missed scenarios one worker
  /// task evaluates in a simulated-fidelity predict_batch(). Bigger
  /// batches amortize the per-task overhead; smaller ones spread a
  /// batch across more workers. Closed-form batches never reach the
  /// pool, so it does not apply to them.
  std::size_t batch_max_size = 32;

  // --- graceful degradation ladder ---
  /// Per-request deadline in seconds, measured from submission. A
  /// request that is still queued past its deadline fails with
  /// kDeadlineExceeded instead of occupying a worker (expired work is
  /// worthless — answering it late just delays live requests).
  /// 0 disables deadlines. submit() has a per-request override.
  /// Batches check it at simulated fidelity only: a closed-form batch
  /// never queues, so it cannot spend its deadline.
  double default_deadline_s = 0.0;
  /// Sim-backend retry budget per request; retries back off
  /// exponentially with deterministic jitter.
  int backend_max_retries = 2;
  double backend_backoff_initial_s = 0.002;
  double backend_backoff_multiplier = 2.0;
  /// Hard ceiling on any single backoff sleep, applied after jitter.
  /// pow(multiplier, attempt-1) overflows toward inf within a few
  /// dozen attempts of a 2x multiplier; without the cap a large retry
  /// budget turns into an unbounded sleep. 0 disables the cap.
  double backend_backoff_max_s = 30.0;
  /// +/- fraction of each backoff delay (0 = none, 1 = full). Jitter
  /// is drawn from a seeded stream, so runs are reproducible.
  double backend_backoff_jitter = 0.5;
  std::uint64_t backend_backoff_seed = 2015;
  /// When the sim backend fails past its retries — or the breaker is
  /// open — answer at closed-form fidelity instead of failing the
  /// request (the bottom rung of the ladder: an approximate answer
  /// now beats no answer). Degraded answers are never cached.
  bool degrade_to_closed_form = true;
  CircuitBreakerConfig breaker = {};
  /// Null = the real serve::simulate_forecast engine backend.
  SimulatedBackend simulated_backend = {};

  // --- live streaming (src/stream/) ---
  /// Session registry behind open_stream()/submit_sample()/
  /// predict_live(): extractor timestamp semantics, session bound and
  /// eviction policy, ring capacity, degeneration thresholds.
  stream::RegistryConfig stream = {};
};

/// One observed migration outcome reported back to the service:
/// ground-truth energy/duration for a scenario the model predicted.
/// Consumed by the recalibration subsystem (src/calib/) through the
/// feedback sink — the service itself only routes it.
struct MigrationFeedback {
  double source_energy_j = 0.0;  ///< measured source-host energy
  double target_energy_j = 0.0;  ///< measured target-host energy
  double duration_s = 0.0;       ///< measured total migration time
};

/// Consumer of feedback samples. Runs on a worker-pool thread;
/// implementations must be thread-safe and should return quickly
/// (buffer the sample, do heavy refits elsewhere). Exceptions are
/// caught and counted, never propagated to the pool.
using FeedbackSink =
    std::function<void(const core::MigrationScenario&, const MigrationFeedback&)>;

/// Counters of the degradation ladder (all monotonic).
struct ResilienceStats {
  std::uint64_t deadline_expired = 0;   ///< failed with kDeadlineExceeded
  std::uint64_t shed = 0;               ///< try_submit: queue full
  std::uint64_t rejected_after_shutdown = 0;
  std::uint64_t backend_failures = 0;   ///< individual sim-backend call failures
  std::uint64_t backend_retries = 0;    ///< backoff retries taken
  std::uint64_t degraded_to_closed_form = 0;  ///< kSimulated answered closed-form
  std::uint64_t breaker_open_transitions = 0;
  std::uint64_t breaker_rejections = 0;  ///< backend calls skipped while open
  std::string breaker_state = "closed";
};

/// Point-in-time operational snapshot.
struct ServiceStats {
  CacheStats cache;
  std::size_t queue_depth = 0;
  int threads = 0;
  std::uint64_t model_version = 0;
  ResilienceStats resilience;
};

class PredictionService {
 public:
  /// Serves from a copy of `model` (must be fitted).
  explicit PredictionService(const core::Wavm3Model& model, ServiceConfig config = {});
  PredictionService(std::shared_ptr<const core::Wavm3Model> model, ServiceConfig config);

  /// Drains outstanding requests, then joins the workers.
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Synchronous forecast on the caller's thread (still cached).
  core::MigrationForecast predict(const core::MigrationScenario& scenario);

  /// Asynchronous forecast on the worker pool. Blocks only when the
  /// queue is full (backpressure). After shutdown the returned future
  /// carries PredictError(kShutdown) (a std::runtime_error, as
  /// before). Uses config().default_deadline_s.
  std::future<core::MigrationForecast> submit(const core::MigrationScenario& scenario);

  /// Same, with an explicit deadline (seconds from now; <= 0 = none).
  /// A request still queued past its deadline fails with
  /// PredictError(kDeadlineExceeded).
  std::future<core::MigrationForecast> submit(const core::MigrationScenario& scenario,
                                              double deadline_s);

  /// Non-blocking submit: never applies backpressure. Returns nullopt
  /// when the queue is full (the request is shed and counted in
  /// ResilienceStats::shed) or the service is shut down. Cache hits
  /// are still answered inline on the caller's thread.
  std::optional<std::future<core::MigrationForecast>> try_submit(
      const core::MigrationScenario& scenario);

  /// One slot of a predict_batch_results() answer: exactly one of
  /// `forecast` or `error` is set. Slot i always corresponds to
  /// scenarios[i], so one failing scenario does not invalidate the
  /// rest of the batch.
  struct BatchItem {
    std::optional<core::MigrationForecast> forecast;
    std::optional<PredictError> error;
    bool ok() const { return forecast.has_value(); }
  };

  /// Batched prediction with per-slot semantics. Every call takes one
  /// coefficient snapshot and dedups identical (quantized) scenarios;
  /// duplicates copy the answer of their first occurrence. Where the
  /// distinct scenarios are priced depends on config().fidelity:
  ///   - closed form: inline on the caller's thread through
  ///     core::MigrationPlanner::forecast_batch, bit-identical to
  ///     forecast() of each scenario. The result cache is neither read
  ///     nor filled, nothing is queued and no deadline applies (the
  ///     batch never waits).
  ///   - simulated: cache hits are answered on the caller's thread;
  ///     the misses run in worker tasks of up to
  ///     config().batch_max_size scenarios each, with the per-item
  ///     deadline and the retry/breaker/degradation ladder, and
  ///     cacheable answers fill the cache.
  /// Per-item failures (deadline, backend, shutdown) land as typed
  /// PredictError values in their slots; the rest of the batch still
  /// completes. After shutdown every slot fails with kShutdown.
  /// `results` must have scenarios.size() slots and is index-aligned
  /// with `scenarios`.
  ///
  /// This span core is the zero-allocation steady-state entry point
  /// (pinned by tests/serve_alloc_test.cpp): the work list, dedup
  /// table, and slot mapping live in a grow-only per-thread workspace,
  /// so once the workspace has grown to the batch shape a closed-form
  /// call performs no heap allocation at all, and neither does a
  /// simulated call whose scenarios all hit the warmed cache.
  /// Simulated misses still allocate (futures and pool jobs), bounded
  /// and amortized by the cache.
  void predict_batch_results(std::span<const core::MigrationScenario> scenarios,
                             std::span<BatchItem> results);

  /// Convenience wrapper allocating the result vector.
  std::vector<BatchItem> predict_batch_results(
      const std::vector<core::MigrationScenario>& scenarios);

  /// All-or-nothing wrapper over predict_batch_results(): returns the
  /// forecasts in input order, or throws the lowest-index slot's
  /// PredictError.
  std::vector<core::MigrationForecast> predict_batch(
      const std::vector<core::MigrationScenario>& scenarios);

  /// Publishes coefficients from a CSV (throws util::ContractError on
  /// bad input, current coefficients stay live). Never blocks
  /// in-flight predictions. Returns the new coefficient version.
  std::uint64_t reload(const std::string& coeffs_csv_path);

  /// Publishes an already-built model (must be fitted).
  std::uint64_t swap_model(std::shared_ptr<const core::Wavm3Model> model);

  std::uint64_t model_version() const { return store_.version(); }

  /// The RCU coefficient store behind reload()/swap_model(). Exposed
  /// so the recalibration loop can snapshot the incumbent model and
  /// publish/roll back candidates with compare-on-version semantics.
  CoefficientStore& coeff_store() { return store_; }

  /// Installs the consumer of record_feedback() samples (replacing any
  /// previous one). The sink is invoked on worker-pool threads; pass
  /// a callable that owns (or keeps alive) everything it touches.
  void set_feedback_sink(FeedbackSink sink);

  /// Removes the sink; subsequent feedback is counted as dropped.
  void clear_feedback_sink();

  /// Reports one observed migration outcome. Non-blocking: the sample
  /// is handed to the worker pool and the sink runs asynchronously.
  /// Returns false — and counts the sample as dropped — when no sink
  /// is installed, the queue is full, or the service is shut down.
  /// Obviously-corrupt samples (non-finite or non-positive duration,
  /// non-finite energies) are rejected up front.
  bool record_feedback(const core::MigrationScenario& scenario,
                       const MigrationFeedback& feedback);

  // --- live mid-migration streaming (src/stream/) ---

  /// Opens a live telemetry session for a migration about to start.
  /// Extrapolation priors, the degeneration baseline, and the
  /// revision-delta normalisation all come from the closed-form
  /// forecast of `scenario` under the current coefficient snapshot.
  /// `plan_vm` tags degeneration alerts with the plan::-side VM id so
  /// the chaos re-plan hook can abort the right move. Throws
  /// stream::StreamError(kDuplicateSession / kSessionLimit).
  void open_stream(std::uint64_t session, const core::MigrationScenario& scenario,
                   int plan_vm = -1);

  /// Opens a session without a scenario (trace replay, unknown
  /// provenance): the prior carries durations only — from the
  /// announced phase timestamps — and close_stream() records no
  /// feedback.
  void open_stream(std::uint64_t session, migration::MigrationType type,
                   const migration::PhaseTimestamps& expected_times);

  /// Feeds one timestamped telemetry sample to one role's meter
  /// stream. Out-of-order timestamps throw util::ContractError,
  /// oversized gaps stream::StreamError(kGapExceeded) — see
  /// stream/incremental.hpp for the full semantics matrix.
  void submit_sample(std::uint64_t session, models::HostRole role,
                     const models::MigrationSample& sample);

  /// Revised live forecast under the current coefficient snapshot —
  /// the same RCU discipline as predict(), so a reload mid-migration
  /// simply prices the next revision with the new coefficients.
  /// Degeneration alerts fire on the returning revision, outside all
  /// stream locks.
  stream::LiveForecast predict_live(std::uint64_t session);

  /// predict_live() on the worker pool, sharing its queue and
  /// backpressure with submit(). After shutdown the returned future
  /// carries PredictError(kShutdown).
  std::future<stream::LiveForecast> submit_predict_live(std::uint64_t session);

  /// What close_stream() did.
  struct StreamCloseReport {
    stream::SessionSummary summary;
    bool feedback_recorded = false;  ///< routed through record_feedback()
  };

  /// Finishes and removes the session. When it was opened with a
  /// scenario and observed any samples, the measured per-role energy
  /// integrals and duration auto-convert into a MigrationFeedback
  /// routed through record_feedback() — i.e. straight into the calib
  /// recalibration ingest when a sink is installed.
  StreamCloseReport close_stream(std::uint64_t session);

  /// Installs the degeneration-alert consumer (replacing any previous
  /// one); e.g. chaos::make_live_abort_hook. Invoked outside all
  /// stream locks, on whichever thread called predict_live().
  void set_degeneration_callback(stream::DegenerationCallback callback);

  /// The registry behind the stream entry points (tests/diagnostics).
  stream::SessionRegistry& stream_registry() { return stream_registry_; }

  ServiceStats stats() const;

  /// Text report: per-endpoint latency/QPS table (QPS since
  /// construction, read through the obs clock) plus cache, queue and
  /// resilience gauges.
  std::string metrics_table() const;

  /// Prometheus text exposition of the service's metric registry
  /// (endpoint latency histograms, resilience counters, cache/queue
  /// gauges).
  std::string metrics_prometheus() const;

  /// JSON snapshot of the same registry.
  std::string metrics_json() const;

  /// The obs registry every service metric lives in. Service-owned
  /// (not the process-global one), so concurrent services in one
  /// process never mix their numbers.
  obs::MetricRegistry& obs_registry() { return obs_metrics_; }

  /// Idempotent. kDrain finishes queued requests; kDiscard abandons
  /// them (their futures see broken_promise).
  void shutdown(DrainMode mode = DrainMode::kDrain);

  const ServiceConfig& config() const { return config_; }

 private:
  struct EvalResult {
    core::MigrationForecast forecast;
    bool cacheable = true;  ///< degraded answers are never cached
  };

  /// Cache-then-compute against the current coefficient snapshot.
  core::MigrationForecast evaluate(const core::MigrationScenario& scenario);

  /// One deduplicated scenario of a predict_batch call. Its answer is
  /// written into `slot`, the first input slot holding the scenario;
  /// the caller then copies it to every later duplicate.
  struct BatchWorkItem {
    const core::MigrationScenario* canonical;  ///< the input itself when unquantized
    std::size_t slot;
    std::uint64_t hash;  ///< batch-local dedup hash of the scenario's key fields
  };

  /// Grow-only per-thread workspace of predict_batch_results. Cleared
  /// (but never shrunk) every call — after the first call of a given
  /// shape the inline phase allocates nothing.
  struct BatchScratch {
    std::vector<BatchWorkItem> work;
    std::vector<core::MigrationScenario> canonical;  ///< per input slot, quantized only
    std::vector<std::size_t> item_of;    ///< per input slot: work index or kCacheHit
    std::vector<std::size_t> dedup;      ///< open-addressing table: work index + 1
    std::vector<std::future<void>> completions;
    std::vector<const core::MigrationScenario*> priced;  ///< closed form: work's scenarios
    std::vector<core::MigrationForecast> forecasts;      ///< closed form: work's answers
  };
  static BatchScratch& batch_scratch();

  /// Closed-form back half of predict_batch_results: prices every
  /// distinct scenario of `scratch.work` under `snap` on the caller's
  /// thread through core::MigrationPlanner::forecast_batch, straight
  /// into its first slot, and records the batch metrics.
  void price_batch_inline(const CoefficientStore::Snapshot& snap, BatchScratch& scratch,
                          std::span<BatchItem> results);

  /// Worker-side body of one simulated predict_batch chunk: per-item
  /// deadline check, compute under the shared `snap`, per-item cache
  /// fill, and batch metrics. Each answer lands in its item's slot of
  /// `results`.
  void run_batch_chunk(const CoefficientStore::Snapshot& snap,
                       std::span<const BatchWorkItem> chunk, std::span<BatchItem> results,
                       std::chrono::steady_clock::time_point enqueued, double deadline_s);

  /// The configured backend (planner, or engine simulation behind the
  /// retry/breaker/degradation ladder).
  EvalResult compute(const core::Wavm3Model& model, const core::MigrationScenario& canonical);

  /// Bottom rung: closed-form answer (uncacheable) when degradation is
  /// enabled, PredictError(kBackendFailure) otherwise.
  EvalResult degrade_or_throw(const core::Wavm3Model& model,
                              const core::MigrationScenario& canonical, const char* why);

  /// Backoff delay before retry `attempt` (1-based), jittered from the
  /// seeded stream.
  double backoff_delay(int attempt);

  /// submit()/try_submit(): a cache hit is answered inline, a miss
  /// queues run_job(), waiting for room when `block`. Returns nullopt,
  /// counted as shed (queue full) or rejected (shut down), on refusal.
  std::optional<std::future<core::MigrationForecast>> enqueue(
      const core::MigrationScenario& scenario, double deadline_s, bool block);

  /// Worker-side body of submit/try_submit jobs (deadline check, then
  /// evaluate into the promise). `enqueued_ns` is the obs-clock
  /// submission timestamp used for the queue-wait trace span.
  void run_job(const core::MigrationScenario& scenario, double deadline_s,
               std::chrono::steady_clock::time_point enqueued, std::uint64_t enqueued_ns,
               std::promise<core::MigrationForecast>& promise);

  /// Counts and throws PredictError(kDeadlineExceeded) once work
  /// enqueued at `enqueued` has waited past `deadline_s` (> 0).
  void check_deadline(std::chrono::steady_clock::time_point enqueued, double deadline_s,
                      const char* waited_how);

  /// Copies cache/queue/breaker state into the registered gauges so an
  /// export reflects the moment it was taken.
  void refresh_gauges() const;

  ServiceConfig config_;
  CoefficientStore store_;
  std::unique_ptr<ShardedLruCache<ScenarioKey, core::MigrationForecast, ScenarioKeyHash>>
      cache_;  ///< null when cache_capacity == 0
  obs::MetricRegistry obs_metrics_;  ///< backs every metric below
  CircuitBreaker breaker_;
  // Resilience counters, registered in obs_metrics_ so they show up in
  // the Prometheus/JSON exports; stats() reads the same storage.
  obs::Counter& deadline_expired_;
  obs::Counter& shed_;
  obs::Counter& rejected_after_shutdown_;
  obs::Counter& backend_failures_;
  obs::Counter& backend_retries_;
  obs::Counter& degraded_;
  obs::Gauge& g_cache_hits_;
  obs::Gauge& g_cache_misses_;
  obs::Gauge& g_cache_insertions_;
  obs::Gauge& g_cache_evictions_;
  obs::Gauge& g_queue_depth_;
  obs::Gauge& g_threads_;
  obs::Gauge& g_coeff_version_;
  obs::Gauge& g_breaker_open_transitions_;
  obs::Gauge& g_breaker_rejections_;
  obs::Gauge& g_breaker_state_;  ///< CircuitBreaker::State as 0/1/2
  obs::Histogram& h_batch_size_;          ///< scenarios per pool task or inline batch
  obs::Histogram& h_batch_item_latency_;  ///< amortized ns per batched item
  obs::Counter& feedback_accepted_;  ///< samples handed to the sink
  obs::Counter& feedback_dropped_;   ///< no sink / queue full / shutdown / invalid
  obs::Counter& feedback_errors_;    ///< sink invocations that threw
  obs::Gauge& g_stream_sessions_;    ///< open stream sessions
  obs::Counter& stream_samples_;     ///< samples accepted by submit_sample()
  obs::Histogram& h_stream_revision_delta_;  ///< per-revision forecast change, watts
  /// serve_endpoint_latency_ns{endpoint=...}: end-to-end latency of
  /// each public entry point, indexed by Endpoint.
  enum Endpoint { kPredictEndpoint, kSubmitEndpoint, kBatchEndpoint, kEndpointCount };
  std::array<obs::Histogram*, kEndpointCount> endpoint_latency_{};
  std::uint64_t started_ns_;  ///< obs-clock construction time, the QPS origin
  std::mutex feedback_mutex_;
  std::shared_ptr<const FeedbackSink> feedback_sink_;  ///< null = no consumer
  std::atomic<std::uint64_t> backoff_ticket_{0};
  stream::SessionRegistry stream_registry_;
  ThreadPool pool_;  ///< last member: workers stop before the rest tears down
};

}  // namespace wavm3::serve
