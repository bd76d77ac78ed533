// serve_live: one PredictionService (default config: closed form,
// 4096-entry result cache; 2 pool threads) driven by two closed-loop
// client threads:
//   * the reader prices batches of 64 all-distinct diurnal scenarios
//     through predict_batch_results, so pricing and cache insert/evict
//     churn do most of the work;
//   * the writer keeps 16 live migrations in flight: open_stream, 2 Hz
//     source/target submit_sample pairs (predict_live after every 4th
//     pair), close_stream. Closed sessions feed an attached
//     recalibrator; sessions opened after the run's midpoint carry a
//     constant +18 W on both meters, so drift trips and coefficient
//     swaps land while the reader runs.
// Samples are synthesised at set-up from each scenario's closed-form
// timings and core::representative_features (the `wavm3 trace
// --emit-samples` recipe) with seeded Gaussian meter noise.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>

#include "calib/recalibrator.hpp"
#include "models/feature_batch.hpp"
#include "paths.hpp"
#include "serve/query_stream.hpp"
#include "serve/service.hpp"
#include "stats/metrics.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace wavm3::perfbench {

namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kReaderBatches = 2048;  ///< distinct pool = 32x the cache
constexpr std::size_t kTemplates = 1024;      ///< writer migrations, cycled
constexpr std::size_t kHeldOutReadings = 4;
constexpr std::size_t kInFlight = 16;
constexpr int kPairsPerRevision = 4;
constexpr double kMeterPeriodS = 0.5;  ///< the testbeds' 2 Hz meters
constexpr double kMeterNoiseW = 20.0;
constexpr double kBiasW = 18.0;
constexpr int kCheckEveryBatches = 16;
constexpr int kCheckEverySessions = 8;
/// Revision latencies kept: one in 8, so the series' memory (and the
/// run's peak RSS) does not grow with the writer's speed.
constexpr std::uint64_t kKeepRevisionEvery = 8;
constexpr int kSetupRepeats = 5;

/// One synthesised migration: its scenario, closed-form forecast and the
/// noisy (unbiased) 2 Hz sample stream of each meter.
struct Migration {
  core::MigrationScenario scenario;
  core::MigrationForecast forecast;
  std::vector<models::MigrationSample> source;
  std::vector<models::MigrationSample> target;
};

Migration synthesise(const core::Wavm3Model& model, const core::MigrationScenario& sc,
                     util::RngStream& noise) {
  Migration m;
  m.scenario = sc;
  m.forecast = core::MigrationPlanner(model).forecast(sc);
  const core::PhaseRepresentatives reps = core::representative_features(sc, m.forecast);
  const migration::PhaseTimestamps& times = m.forecast.times;
  const int grid = static_cast<int>(std::floor(times.total_duration() / kMeterPeriodS));
  for (const auto role : {models::HostRole::kSource, models::HostRole::kTarget}) {
    std::vector<models::MigrationSample>& out =
        role == models::HostRole::kSource ? m.source : m.target;
    for (int k = 0; k <= grid + 1; ++k) {
      const double t = std::min(times.ms + k * kMeterPeriodS, times.me);
      migration::MigrationPhase phase = times.phase_at(t);
      if (phase == migration::MigrationPhase::kNormal) phase = migration::MigrationPhase::kActivation;
      const int p = phase == migration::MigrationPhase::kInitiation ? 0
                    : phase == migration::MigrationPhase::kTransfer ? 1
                                                                     : 2;
      models::MigrationSample s = role == models::HostRole::kSource ? reps.source[p] : reps.target[p];
      s.time = t;
      s.phase = phase;
      s.power_watts = model.predict_power(reps.coeff_type, role, s) + noise.gaussian(0.0, kMeterNoiseW);
      out.push_back(s);
      if (t >= times.me) break;
    }
  }
  return m;
}

/// Metered energy of one stream, with `bias` watts on every sample.
double metered_energy(const std::vector<models::MigrationSample>& samples, double bias) {
  double e = 0.0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    e += 0.5 * (samples[i - 1].power_watts + samples[i].power_watts + 2.0 * bias) *
         (samples[i].time - samples[i - 1].time);
  }
  return e;
}

struct Inputs {
  std::vector<core::MigrationScenario> reads;
  std::vector<Migration> writes;
  std::vector<core::MigrationScenario> held_out;
  std::vector<double> held_out_truth_j;  ///< biased metered totals
};

Inputs make_inputs(const core::Wavm3Model& model, std::uint64_t seed) {
  Inputs in;
  serve::QueryStreamOptions qo;
  qo.repeat_fraction = 0.0;
  in.reads = serve::QueryStreamGenerator::diurnal(qo, seed).generate(kBatch * kReaderBatches);
  const util::RngFactory rngs(seed);
  util::RngStream noise = rngs.stream("perfbench/serve/meter");
  serve::QueryStreamGenerator writes =
      serve::QueryStreamGenerator::diurnal(qo, rngs.stream("perfbench/serve/writes").uniform_int(1, 1 << 30));
  for (std::size_t i = 0; i < kTemplates; ++i) in.writes.push_back(synthesise(model, writes.next(), noise));
  // Held-out truth: fresh meter readings (independent noise, +18 W) of
  // the writer's own migrations, kHeldOutReadings per migration.
  for (const Migration& w : in.writes) {
    for (std::size_t r = 0; r < kHeldOutReadings; ++r) {
      const Migration m = synthesise(model, w.scenario, noise);
      in.held_out.push_back(m.scenario);
      in.held_out_truth_j.push_back(metered_energy(m.source, kBiasW) + metered_energy(m.target, kBiasW));
    }
  }
  return in;
}

/// The recalibrator:
///   * a pass every 4096 accepted samples, rare enough that the batches
///     a pass holds up stay well under 1% and out of the reader's p99
///     (at every 1024 they sat near 1%, and the p99 jumped between runs);
///   * drift thresholds under what the injected +18 W leaves behind, so
///     the loop keeps refitting until the offset is recovered instead of
///     stopping at the first candidate fitted on a half-biased window;
///   * a candidate publishes when it beats the incumbent by 1% (the
///     default 5% left residual offsets of up to ~6 W, under 20 W meter
///     noise, in place for the rest of the run);
///   * the gain is pinned to 1: the injected drift is a pure offset, and
///     a free gain fitted on a noisy window made the end-of-run NRMSE
///     differ between runs.
calib::RecalibratorConfig recalibrator_config() {
  calib::RecalibratorConfig rc;
  rc.pass_interval_samples = 4096;
  rc.drift.bias_threshold_watts = 1.0;
  rc.drift.nrmse_threshold = 0.0045;
  rc.min_improvement = 0.01;
  rc.min_gain = 1.0;
  rc.max_gain = 1.0;
  return rc;
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.threads = 2;
  return cfg;
}

/// The observation one finished session streamed, for batch pricing.
models::MigrationObservation observation_of(const Migration& m, models::HostRole role,
                                            double bias) {
  models::MigrationObservation obs;
  obs.type = m.scenario.type;
  obs.role = role;
  obs.times = m.forecast.times;
  obs.mem_bytes = m.scenario.vm_mem_bytes;
  obs.data_bytes = m.forecast.total_bytes;
  obs.avg_bandwidth = m.forecast.bandwidth;
  obs.samples = role == models::HostRole::kSource ? m.source : m.target;
  for (models::MigrationSample& s : obs.samples) s.power_watts += bias;
  return obs;
}

/// CPU placement (slots of the allowed CPUs) in sub-window k: the
/// reader and the service pool share one vCPU, the writer has another,
/// and both move on every sub-window so that each averages the speeds
/// of every vCPU of the shared machine (see README.md).
int serving_slot(int k) { return k; }
int writer_slot(int k) { return k + 2; }

struct ReaderStats {
  std::uint64_t batches = 0;
  OpCounter predictions;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t checked = 0;
  Windowed latency_us;       ///< serving CPU time per batch call
  Windowed wall_latency_us;  ///< the same calls in wall time (stderr only)
  std::uint64_t measured_predictions = 0;
  double measured_busy_s = 0.0;  ///< serving CPU time of the measured batches
  std::vector<std::pair<std::uint64_t, std::uint64_t>> calls_ns;  ///< traced: (start, end)
  double shadow_ns = 0.0;  ///< traced: core pricing of the checked batches
  double forecast_timings_ns = 0.0;
  double attach_energy_ns = 0.0;
  std::uint64_t shadow_batches = 0;
  Digest answers;  ///< first batch, priced under the set-up coefficients
};

struct WriterStats {
  OpCounter samples;
  std::uint64_t measured_samples = 0;
  double measured_cpu_s = 0.0;  ///< the writer thread's CPU time after the warm-up
  std::uint64_t revisions = 0;
  std::uint64_t sessions = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t checked = 0;
  Windowed revision_us;
  double predict_batch_ns = 0.0;  ///< traced: batch pricing of checked sessions
  double predict_batch_rows = 0.0;
};

/// CPU time of the threads that serve a batch: the reader and the pool
/// threads on the vCPU they share. On that vCPU a batch call's serving
/// CPU time is its latency less the time the hypervisor or another
/// process held the vCPU (see README.md).
double serving_ns(const ThreadCpuClock& reader, const std::vector<ThreadCpuClock>& pool) {
  double ns = reader.ns();
  for (const ThreadCpuClock& c : pool) ns += c.ns();
  return ns;
}

void reader_loop(serve::PredictionService& service, const Inputs& in,
                 const std::vector<int>& pool_tids, const SubWindows& win, ReaderStats& st) {
  const ThreadCpuClock me = ThreadCpuClock::self();
  std::vector<ThreadCpuClock> pool;
  for (const int tid : pool_tids) pool.push_back(ThreadCpuClock::of(tid));
  std::vector<serve::PredictionService::BatchItem> results(kBatch);
  std::size_t cursor = 0;
  int placed_for = -1;
  for (int k = 0; k < SubWindows::kCount; k = win.current()) {
    if (k != placed_for) {
      pin_current_thread(serving_slot(k));
      for (const int tid : pool_tids) pin_thread(tid, serving_slot(k));
      placed_for = k;
    }
    const std::span<const core::MigrationScenario> batch(in.reads.data() + cursor, kBatch);
    cursor = (cursor + kBatch) % in.reads.size();
    const std::uint64_t v0 = service.model_version();
    const auto t0 = Clock::now();
    const double c0 = serving_ns(me, pool);
    const std::uint64_t s_ns = tracing() ? obs::now_ns() : 0;
    {
      BenchSpan span("serve/predict_batch_results");
      service.predict_batch_results(batch, results);
    }
    const double busy_ns = serving_ns(me, pool) - c0;
    st.wall_latency_us.add(k, ns_since(t0) / 1e3);
    st.latency_us.add(k, busy_ns / 1e3);
    if (SubWindows::measured(k)) {
      st.measured_predictions += kBatch;
      st.measured_busy_s += busy_ns / 1e9;
    }
    st.predictions.add(kBatch);
    if (tracing()) st.calls_ns.emplace_back(s_ns, obs::now_ns());
    for (const auto& item : results) st.errors += item.ok() ? 0 : 1;
    if (st.batches % kCheckEveryBatches == 0) {
      // Sampled output check: the batch must equal the planner under the
      // coefficient version it ran with (skipped if a swap landed).
      BenchSpan span("bench/check_batch");
      const serve::CoefficientStore::Snapshot snap = service.coeff_store().snapshot();
      if (snap.version == v0) {
        ++st.checked;
        const core::MigrationPlanner planner(*snap.model);
        for (std::size_t i = 0; i < kBatch; ++i) {
          if (!results[i].ok() || !forecasts_match(*results[i].forecast, planner.forecast(batch[i]), 0.0)) {
            ++st.mismatches;
          }
        }
        if (tracing()) {
          const CoreShadow cs = shadow_core(*snap.model, {batch.begin(), batch.end()});
          st.forecast_timings_ns += cs.forecast_timings_ns;
          st.attach_energy_ns += cs.attach_energy_ns;
          st.shadow_ns += (cs.forecast_timings_ns + cs.attach_energy_ns) * kBatch;
          ++st.shadow_batches;
        }
      }
    }
    if (st.batches == 0) {
      for (const auto& item : results) {
        if (item.ok()) st.answers.add(*item.forecast);
      }
    }
    ++st.batches;
  }
}

void writer_loop(serve::PredictionService& service, const Inputs& in, const SubWindows& win,
                 WriterStats& st) {
  struct Slot {
    std::uint64_t id = 0;
    std::size_t tmpl = 0;
    std::size_t next = 0;
    int pairs = 0;
    double bias = 0.0;
  };
  std::uint64_t next_id = 1;
  std::size_t next_tmpl = 0;
  const auto open = [&](Slot& s) {
    s = Slot{};
    s.id = next_id++;
    s.tmpl = next_tmpl++ % in.writes.size();
    s.bias = win.current() >= SubWindows::kCount / 2 ? kBiasW : 0.0;
    BenchSpan span("stream/open_stream");
    service.open_stream(s.id, in.writes[s.tmpl].scenario);
  };
  const ThreadCpuClock me = ThreadCpuClock::self();
  std::vector<Slot> slots(kInFlight);
  for (Slot& s : slots) open(s);
  models::MigrationSample sample;
  // Samples and CPU time at the start of the first measured sub-window.
  std::uint64_t samples0 = 0;
  double cpu0_ns = -1.0;
  int placed_for = -1;
  for (std::size_t step = 0;; ++step) {
    const int k = win.current();
    if (k != placed_for) {
      pin_current_thread(writer_slot(k));
      placed_for = k;
    }
    if (k >= SubWindows::kCount) {
      if (cpu0_ns >= 0.0) {
        st.measured_samples = st.samples.get() - samples0;
        st.measured_cpu_s = (me.ns() - cpu0_ns) / 1e9;
      }
      break;
    }
    if (cpu0_ns < 0.0 && SubWindows::measured(k)) {
      samples0 = st.samples.get();
      cpu0_ns = me.ns();
    }
    Slot& s = slots[step % kInFlight];
    const Migration& m = in.writes[s.tmpl];
    try {
      if (s.next < m.source.size()) {
        {
          BenchSpan span("stream/submit_sample");
          sample = m.source[s.next];
          sample.power_watts += s.bias;
          service.submit_sample(s.id, models::HostRole::kSource, sample);
        }
        if (s.next < m.target.size()) {
          BenchSpan span("stream/submit_sample");
          sample = m.target[s.next];
          sample.power_watts += s.bias;
          service.submit_sample(s.id, models::HostRole::kTarget, sample);
          st.samples.add();
        }
        st.samples.add();
        ++s.next;
        if (++s.pairs % kPairsPerRevision == 0) {
          const auto t0 = Clock::now();
          {
            BenchSpan span("stream/predict_live");
            (void)service.predict_live(s.id);
          }
          if (st.revisions % kKeepRevisionEvery == 0) st.revision_us.add(k, ns_since(t0) / 1e3);
          ++st.revisions;
        }
        continue;
      }
      if (st.sessions % kCheckEverySessions == 0) {
        // Output check: the revision at 100% observed must price the
        // streamed prefix exactly as batch pricing prices the whole
        // observation, under the same coefficient version.
        BenchSpan span("bench/check_revision");
        const serve::CoefficientStore::Snapshot snap = service.coeff_store().snapshot();
        const stream::LiveForecast lf = service.predict_live(s.id);
        ++st.revisions;
        if (service.model_version() == snap.version) {
          ++st.checked;
          for (const auto role : {models::HostRole::kSource, models::HostRole::kTarget}) {
            const models::MigrationObservation obs = observation_of(m, role, s.bias);
            const models::FeatureBatch fb = models::FeatureBatch::of(obs);
            double priced = 0.0;
            const auto t0 = Clock::now();
            snap.model->predict_batch(fb, std::span<double>(&priced, 1));
            st.predict_batch_ns += ns_since(t0);
            st.predict_batch_rows += 1.0;
            const double streamed = role == models::HostRole::kSource
                                        ? lf.source.observed_model_j
                                        : lf.target.observed_model_j;
            if (!(rel_diff(streamed, priced) <= 1e-9)) {
              ++st.mismatches;
              std::fprintf(stderr, "serve: revision %.17g vs batch %.17g\n", streamed, priced);
            }
          }
        }
      }
      {
        BenchSpan span("stream/close_stream");
        (void)service.close_stream(s.id);
      }
      ++st.sessions;
      open(s);
    } catch (const std::exception& e) {
      ++st.errors;
      std::fprintf(stderr, "serve: writer error: %s\n", e.what());
      open(s);
    }
  }
}

}  // namespace

PathResult run_serve(const Options& options, double seconds, bool primary) {
  PathResult r;
  const core::Wavm3Model model = make_model();

  std::unique_ptr<Inputs> in;
  std::unique_ptr<serve::PredictionService> service;
  std::shared_ptr<calib::OnlineRecalibrator> recal;
  std::vector<int> pool;  ///< kernel ids of the service's pool threads
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    recal.reset();
    service.reset();
    in.reset();
    const auto t0 = Clock::now();
    in = std::make_unique<Inputs>(make_inputs(model, options.seed));
    const std::vector<int> before = thread_ids();
    service = std::make_unique<serve::PredictionService>(model, service_config());
    recal = calib::attach(*service, recalibrator_config());
    setups.push_back(seconds_since(t0));
    pool.clear();
    for (const int tid : thread_ids()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        pool.push_back(tid);
      }
    }
  }
  r.setup_s = median(setups);
  if (pool.size() != static_cast<std::size_t>(service_config().threads)) {
    std::fprintf(stderr, "serve: found %zu pool threads, expected %d\n", pool.size(),
                 service_config().threads);
    ++r.failed;
  }
  {
    Digest d;
    for (const auto& sc : in->reads) d.add(sc);
    for (const Migration& m : in->writes) {
      d.add(m.scenario);
      for (const auto& s : m.source) d.add(s.power_watts);
    }
    r.digests["serve.inputs"] = d.hex();
  }

  ReaderStats rs;
  WriterStats ws;
  SubWindows win;
  RateMeter prediction_rate;  // wall-time rate, for obs.overhead_ratio
  reset_bench_spans();
  ObsCollector collector;
  collector.start();
  const auto t0 = Clock::now();
  std::thread reader([&] {
    reader_loop(*service, *in, pool, win, rs);
  });
  std::thread writer([&] { writer_loop(*service, *in, win, ws); });
  win.run(seconds, [&](int k, double step_s) { prediction_rate.mark(k, rs.predictions.get(), step_s); });
  reader.join();
  writer.join();
  const double window_s = seconds_since(t0);

  // Let every queued feedback sample reach the recalibrator, then judge
  // the coefficients the run ended with against the biased truth.
  const serve::ServiceStats stats = service->stats();
  service->shutdown(serve::DrainMode::kDrain);
  collector.stop();
  recal->run_pass();
  const serve::CoefficientStore::Snapshot final_model = service->coeff_store().snapshot();
  std::vector<double> predicted;
  const core::MigrationPlanner planner(*final_model.model);
  for (const auto& sc : in->held_out) predicted.push_back(planner.forecast(sc).total_energy());
  const double served_nrmse = stats::nrmse(predicted, in->held_out_truth_j);

  const double predictions = static_cast<double>(rs.predictions.get());
  r.attempted = rs.predictions.get() + ws.samples.get() + ws.revisions + ws.sessions;
  r.failed = rs.errors + rs.mismatches + ws.errors + ws.mismatches;
  if (rs.checked == 0 || ws.checked == 0) {
    std::fprintf(stderr, "serve: no output check ran\n");
    ++r.failed;
  }
  r.digests["serve.answers"] = rs.answers.hex();
  r.primary_rate = prediction_rate.rate();
  // Every figure is pooled over the whole window after the warm-up, in
  // the CPU time of the threads doing the work. Revisions, about 1 us
  // each, are timed in wall time and reported as a mean: their times
  // fall in two groups, about 0.9 and 1.6 us, whose shares moved from
  // run to run, so a median jumped between the groups while a mean
  // moves with the shares (see README.md).
  r.e2e["predictions_per_s"] = {
      rs.measured_busy_s > 0.0 ? static_cast<double>(rs.measured_predictions) / rs.measured_busy_s
                               : 0.0,
      "1/s"};
  r.e2e["batch_p50_us"] = {pooled_quantile({&rs.latency_us}, 0.50), "us"};
  r.e2e["batch_p99_us"] = {pooled_quantile({&rs.latency_us}, 0.99), "us"};
  r.e2e["samples_per_s"] = {
      ws.measured_cpu_s > 0.0 ? static_cast<double>(ws.measured_samples) / ws.measured_cpu_s : 0.0,
      "1/s"};
  r.e2e["revision_mean_us"] = {pooled_trimmed_mean({&ws.revision_us}), "us"};
  r.e2e["served_nrmse"] = {served_nrmse, "ratio"};

  const calib::RecalibrationStats cs = recal->stats();
  std::fprintf(stderr,
               "serve: %.1f s, %llu batches (p50 %.1f us, p99 %.1f us; wall p50 %.1f us, p99 "
               "%.1f us), %llu samples, %llu "
               "revisions, %llu sessions, calib %llu passes %llu trips %llu refits %llu "
               "rejected %llu conflicts %llu swaps %llu rollbacks, nrmse %.5f, %llu/%llu "
               "checks\n",
               window_s, static_cast<unsigned long long>(rs.batches),
               r.e2e["batch_p50_us"].value, r.e2e["batch_p99_us"].value,
               pooled_quantile({&rs.wall_latency_us}, 0.50),
               pooled_quantile({&rs.wall_latency_us}, 0.99),
               static_cast<unsigned long long>(ws.samples.get()),
               static_cast<unsigned long long>(ws.revisions),
               static_cast<unsigned long long>(ws.sessions),
               static_cast<unsigned long long>(cs.passes), static_cast<unsigned long long>(cs.drift_trips),
               static_cast<unsigned long long>(cs.refits), static_cast<unsigned long long>(cs.candidates_rejected),
               static_cast<unsigned long long>(cs.swap_conflicts), static_cast<unsigned long long>(cs.swaps),
               static_cast<unsigned long long>(cs.rollbacks),
               served_nrmse, static_cast<unsigned long long>(rs.checked),
               static_cast<unsigned long long>(ws.checked));

  // Per-layer numbers (meaningful in the traced run).
  const LayerStats bench = bench_span_stats();
  const LayerStats prog = collector.stats();
  const auto bench_stat = [&](const char* name) {
    const auto it = bench.find(name);
    return it == bench.end() ? LayerStat{} : it->second;
  };
  const auto prog_stat = [&](const char* name) {
    const auto it = prog.find(name);
    return it == prog.end() ? LayerStat{} : it->second;
  };
  const double lookups = static_cast<double>(stats.cache.hits + stats.cache.misses);
  r.layers["serve.cache.hit_ratio"] = {lookups > 0 ? stats.cache.hits / lookups : 0.0, "ratio"};
  r.layers["serve.cache.evictions_per_prediction"] = {
      predictions > 0 ? static_cast<double>(stats.cache.evictions) / predictions : 0.0, "ratio"};
  const LayerStat batch_calls = bench_stat("serve/predict_batch_results");
  r.layers["serve.batch.overhead_us"] = {
      rs.shadow_batches > 0 ? batch_calls.mean_us() - rs.shadow_ns / 1e3 / rs.shadow_batches : 0.0,
      "us"};
  r.layers["serve.batch_chunk_us"] = {prog_stat("serve/batch_chunk").mean_us(), "us"};
  {
    // A chunk's pool wait: from its batch call's start to the chunk's
    // start on a worker (the one reader issues every batch).
    const auto chunks = collector.intervals("serve", "batch_chunk");
    double wait_ns = 0.0;
    std::size_t n = 0;
    for (const auto& [ts, dur] : chunks) {
      auto it = std::upper_bound(rs.calls_ns.begin(), rs.calls_ns.end(),
                                 std::make_pair(ts, ~std::uint64_t{0}));
      if (it == rs.calls_ns.begin()) continue;
      --it;
      if (ts > it->second) continue;
      wait_ns += static_cast<double>(ts - it->first);
      ++n;
    }
    r.layers["serve.pool_wait_us"] = {n > 0 ? wait_ns / 1e3 / n : 0.0, "us"};
  }
  r.layers["serve.feedback_dropped"] = {
      registry_total(service->obs_registry(), "serve_feedback_dropped_total"), "count"};
  if (rs.shadow_batches > 0) {
    r.layers["core.forecast_timings_ns"] = {rs.forecast_timings_ns / rs.shadow_batches, "ns"};
    r.layers["core.attach_energy_ns"] = {rs.attach_energy_ns / rs.shadow_batches, "ns"};
  }
  if (ws.predict_batch_rows > 0) {
    r.layers["models.predict_batch_ns_per_row"] = {ws.predict_batch_ns / ws.predict_batch_rows,
                                                   "ns"};
  }
  if (primary && tracing()) {
    // Kernel apply time: one single-row stream batch per role per
    // revision, at the shadow-timed per-row apply cost.
    std::vector<core::MigrationScenario> scs;
    for (const Migration& m : in->writes) scs.push_back(m.scenario);
    const ModelShadow ms = shadow_models(model, scs);
    r.layers["kernels.share"] = {
        ms.apply_ns_per_row * 2.0 * static_cast<double>(ws.revisions) / (2.0 * window_s * 1e9),
        "ratio"};
  }
  const LayerStat submit = bench_stat("stream/submit_sample");
  r.layers["stream.submit_sample_ns"] = {submit.mean_ns(), "ns"};
  r.layers["stream.open_close_us"] = {
      ws.sessions > 0 ? (bench_stat("stream/open_stream").total_ns +
                         bench_stat("stream/close_stream").total_ns) /
                            1e3 / static_cast<double>(ws.sessions)
                      : 0.0,
      "us"};
  r.layers["stream.evictions"] = {static_cast<double>(service->stream_registry().evictions()),
                                  "count"};
  r.layers["calib.passes"] = {static_cast<double>(cs.passes), "count"};
  r.layers["calib.refits"] = {static_cast<double>(cs.refits), "count"};
  r.layers["calib.swaps"] = {static_cast<double>(cs.swaps), "count"};
  r.layers["calib.rollbacks"] = {static_cast<double>(cs.rollbacks), "count"};
  r.layers["calib.pass_ms"] = {prog_stat("calib/recalib_pass").mean_us() / 1e3, "ms"};
  if (primary) {
    // Client-thread time the benchmark spans attribute to a layer call.
    double covered = 0.0;
    for (const auto& [name, s] : bench) covered += s.total_ns;
    r.layers["trace.accounted_share"] = {covered / (2.0 * window_s * 1e9), "ratio"};
    r.layers["obs.events_emitted"] = {static_cast<double>(collector.emitted()), "count"};
    r.layers["obs.events_dropped"] = {static_cast<double>(collector.dropped()), "count"};
    if (tracing()) r.trace_events = collector.kept_events();
  }
  recal.reset();
  service.reset();
  return r;
}

}  // namespace wavm3::perfbench
