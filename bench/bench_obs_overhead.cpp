// Tier-2 bench for the observability layer (src/obs/): proves the
// instrumentation is cheap enough to leave on.
//
// Two kinds of numbers:
//   * micro costs — one counter increment, one histogram observe, one
//     span emit, one disabled-macro hit — in ns/op,
//   * end-to-end overhead — serve predict() qps with the tracer off vs
//     on vs compiled-in-but-disabled, as a percentage.
// The PR's acceptance bar is <= ~5% hot-path overhead with tracing
// enabled; the disabled path should be free to within noise.
//
// Prints a summary, emits bench_out/obs_overhead.json, and registers
// google-benchmark timings for the same paths.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/query_stream.hpp"
#include "serve/service.hpp"

namespace {

using namespace wavm3;
using migration::MigrationType;

core::Wavm3Model make_model() {
  core::Wavm3Model m;
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const double t = type == MigrationType::kLive ? 1.0 : 0.7;
    core::Wavm3Coefficients table;
    table.source.initiation = {2.1 * t, 1.3, 0.0, 0.0, 210.0};
    table.source.transfer = {2.4 * t, 1.1e-7, 55.0, 1.9, 205.0};
    table.source.activation = {2.2 * t, 1.2, 0.0, 0.0, 208.0};
    table.target.initiation = {1.9 * t, 0.8, 0.0, 0.0, 200.0};
    table.target.transfer = {2.0 * t, 0.9e-7, 12.0, 0.7, 198.0};
    table.target.activation = {2.1 * t, 1.0, 0.0, 0.0, 202.0};
    m.set_coefficients(type, table);
  }
  return m;
}

std::vector<core::MigrationScenario> make_stream(std::size_t n, std::uint64_t seed) {
  serve::QueryStreamOptions opts;
  opts.repeat_fraction = 0.9;
  return serve::QueryStreamGenerator::diurnal(opts, seed).generate(n);
}

/// ns per iteration of `fn` over `iters` calls (median of 5 runs so a
/// scheduler hiccup cannot fake an overhead regression).
template <typename Fn>
double ns_per_op(std::size_t iters, Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    runs.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   static_cast<double>(iters));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// One pass of sync predict() qps over `stream`.
double measure_qps(serve::PredictionService& service,
                   const std::vector<core::MigrationScenario>& stream) {
  double checksum = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const core::MigrationScenario& sc : stream) {
    checksum += service.predict(sc).total_energy();
  }
  benchmark::DoNotOptimize(checksum);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(stream.size()) / std::max(1e-9, elapsed);
}

/// One pass of predict_batch() qps — the shape `wavm3 serve-bench`
/// drives (closed form: deduped and priced inline on the caller's
/// thread, outside the cache and the pool).
double measure_qps_batch(serve::PredictionService& service,
                         const std::vector<core::MigrationScenario>& stream) {
  constexpr std::size_t kBatch = 64;
  double checksum = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.size(); i += kBatch) {
    const std::size_t end = std::min(stream.size(), i + kBatch);
    const std::vector<core::MigrationScenario> batch(stream.begin() + i,
                                                     stream.begin() + end);
    for (const core::MigrationForecast& fc : service.predict_batch(batch)) {
      checksum += fc.total_energy();
    }
  }
  benchmark::DoNotOptimize(checksum);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(stream.size()) / std::max(1e-9, elapsed);
}

/// A/B comparison of `measure()` qps with the tracer off vs on.
/// Passes run in adjacent off/on pairs (order alternating) so both
/// modes of a pair see the same scheduler/noise environment; each
/// pair yields one on/off ratio and the median ratio across pairs is
/// the overhead estimate. Medians of the per-mode qps are reported
/// alongside. This paired design is what makes the number stable on
/// small or shared hosts, where absolute qps can swing by 10% between
/// passes.
struct AbResult {
  double qps_off = 0.0;   ///< median qps, tracer disabled
  double qps_on = 0.0;    ///< median qps, tracer enabled
  double overhead_pct = 0.0;  ///< 100 * (1 - median(on/off per pair))
};

template <typename MeasureFn>
AbResult ab_compare(MeasureFn&& measure, int pairs = 9) {
  std::vector<double> offs, ons, ratios;
  for (int r = 0; r < pairs; ++r) {
    double off_qps = 0.0;
    double on_qps = 0.0;
    const bool off_first = (r % 2) == 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool enabled = (leg == 0) != off_first;
      obs::tracer().set_enabled(enabled);
      (enabled ? on_qps : off_qps) = measure();
    }
    offs.push_back(off_qps);
    ons.push_back(on_qps);
    ratios.push_back(on_qps / std::max(1.0, off_qps));
  }
  obs::tracer().set_enabled(false);
  obs::tracer().clear();
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(offs), median(ons), 100.0 * (1.0 - median(ratios))};
}

void print_report() {
  std::printf("==============================================================\n");
  std::printf("obs: tracing & metrics overhead (src/obs/)\n");
  std::printf("==============================================================\n\n");

  // --- micro costs -------------------------------------------------
  constexpr std::size_t kMicroIters = 2'000'000;
  obs::MetricRegistry reg;
  obs::Counter& counter = reg.counter("bench_counter_total", "bench");
  obs::Histogram& hist = reg.exponential_histogram("bench_hist_ns", "bench", 1000.0,
                                                   1.046, 400);
  const double counter_ns = ns_per_op(kMicroIters, [&](std::size_t) { counter.inc(); });
  const double hist_ns =
      ns_per_op(kMicroIters, [&](std::size_t i) { hist.observe(1000.0 + i % 100000); });

  obs::Tracer tracer({/*ring_capacity=*/16384});
  tracer.set_enabled(false);
  const double span_off_ns = ns_per_op(kMicroIters, [&](std::size_t) {
    obs::Tracer::Span span(tracer, "bench", "noop");
    benchmark::DoNotOptimize(span);
  });
  tracer.set_enabled(true);
  const double span_on_ns = ns_per_op(kMicroIters, [&](std::size_t i) {
    obs::Tracer::Span span(tracer, "bench", "op");
    span.arg("i", static_cast<double>(i));
  });
  const double instant_ns = ns_per_op(kMicroIters, [&](std::size_t) {
    tracer.emit_instant("bench", "tick", obs::now_ns(), {}, nullptr, nullptr);
  });
  tracer.set_enabled(false);

  std::printf("%-44s %10s\n", "micro cost", "ns/op");
  std::printf("%-44s %10.1f\n", "counter inc", counter_ns);
  std::printf("%-44s %10.1f\n", "histogram observe", hist_ns);
  std::printf("%-44s %10.1f\n", "span, tracer disabled", span_off_ns);
  std::printf("%-44s %10.1f\n", "span + 1 arg, tracer enabled", span_on_ns);
  std::printf("%-44s %10.1f\n", "instant event, tracer enabled", instant_ns);

  // --- end-to-end ---------------------------------------------------
  // Two shapes, tracer off vs on:
  //   * sync predict(), cache off — every request is a sub-µs
  //     closed-form evaluation, the most tracing-hostile path in the
  //     codebase. Reported as the worst case, not gated.
  //   * the deployed shape `wavm3 serve-bench` drives — 64-scenario
  //     closed-form batches priced inline, 90%-repeated stream. This
  //     is what the <= 5% budget is judged against.
  const core::Wavm3Model model = make_model();
  constexpr std::size_t kRequests = 60000;
  const std::vector<core::MigrationScenario> stream = make_stream(kRequests, 31);

  serve::ServiceConfig sync_cfg;
  sync_cfg.threads = 1;
  sync_cfg.cache_capacity = 0;
  serve::PredictionService sync_service(model, sync_cfg);
  const AbResult sync = ab_compare([&] { return measure_qps(sync_service, stream); });

  serve::ServiceConfig cfg;
  // serve-bench defaults to 4 workers; scale down on smaller hosts so
  // oversubscription churn does not drown the signal being measured.
  cfg.threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  cfg.cache_capacity = 4096;
  serve::PredictionService service(model, cfg);
  const AbResult e2e = ab_compare([&] { return measure_qps_batch(service, stream); });
  std::printf("\n%-44s %10.0f qps\n", "sync predict, uncached, tracer disabled",
              sync.qps_off);
  std::printf("%-44s %10.0f qps\n", "sync predict, uncached, tracer enabled", sync.qps_on);
  std::printf("%-44s %9.2f%% (worst case, informational)\n", "sync overhead",
              sync.overhead_pct);
  std::printf("\n%-44s %10.0f qps\n", "serve-bench shape, tracer disabled", e2e.qps_off);
  std::printf("%-44s %10.0f qps\n", "serve-bench shape, tracer enabled", e2e.qps_on);
  std::printf("%-44s %9.2f%% %s\n", "tracing overhead", e2e.overhead_pct,
              e2e.overhead_pct <= 5.0 ? "(within 5% budget)" : "(OVER 5% BUDGET!)");

  // JSON artefact.
  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/obs_overhead.json");
  if (json) {
    json << "{\n  \"micro_ns_per_op\": {\"counter_inc\": " << counter_ns
         << ", \"histogram_observe\": " << hist_ns
         << ", \"span_disabled\": " << span_off_ns
         << ", \"span_enabled\": " << span_on_ns
         << ", \"instant_enabled\": " << instant_ns
         << "},\n  \"sync_predict_uncached\": {\"requests\": " << kRequests
         << ", \"qps_tracer_disabled\": " << sync.qps_off
         << ", \"qps_tracer_enabled\": " << sync.qps_on
         << ", \"overhead_pct\": " << sync.overhead_pct
         << "},\n  \"serve_bench_shape\": {\"requests\": " << kRequests
         << ", \"qps_tracer_disabled\": " << e2e.qps_off
         << ", \"qps_tracer_enabled\": " << e2e.qps_on
         << ", \"overhead_pct\": " << e2e.overhead_pct
         << "},\n  \"budget_pct\": 5.0,\n  \"within_budget\": "
         << (e2e.overhead_pct <= 5.0 ? "true" : "false") << "\n}\n";
    std::printf("wrote bench_out/obs_overhead.json\n\n");
  }
}

void BM_CounterInc(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::Counter& c = reg.counter("bm_counter_total", "bench");
  for (auto _ : state) c.inc();
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::Histogram& h = reg.exponential_histogram("bm_hist_ns", "bench", 1000.0, 1.046, 400);
  std::size_t i = 0;
  for (auto _ : state) h.observe(1000.0 + (i++ % 100000));
}
BENCHMARK(BM_HistogramObserve);

void BM_SpanDisabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.set_enabled(false);
  for (auto _ : state) {
    obs::Tracer::Span span(tracer, "bench", "noop");
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  std::size_t i = 0;
  for (auto _ : state) {
    obs::Tracer::Span span(tracer, "bench", "op");
    span.arg("i", static_cast<double>(i++));
  }
}
BENCHMARK(BM_SpanEnabled);

void BM_TracedPredict(benchmark::State& state) {
  const core::Wavm3Model model = make_model();
  serve::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 0;
  serve::PredictionService service(model, cfg);
  const auto stream = make_stream(512, 33);
  obs::tracer().set_enabled(state.range(0) != 0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.predict(stream[i++ % stream.size()]).total_energy());
  }
  obs::tracer().set_enabled(false);
  obs::tracer().clear();
}
BENCHMARK(BM_TracedPredict)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
