// Tier-2 bench for the prediction service (src/serve/): measures
//   * closed-form predict_batch throughput (priced inline on the
//     caller's thread),
//   * thread scaling on uncached simulated-fidelity batches (1 -> N
//     workers; the only batches the pool serves),
//   * cached vs uncached throughput on a 90%-repeated query stream,
//   * result equivalence against direct Planner/Wavm3Model calls,
// prints a summary, emits bench_out/serve_throughput.json, and
// registers google-benchmark timings for the hot paths.
//
// Unlike the paper benches this one needs no campaign: it serves from a
// synthetic coefficient table, so the numbers isolate the serving
// machinery instead of the simulator.
#include <benchmark/benchmark.h>

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
#include "serve/query_stream.hpp"
#include "serve/service.hpp"
#include "serve/sim_backend.hpp"

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

std::vector<core::MigrationScenario> make_stream(double repeat_fraction, std::size_t n,
                                                 std::uint64_t seed) {
  serve::QueryStreamOptions opts;
  opts.repeat_fraction = repeat_fraction;
  return serve::QueryStreamGenerator::diurnal(opts, seed).generate(n);
}

/// Sustained service throughput over `stream` with the given config.
double measure_qps(const core::Wavm3Model& model, const serve::ServiceConfig& cfg,
                   const std::vector<core::MigrationScenario>& stream) {
  serve::PredictionService service(model, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  double checksum = 0.0;
  constexpr std::size_t kBatch = 256;
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

/// Like measure_qps but on the synchronous predict() path: no pool
/// round trip, so cached vs uncached differences are pure cache
/// effect.
double measure_qps_sync(const core::Wavm3Model& model, const serve::ServiceConfig& cfg,
                        const std::vector<core::MigrationScenario>& stream) {
  serve::PredictionService service(model, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  double checksum = 0.0;
  for (const core::MigrationScenario& sc : stream) {
    checksum += service.predict(sc).total_energy();
  }
  benchmark::DoNotOptimize(checksum);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return static_cast<double>(stream.size()) / std::max(1e-9, elapsed);
}

/// Largest |relative error| between served and directly computed
/// forecasts over `stream` (equivalence check, expected ~0).
double max_relative_error(const core::Wavm3Model& model,
                          const std::vector<core::MigrationScenario>& stream) {
  const core::MigrationPlanner planner(model);
  serve::ServiceConfig cfg;
  cfg.threads = 4;
  serve::PredictionService service(model, cfg);
  double worst = 0.0;
  for (const core::MigrationScenario& sc : stream) {
    const core::MigrationForecast direct = planner.forecast(sc);
    const core::MigrationForecast served = service.predict(sc);
    const double pairs[4][2] = {
        {served.source_energy, direct.source_energy},
        {served.target_energy, direct.target_energy},
        {served.downtime, direct.downtime},
        {served.total_bytes, direct.total_bytes},
    };
    for (const auto& p : pairs) {
      const double denom = std::max(1e-12, std::fabs(p[1]));
      worst = std::max(worst, std::fabs(p[0] - p[1]) / denom);
    }
  }
  return worst;
}

void print_report() {
  std::printf("==============================================================\n");
  std::printf("serve: prediction-service throughput (src/serve/)\n");
  std::printf("==============================================================\n\n");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads: %u\n\n", hw);

  const core::Wavm3Model model = make_model();
  constexpr std::size_t kRequests = 20000;

  // Closed-form batches, default config, all-distinct queries: priced
  // inline on the caller's thread, so the pool size does not enter.
  const std::vector<core::MigrationScenario> distinct = make_stream(0.0, kRequests, 11);
  std::printf("%-34s %14s %10s\n", "configuration", "qps", "speedup");
  const double inline_qps = measure_qps(model, serve::ServiceConfig{}, distinct);
  std::printf("closed-form batch, inline %26.0f\n", inline_qps);

  // Thread scaling, cache off, all-distinct queries, at simulated
  // fidelity: every miss is an engine run in a pool task.
  std::vector<std::pair<int, double>> scaling;
  double qps_1t = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    serve::ServiceConfig cfg;
    cfg.threads = threads;
    cfg.cache_capacity = 0;
    cfg.fidelity = serve::Fidelity::kSimulated;
    const double qps = measure_qps(model, cfg, distinct);
    if (threads == 1) qps_1t = qps;
    scaling.emplace_back(threads, qps);
    std::printf("simulated uncached, %2d threads %21.0f %9.2fx\n", threads, qps,
                qps / std::max(1.0, qps_1t));
  }

  // Cached vs uncached on a 90%-repeated stream, single worker so the
  // comparison isolates the cache. Closed-form fidelity first: the
  // planner evaluates in well under a microsecond, so here the cache
  // can at best break even — the honest baseline.
  const std::vector<core::MigrationScenario> repeated = make_stream(0.9, kRequests, 12);
  serve::ServiceConfig cache_off;
  cache_off.threads = 1;
  cache_off.cache_capacity = 0;
  const double qps_off = measure_qps_sync(model, cache_off, repeated);
  serve::ServiceConfig cache_on;
  cache_on.threads = 1;
  cache_on.cache_capacity = 8192;
  const double qps_on = measure_qps_sync(model, cache_on, repeated);
  std::printf("90%%-repeat, cache off %30.0f %9.2fx\n", qps_off, 1.0);
  std::printf("90%%-repeat, cache on %31.0f %9.2fx\n", qps_on,
              qps_on / std::max(1.0, qps_off));

  // Simulated fidelity: every miss runs the event-driven engine, the
  // workload the result cache exists for. At repeat fraction p the
  // speedup ceiling is 1/(1-p) (the misses), so the 90% stream tops
  // out near 10x and the 99% stream near 100x.
  std::printf("\nsimulated fidelity (engine run per miss):\n");
  constexpr std::size_t kSimRequests = 3000;
  double sim_speedup_90 = 0.0;
  double sim_speedup_99 = 0.0;
  double sim_qps_off_90 = 0.0;
  double sim_qps_on_90 = 0.0;
  for (const double repeat : {0.9, 0.99}) {
    const std::vector<core::MigrationScenario> stream =
        make_stream(repeat, kSimRequests, 14);
    serve::ServiceConfig off = cache_off;
    off.fidelity = serve::Fidelity::kSimulated;
    serve::ServiceConfig on = cache_on;
    on.fidelity = serve::Fidelity::kSimulated;
    const double sim_off = measure_qps_sync(model, off, stream);
    const double sim_on = measure_qps_sync(model, on, stream);
    const double speedup = sim_on / std::max(1.0, sim_off);
    std::printf("%2.0f%%-repeat, cache off %30.0f %9.2fx\n", repeat * 100, sim_off, 1.0);
    std::printf("%2.0f%%-repeat, cache on %31.0f %9.2fx\n", repeat * 100, sim_on, speedup);
    if (repeat == 0.9) {
      sim_speedup_90 = speedup;
      sim_qps_off_90 = sim_off;
      sim_qps_on_90 = sim_on;
    } else {
      sim_speedup_99 = speedup;
    }
  }

  // Equivalence vs direct planner calls.
  const double max_rel_err = max_relative_error(model, make_stream(0.5, 2000, 13));
  std::printf("\nmax relative error served vs direct: %.3g %s\n", max_rel_err,
              max_rel_err <= 1e-12 ? "(equivalent)" : "(MISMATCH!)");

  // JSON artefact.
  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/serve_throughput.json");
  if (json) {
    json << "{\n  \"hardware_threads\": " << hw << ",\n  \"requests\": " << kRequests
         << ",\n  \"simulated_uncached_scaling\": [";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      json << (i == 0 ? "" : ", ") << "{\"threads\": " << scaling[i].first
           << ", \"qps\": " << scaling[i].second << "}";
    }
    json << "],\n  \"closed_form\": {\"inline_batch_qps\": " << inline_qps
         << ", \"repeat90_cache_off_qps\": " << qps_off
         << ", \"repeat90_cache_on_qps\": " << qps_on
         << ", \"cache_speedup\": " << qps_on / std::max(1.0, qps_off)
         << "},\n  \"simulated\": {\"repeat90_cache_off_qps\": " << sim_qps_off_90
         << ", \"repeat90_cache_on_qps\": " << sim_qps_on_90
         << ", \"cache_speedup_repeat90\": " << sim_speedup_90
         << ", \"cache_speedup_repeat99\": " << sim_speedup_99
         << "},\n  \"max_relative_error\": " << max_rel_err << "\n}\n";
    std::printf("wrote bench_out/serve_throughput.json\n\n");
  }
}

void BM_DirectPlanner(benchmark::State& state) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  const auto stream = make_stream(0.0, 512, 21);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.forecast(stream[i++ % stream.size()]).total_energy());
  }
}
BENCHMARK(BM_DirectPlanner);

void BM_ServePredictUncached(benchmark::State& state) {
  const core::Wavm3Model model = make_model();
  serve::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 0;
  serve::PredictionService service(model, cfg);
  const auto stream = make_stream(0.0, 512, 22);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.predict(stream[i++ % stream.size()]).total_energy());
  }
}
BENCHMARK(BM_ServePredictUncached);

void BM_ServePredictCachedHot(benchmark::State& state) {
  const core::Wavm3Model model = make_model();
  serve::ServiceConfig cfg;
  cfg.threads = 1;
  serve::PredictionService service(model, cfg);
  const auto stream = make_stream(0.0, 256, 23);
  for (const auto& sc : stream) service.predict(sc);  // warm the cache
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.predict(stream[i++ % stream.size()]).total_energy());
  }
}
BENCHMARK(BM_ServePredictCachedHot);

void BM_SimulateBackend(benchmark::State& state) {
  const core::Wavm3Model model = make_model();
  const auto stream = make_stream(0.0, 64, 25);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::simulate_forecast(model, stream[i++ % stream.size()]).total_energy());
  }
}
BENCHMARK(BM_SimulateBackend);

void BM_ServeSubmitRoundtrip(benchmark::State& state) {
  const core::Wavm3Model model = make_model();
  serve::ServiceConfig cfg;
  cfg.threads = 2;
  serve::PredictionService service(model, cfg);
  const auto stream = make_stream(0.0, 256, 24);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.submit(stream[i++ % stream.size()]).get().total_energy());
  }
}
BENCHMARK(BM_ServeSubmitRoundtrip);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
