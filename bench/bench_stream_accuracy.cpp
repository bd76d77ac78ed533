// Tier-2 bench for the streaming prediction path (src/stream/): replays
// every held-out campaign trace through the IncrementalExtractor +
// LivePredictor as if it were arriving live, and reports the live
// forecast's NRMSE against observed energy at 25/50/75/100% observed —
// the accuracy-vs-observed-fraction curve. Also times the per-sample
// ingest hot path and one live-forecast revision with google-benchmark,
// and emits bench_out/bench_stream_accuracy.json.
//
// The companion ctest gate (check_stream.cmake) asserts that the curve
// converges: no adjacent fraction may raise NRMSE by more than 2%
// relative (mid-stream extrapolation is allowed sampling noise, real
// regressions are not), the 100%-observed point must be the curve
// minimum, and at 100% observed the live forecast matches the batch
// predict_batch path to 1e-9 relative — the golden-parity contract of
// the incremental extractor.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "stream/incremental.hpp"
#include "stream/live_predictor.hpp"
#include "stream/replay.hpp"

namespace {

using namespace wavm3;

void print_report() {
  benchx::print_banner("streaming live-forecast accuracy vs observed fraction");

  const benchx::Pipeline& p = benchx::pipeline();
  const stream::ReplayOptions options;  // 25/50/75/100%, 2 Hz extractor defaults
  const stream::AccuracyCurve curve =
      stream::accuracy_curve(p.wavm3, p.test_m, options);

  std::printf("held-out m01-m02 traces: %zu observations\n\n",
              curve.observations);
  std::printf("%12s %10s\n", "observed", "NRMSE");
  for (std::size_t i = 0; i < curve.fractions.size(); ++i) {
    std::printf("%11.0f%% %10.4f\n", 100.0 * curve.fractions[i], curve.nrmse[i]);
  }
  std::printf("\nbatch parity at 100%% observed: max rel err %.3e (gate: <= 1e-9)\n",
              curve.parity_max_rel_err);

  // Worst adjacent-point NRMSE increase, relative to the earlier point.
  // Mid-stream revisions carry extrapolation noise, so the gate allows
  // small bumps (<= 2%) but never a real regression.
  double worst_bump_rel = 0.0;
  for (std::size_t i = 1; i < curve.nrmse.size(); ++i) {
    if (curve.nrmse[i - 1] > 0.0) {
      worst_bump_rel =
          std::max(worst_bump_rel, curve.nrmse[i] / curve.nrmse[i - 1] - 1.0);
    }
  }
  const bool final_is_min =
      !curve.nrmse.empty() &&
      curve.nrmse.back() <=
          *std::min_element(curve.nrmse.begin(), curve.nrmse.end()) + 1e-12;
  std::printf("worst adjacent NRMSE bump: %+.4f%% (gate: <= +2%%)\n",
              100.0 * worst_bump_rel);
  std::printf("100%%-observed NRMSE is the curve minimum: %s (gate)\n",
              final_is_min ? "yes" : "NO");

  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/bench_stream_accuracy.json");
  if (json) {
    json << "{\n"
         << "  \"observations\": " << curve.observations << ",\n"
         << "  \"parity_max_rel_err\": " << curve.parity_max_rel_err << ",\n"
         << "  \"worst_bump_rel\": " << worst_bump_rel << ",\n"
         << "  \"points\": [";
    for (std::size_t i = 0; i < curve.fractions.size(); ++i) {
      json << (i == 0 ? "\n" : ",\n") << "    {\"fraction\": " << curve.fractions[i]
           << ", \"nrmse\": " << curve.nrmse[i] << "}";
    }
    json << "\n  ]\n}\n";
    std::printf("\nwrote bench_out/bench_stream_accuracy.json\n\n");
  }
}

/// One representative held-out trace for the hot-path timings.
const models::MigrationObservation& timing_obs() {
  const models::Dataset& test = benchx::pipeline().test_m;
  const models::MigrationObservation* best = &test.observations.front();
  for (const auto& o : test.observations) {
    if (o.samples.size() > best->samples.size()) best = &o;
  }
  return *best;
}

/// The ingest hot path: cost of one O(1) streaming sample push.
void BM_StreamPushSample(benchmark::State& state) {
  const models::MigrationObservation& obs = timing_obs();
  stream::IncrementalExtractor ex(obs.type, obs.role);
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == obs.samples.size()) {
      // Restart the stream rather than rewinding time.
      state.PauseTiming();
      ex = stream::IncrementalExtractor(obs.type, obs.role);
      i = 0;
      state.ResumeTiming();
    }
    ex.push(obs.samples[i++]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamPushSample);

/// One live-forecast revision over a partially observed trace.
void BM_LiveForecastRevision(benchmark::State& state) {
  const models::MigrationObservation& obs = timing_obs();
  const core::Wavm3Model& model = benchx::pipeline().wavm3;
  const stream::PhasePrior prior = stream::PhasePrior::from_times(obs.times);
  stream::IncrementalExtractor ex(obs.type, obs.role);
  ex.set_migration_scalars(obs.mem_bytes, obs.data_bytes, obs.avg_bandwidth,
                           obs.idle_power_watts);
  for (std::size_t i = 0; i < obs.samples.size() / 2; ++i) ex.push(obs.samples[i]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream::predict_role(model, ex, prior));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveForecastRevision);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
