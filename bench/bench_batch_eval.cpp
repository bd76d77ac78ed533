// Tier-2 bench for the batched prediction path (models::FeatureBatch):
// paired scalar-vs-batch A/B of the four energy models at batch sizes
// {1, 8, 64, 256, 1024}, both with the batch build included (the
// apples-to-apples comparison against the predict_energy loop, which
// rebuilds its single-row batch per call) and eval-only over a
// pre-built FeatureBatch (the evaluation-loop steady state). Prints a
// summary, emits bench_out/bench_batch_eval.json with the measured
// speedups, and registers google-benchmark timings.
//
// Like bench_serve_throughput this needs no campaign: the models are
// fitted once on a seeded synthetic dataset so the numbers isolate the
// prediction machinery.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/wavm3_model.hpp"
#include "models/dataset.hpp"
#include "models/energy_model.hpp"
#include "models/feature_batch.hpp"
#include "models/huang.hpp"
#include "models/liu.hpp"
#include "models/strunk.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace wavm3;
using migration::MigrationPhase;
using migration::MigrationType;

/// One synthetic observation with a 2 Hz sample trail, phase structure,
/// and plausible load-dependent power — enough signal for every model's
/// fit to be non-degenerate.
models::MigrationObservation make_obs(util::RngStream& rng, int i) {
  models::MigrationObservation obs;
  obs.experiment = "BENCH/batch";
  obs.run = i;
  obs.type = i % 3 == 0 ? MigrationType::kNonLive : MigrationType::kLive;
  obs.role = i % 2 == 0 ? models::HostRole::kSource : models::HostRole::kTarget;
  const double duration = rng.uniform(20.0, 60.0);
  obs.times.ms = 0.0;
  obs.times.ts = 0.12 * duration;
  obs.times.te = 0.88 * duration;
  obs.times.me = duration;
  obs.mem_bytes = util::gib(rng.uniform(1.0, 8.0));
  obs.avg_bandwidth = rng.uniform(0.4e9, 1.1e9);
  obs.data_bytes = obs.mem_bytes * rng.uniform(1.0, 1.6);
  obs.idle_power_watts = 200.0;
  const double cpu_h = rng.uniform(2.0, 18.0);
  const double cpu_v = rng.uniform(0.5, 4.0);
  const double dr = obs.type == MigrationType::kLive ? rng.uniform(0.01, 0.3) : 0.0;
  for (double t = 0.0; t <= duration; t += 0.5) {
    models::MigrationSample s;
    s.time = t;
    s.phase = obs.times.phase_at(t);
    const bool transferring = s.phase == MigrationPhase::kTransfer;
    s.cpu_host = cpu_h + (transferring ? 1.5 : 0.0) + rng.uniform(-0.2, 0.2);
    s.cpu_vm = cpu_v + rng.uniform(-0.1, 0.1);
    s.dirty_ratio = transferring ? dr : 0.0;
    s.bandwidth = transferring ? obs.avg_bandwidth + rng.uniform(-5e7, 5e7) : 0.0;
    s.power_watts = obs.idle_power_watts + 2.3 * s.cpu_host + 1.4 * s.cpu_vm +
                    4.5e-8 * s.bandwidth + 30.0 * s.dirty_ratio + rng.uniform(-1.0, 1.0);
    obs.samples.push_back(s);
  }
  return obs;
}

models::Dataset make_dataset(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed);
  models::Dataset d;
  d.observations.reserve(n);
  for (std::size_t i = 0; i < n; ++i) d.observations.push_back(make_obs(rng, static_cast<int>(i)));
  return d;
}

struct FittedModels {
  core::Wavm3Model wavm3;
  models::HuangModel huang;
  models::LiuModel liu;
  models::StrunkModel strunk;

  std::vector<std::pair<std::string, const models::EnergyModel*>> all() const {
    return {{"wavm3", &wavm3}, {"huang", &huang}, {"liu", &liu}, {"strunk", &strunk}};
  }
};

FittedModels fit_models(const models::Dataset& train) {
  FittedModels m;
  m.wavm3.fit(train);
  m.huang.fit(train);
  m.liu.fit(train);
  m.strunk.fit(train);
  return m;
}

/// Wall-clock seconds of `fn()` repeated until ~`min_time_s` elapsed,
/// reported as seconds per call; best of three passes, so a scheduler
/// hiccup in one pass cannot masquerade as a slowdown.
template <typename Fn>
double time_per_call(double min_time_s, Fn&& fn) {
  // Warm up (first call pays allocation / cache effects).
  fn();
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    std::size_t reps = 1;
    for (;;) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < reps; ++r) fn();
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (elapsed >= min_time_s || reps > (1u << 24)) {
        const double per_call = elapsed / static_cast<double>(reps);
        if (pass == 0 || per_call < best) best = per_call;
        break;
      }
      reps *= 4;
    }
  }
  return best;
}

struct AbRow {
  std::string model;
  std::size_t batch_size = 0;
  double scalar_per_item_ns = 0.0;      ///< predict_energy loop
  double batch_built_per_item_ns = 0.0; ///< FeatureBatch build + predict_batch
  double batch_eval_per_item_ns = 0.0;  ///< predict_batch over pre-built batch
  double speedup_built = 0.0;
  double speedup_eval = 0.0;
};

AbRow measure_ab(const std::string& name, const models::EnergyModel& model,
                 const models::Dataset& pool, std::size_t batch_size) {
  AbRow row;
  row.model = name;
  row.batch_size = batch_size;
  std::vector<const models::MigrationObservation*> ptrs;
  ptrs.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i)
    ptrs.push_back(&pool.observations[i % pool.observations.size()]);
  const std::span<const models::MigrationObservation* const> view(ptrs);
  const models::FeatureBatch prebuilt(view);
  std::vector<double> out(batch_size);
  const double min_time = 0.02;

  const double scalar_s = time_per_call(min_time, [&] {
    double acc = 0.0;
    for (const models::MigrationObservation* obs : ptrs) acc += model.predict_energy(*obs);
    benchmark::DoNotOptimize(acc);
  });
  const double built_s = time_per_call(min_time, [&] {
    const models::FeatureBatch batch(view);
    model.predict_batch(batch, out);
    benchmark::DoNotOptimize(out.data());
  });
  const double eval_s = time_per_call(min_time, [&] {
    model.predict_batch(prebuilt, out);
    benchmark::DoNotOptimize(out.data());
  });

  const double n = static_cast<double>(batch_size);
  row.scalar_per_item_ns = scalar_s / n * 1e9;
  row.batch_built_per_item_ns = built_s / n * 1e9;
  row.batch_eval_per_item_ns = eval_s / n * 1e9;
  row.speedup_built = scalar_s / std::max(1e-12, built_s);
  row.speedup_eval = scalar_s / std::max(1e-12, eval_s);
  return row;
}

void print_report() {
  std::printf("==============================================================\n");
  std::printf("batch eval: FeatureBatch predict_batch vs scalar loop\n");
  std::printf("==============================================================\n\n");

  const models::Dataset train = make_dataset(160, 7);
  const models::Dataset pool = make_dataset(1024, 8);
  const FittedModels models = fit_models(train);

  std::printf("%-8s %6s %14s %14s %14s %9s %9s\n", "model", "batch", "scalar ns/it",
              "built ns/it", "eval ns/it", "x built", "x eval");
  std::vector<AbRow> rows;
  for (const auto& [name, model] : models.all()) {
    for (const std::size_t batch_size : {1u, 8u, 64u, 256u, 1024u}) {
      const AbRow row = measure_ab(name, *model, pool, batch_size);
      rows.push_back(row);
      std::printf("%-8s %6zu %14.0f %14.0f %14.0f %8.2fx %8.2fx\n", row.model.c_str(),
                  row.batch_size, row.scalar_per_item_ns, row.batch_built_per_item_ns,
                  row.batch_eval_per_item_ns, row.speedup_built, row.speedup_eval);
    }
  }

  // JSON artefact: one record per (model, batch size) pair.
  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/bench_batch_eval.json");
  if (json) {
    json << "{\n  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const AbRow& r = rows[i];
      json << (i == 0 ? "\n" : ",\n") << "    {\"model\": \"" << r.model
           << "\", \"batch_size\": " << r.batch_size
           << ", \"scalar_per_item_ns\": " << r.scalar_per_item_ns
           << ", \"batch_built_per_item_ns\": " << r.batch_built_per_item_ns
           << ", \"batch_eval_per_item_ns\": " << r.batch_eval_per_item_ns
           << ", \"speedup_built\": " << r.speedup_built
           << ", \"speedup_eval\": " << r.speedup_eval << "}";
    }
    json << "\n  ]\n}\n";
    std::printf("\nwrote bench_out/bench_batch_eval.json\n\n");
  }
}

// google-benchmark registrations: the WAVM3 hot paths at a fixed batch
// size, so regressions show up in the smoke run's timing output too.

void BM_ScalarPredictLoop(benchmark::State& state) {
  const models::Dataset train = make_dataset(160, 7);
  const models::Dataset pool = make_dataset(static_cast<std::size_t>(state.range(0)), 8);
  core::Wavm3Model model;
  model.fit(train);
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& obs : pool.observations) acc += model.predict_energy(obs);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool.observations.size()));
}
BENCHMARK(BM_ScalarPredictLoop)->Arg(64)->Arg(256);

void BM_BatchPredictBuilt(benchmark::State& state) {
  const models::Dataset train = make_dataset(160, 7);
  const models::Dataset pool = make_dataset(static_cast<std::size_t>(state.range(0)), 8);
  core::Wavm3Model model;
  model.fit(train);
  std::vector<double> out(pool.observations.size());
  for (auto _ : state) {
    const models::FeatureBatch batch(pool);
    model.predict_batch(batch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool.observations.size()));
}
BENCHMARK(BM_BatchPredictBuilt)->Arg(64)->Arg(256);

void BM_BatchPredictEvalOnly(benchmark::State& state) {
  const models::Dataset train = make_dataset(160, 7);
  const models::Dataset pool = make_dataset(static_cast<std::size_t>(state.range(0)), 8);
  core::Wavm3Model model;
  model.fit(train);
  const models::FeatureBatch batch(pool);
  std::vector<double> out(pool.observations.size());
  for (auto _ : state) {
    model.predict_batch(batch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool.observations.size()));
}
BENCHMARK(BM_BatchPredictEvalOnly)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
