// Tier-2 bench for the datacenter planner (src/plan/): rolling
// consolidation waves over a synthetic 2k-host / 20k-VM fleet, run
// four ways — naive first-fit vs energy-aware beam search (fleet-energy
// and SLA/downtime curves, committed wave by wave on identical fleet
// copies), and beam cycle-blind vs cycle-aware (single what-if wave on
// the same fleet, isolating the scheduling effect). Prints the curves,
// emits bench_out/bench_plan.json, and registers google-benchmark
// timings of plan_wave and cycle detection.
//
// The companion ctest gate (check_plan.cmake) asserts that the
// energy-aware strategy never nets more fleet energy than first-fit,
// that cycle-aware scheduling never prices above cycle-blind, that at
// least one move actually snapped into a low-dirtying window, and that
// a wave at this scale stays inside the wall-clock budget.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/wavm3_model.hpp"
#include "plan/cycle_detector.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"

namespace {

using namespace wavm3;
using migration::MigrationType;

constexpr int kHosts = 2048;
constexpr int kVms = 20480;
constexpr std::uint64_t kSeed = 2015;
constexpr int kWaves = 3;
constexpr double kWaveGapS = 7200.0;  ///< one workload period between waves

/// A fitted model from synthetic coefficient tables (same family the
/// calib tests and plan tests use).
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

plan::PlannerConfig make_config(bool cycle_aware) {
  plan::PlannerConfig cfg;
  cfg.cycle_aware = cycle_aware;
  return cfg;
}

/// Net fleet energy of one wave: what the wave costs in migration
/// energy minus what the vacated donors stop drawing at idle over the
/// planning horizon. Negative = the wave pays for itself.
double net_energy(const plan::WavePlan& plan) {
  return plan.total_migration_energy_j - plan.steady_saving_j;
}

struct WaveRecord {
  int wave = 0;
  double migration_energy_j = 0.0;
  double steady_saving_j = 0.0;
  double net_energy_j = 0.0;
  double downtime_s = 0.0;
  int moves = 0;
  int donors_vacated = 0;
  int cycle_aligned = 0;
  int powered_hosts = 0;
  std::size_t candidates_scored = 0;
  double wall_s = 0.0;
};

int powered_hosts(const plan::Fleet& fleet) {
  int on = 0;
  for (const plan::FleetHost& h : fleet.hosts()) on += h.powered_on ? 1 : 0;
  return on;
}

/// Rolling committed waves of one strategy on its own fleet copy.
std::vector<WaveRecord> run_waves(const core::Wavm3Model& model, plan::Fleet fleet,
                                  const plan::PlacementStrategy& strategy, double t0) {
  plan::MigrationPlanner planner(model, make_config(/*cycle_aware=*/true));
  std::vector<WaveRecord> records;
  for (int w = 0; w < kWaves; ++w) {
    const double now = t0 + static_cast<double>(w) * kWaveGapS;
    const plan::WavePlan p = planner.plan_wave(fleet, strategy, now, /*commit=*/true);
    WaveRecord r;
    r.wave = w;
    r.migration_energy_j = p.total_migration_energy_j;
    r.steady_saving_j = p.steady_saving_j;
    r.net_energy_j = net_energy(p);
    r.downtime_s = p.total_downtime_s;
    r.moves = static_cast<int>(p.moves.size());
    r.donors_vacated = p.donors_vacated;
    r.cycle_aligned = p.moves_cycle_aligned;
    r.powered_hosts = powered_hosts(fleet);
    r.candidates_scored = p.candidates_scored;
    r.wall_s = p.wave_seconds;
    records.push_back(r);
  }
  return records;
}

void print_curve(const char* label, const std::vector<WaveRecord>& curve) {
  std::printf("%s\n", label);
  std::printf("%6s %14s %14s %14s %10s %6s %8s %8s %9s\n", "wave", "migr MJ",
              "saving MJ", "net MJ", "downtime", "moves", "vacated", "aligned",
              "wall s");
  for (const WaveRecord& r : curve) {
    std::printf("%6d %14.3f %14.3f %14.3f %9.2fs %6d %8d %8d %9.2f\n", r.wave,
                r.migration_energy_j / 1e6, r.steady_saving_j / 1e6,
                r.net_energy_j / 1e6, r.downtime_s, r.moves, r.donors_vacated,
                r.cycle_aligned, r.wall_s);
  }
  std::printf("\n");
}

void dump_curve(std::ofstream& json, const char* key,
                const std::vector<WaveRecord>& curve) {
  json << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const WaveRecord& r = curve[i];
    json << (i == 0 ? "\n" : ",\n") << "    {\"wave\": " << r.wave
         << ", \"migration_energy_j\": " << r.migration_energy_j
         << ", \"steady_saving_j\": " << r.steady_saving_j
         << ", \"net_energy_j\": " << r.net_energy_j
         << ", \"downtime_s\": " << r.downtime_s << ", \"moves\": " << r.moves
         << ", \"donors_vacated\": " << r.donors_vacated
         << ", \"cycle_aligned\": " << r.cycle_aligned
         << ", \"powered_hosts\": " << r.powered_hosts
         << ", \"candidates_scored\": " << r.candidates_scored
         << ", \"wall_s\": " << r.wall_s << "}";
  }
  json << "\n  ]";
}

void print_report() {
  std::printf("=============================================================\n");
  std::printf("migration planner: %d hosts, %d VMs, %d rolling waves\n", kHosts, kVms,
              kWaves);
  std::printf("=============================================================\n\n");

  const core::Wavm3Model model = make_model();
  const plan::Fleet base =
      plan::Fleet::synthetic(kHosts, kVms, kSeed, plan::SyntheticFleetOptions{});
  const double t0 = base.history_end();

  // Fleet-energy and SLA curves: identical fleet copies, committed
  // wave by wave under each placement strategy.
  const plan::FirstFitStrategy first_fit;
  const plan::BeamSearchStrategy beam;
  const std::vector<WaveRecord> ff_curve = run_waves(model, base, first_fit, t0);
  const std::vector<WaveRecord> beam_curve = run_waves(model, base, beam, t0);
  print_curve("naive first-fit:", ff_curve);
  print_curve("energy-aware beam search:", beam_curve);

  double ff_net = 0.0;
  double ff_downtime = 0.0;
  for (const WaveRecord& r : ff_curve) {
    ff_net += r.net_energy_j;
    ff_downtime += r.downtime_s;
  }
  double beam_net = 0.0;
  double beam_downtime = 0.0;
  double max_wall = 0.0;
  std::size_t scored = 0;
  double scored_wall = 0.0;
  for (const WaveRecord& r : beam_curve) {
    beam_net += r.net_energy_j;
    beam_downtime += r.downtime_s;
  }
  for (const std::vector<WaveRecord>* curve : {&ff_curve, &beam_curve}) {
    for (const WaveRecord& r : *curve) {
      max_wall = std::max(max_wall, r.wall_s);
      scored += r.candidates_scored;
      scored_wall += r.wall_s;
    }
  }

  // Cycle scheduling effect, isolated: one what-if wave of the beam
  // strategy on the same fleet, cycle-blind vs cycle-aware. Candidate
  // selection is identical by construction (ScoredMove::
  // selection_energy is the blind price), so any difference is the
  // scheduler swapping moves into cheaper low-dirtying windows.
  plan::Fleet blind_fleet = base;
  plan::Fleet aware_fleet = base;
  plan::MigrationPlanner blind_planner(model, make_config(/*cycle_aware=*/false));
  plan::MigrationPlanner aware_planner(model, make_config(/*cycle_aware=*/true));
  const plan::WavePlan blind =
      blind_planner.plan_wave(blind_fleet, beam, t0, /*commit=*/false);
  const plan::WavePlan aware =
      aware_planner.plan_wave(aware_fleet, beam, t0, /*commit=*/false);
  max_wall = std::max({max_wall, blind.wave_seconds, aware.wave_seconds});

  std::printf("cumulative net fleet energy   first-fit %.3f MJ, beam %.3f MJ\n",
              ff_net / 1e6, beam_net / 1e6);
  std::printf("cumulative downtime           first-fit %.2f s,  beam %.2f s\n",
              ff_downtime, beam_downtime);
  std::printf("cycle scheduling (one wave)   blind %.3f MJ, aware %.3f MJ, "
              "%d/%zu moves aligned\n",
              blind.total_migration_energy_j / 1e6,
              aware.total_migration_energy_j / 1e6, aware.moves_cycle_aligned,
              aware.moves.size());
  const double cps = scored_wall > 0.0 ? static_cast<double>(scored) / scored_wall : 0.0;
  std::printf("planner throughput            %.0f candidates/s, slowest wave %.2f s\n\n",
              cps, max_wall);

  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/bench_plan.json");
  if (json) {
    json << "{\n"
         << "  \"hosts\": " << kHosts << ",\n"
         << "  \"vms\": " << kVms << ",\n"
         << "  \"waves\": " << kWaves << ",\n"
         << "  \"first_fit_net_energy_j\": " << ff_net << ",\n"
         << "  \"beam_net_energy_j\": " << beam_net << ",\n"
         << "  \"first_fit_downtime_s\": " << ff_downtime << ",\n"
         << "  \"beam_downtime_s\": " << beam_downtime << ",\n"
         << "  \"cycle_blind_energy_j\": " << blind.total_migration_energy_j << ",\n"
         << "  \"cycle_aware_energy_j\": " << aware.total_migration_energy_j << ",\n"
         << "  \"cycle_aligned_moves\": " << aware.moves_cycle_aligned << ",\n"
         << "  \"beam_moves\": " << aware.moves.size() << ",\n"
         << "  \"max_wave_seconds\": " << max_wall << ",\n"
         << "  \"candidates_per_second\": " << cps << ",\n";
    dump_curve(json, "first_fit_curve", ff_curve);
    json << ",\n";
    dump_curve(json, "beam_curve", beam_curve);
    json << "\n}\n";
    std::printf("wrote bench_out/bench_plan.json\n\n");
  }
}

// google-benchmark registrations: one planning wave at a smaller (but
// still multi-rack) scale, per strategy, and the cycle detector on a
// realistic dirtying history.

void BM_PlanWave(benchmark::State& state) {
  const core::Wavm3Model model = make_model();
  const plan::Fleet base = plan::Fleet::synthetic(
      static_cast<int>(state.range(0)), static_cast<int>(10 * state.range(0)), kSeed,
      plan::SyntheticFleetOptions{});
  const double t0 = base.history_end();
  const plan::FirstFitStrategy first_fit;
  const plan::BeamSearchStrategy beam;
  const plan::PlacementStrategy& strategy =
      state.range(1) == 0 ? static_cast<const plan::PlacementStrategy&>(first_fit)
                          : static_cast<const plan::PlacementStrategy&>(beam);
  plan::MigrationPlanner planner(model, make_config(/*cycle_aware=*/true));
  std::size_t scored = 0;
  for (auto _ : state) {
    plan::Fleet fleet = base;
    const plan::WavePlan p = planner.plan_wave(fleet, strategy, t0, /*commit=*/false);
    scored += p.candidates_scored;
    benchmark::DoNotOptimize(p.total_migration_energy_j);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(scored));
  state.SetLabel(strategy.name());
}
BENCHMARK(BM_PlanWave)->Args({128, 0})->Args({128, 1});

void BM_CycleDetect(benchmark::State& state) {
  const plan::Fleet fleet =
      plan::Fleet::synthetic(4, 40, kSeed, plan::SyntheticFleetOptions{});
  const plan::FleetVm& vm = fleet.vm(0);
  const plan::CycleDetector detector{plan::CycleDetectorConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(vm.history.t, vm.history.dirty));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleDetect);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
