// Tier-2 soak for the chaos executor (src/chaos/): the closed-loop
// plan -> execute -> replan pipeline over a synthetic 2k-host /
// 20k-VM fleet under a seeded level-3 fault storm. Two runs:
//
//   * storm soak — WaveExecutor::run under the storm; the gate
//     demands that >= 95% of planned moves end completed-or-replanned
//     and that the FleetInvariantChecker stays silent on every wave;
//   * parity pin — the same executor with faults (and relief) off on
//     a fresh fleet copy, compared against the direct
//     MigrationPlanner::plan_wave(commit=true) path wave for wave.
//     With nothing to fail, the loop must add no cost: committed
//     energy within 1e-9 relative, identical placements and powered
//     sets.
//
// Prints both runs, emits bench_out/bench_chaos_soak.json, and
// registers google-benchmark timings of one closed-loop wave at a
// smaller scale. The companion ctest gate (check_chaos.cmake) parses
// the artefact.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "chaos/executor.hpp"
#include "core/wavm3_model.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"

namespace {

using namespace wavm3;
using migration::MigrationType;

constexpr int kHosts = 2048;
constexpr int kVms = 20480;
constexpr std::uint64_t kFleetSeed = 2015;
constexpr std::uint64_t kStormSeed = 2015;
constexpr int kStormLevel = 3;
constexpr int kMaxWaves = 8;

core::Wavm3Model make_model() {
  core::Wavm3Model m;
  for (const MigrationType type :
       {MigrationType::kNonLive, MigrationType::kLive, MigrationType::kPostCopy}) {
    const double t = type == MigrationType::kNonLive ? 0.7 : 1.0;
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

struct ParityResult {
  int waves = 0;
  double chaos_committed_j = 0.0;
  double direct_committed_j = 0.0;
  double rel_err = 0.0;
  bool placements_match = true;
  bool ok = false;
};

/// Faults-off closed loop vs the direct planner-commit path on fleet
/// copies: the chaos machinery must be a no-op wrapper when nothing
/// fails.
ParityResult run_parity(const core::Wavm3Model& model, const plan::Fleet& base,
                        const plan::PlacementStrategy& strategy, double t0) {
  chaos::ChaosConfig cfg;
  cfg.faults_enabled = false;
  cfg.relief_enabled = false;
  cfg.max_waves = kMaxWaves;
  cfg.replan.wave_deadline_s = 1e9;  // nothing defers on the happy path

  plan::Fleet chaos_fleet = base;
  chaos::WaveExecutor exec(model, cfg);
  const chaos::ChaosReport report = exec.run(chaos_fleet, strategy, t0);

  plan::Fleet direct_fleet = base;
  plan::MigrationPlanner planner(model, cfg.planner);
  double direct_j = 0.0;
  for (std::size_t w = 0; w < report.waves.size(); ++w) {
    const double now = t0 + static_cast<double>(w) * cfg.wave_gap_s;
    const plan::WavePlan p =
        planner.plan_wave(direct_fleet, strategy, now, /*commit=*/true);
    direct_j += p.total_migration_energy_j;
  }

  ParityResult r;
  r.waves = static_cast<int>(report.waves.size());
  r.chaos_committed_j = report.ledger.committed_j;
  r.direct_committed_j = direct_j;
  const double scale = std::max(std::abs(direct_j), 1.0);
  r.rel_err = std::abs(report.ledger.committed_j - direct_j) / scale;
  for (std::size_t v = 0; v < base.vm_count(); ++v) {
    if (chaos_fleet.vm(static_cast<int>(v)).host !=
        direct_fleet.vm(static_cast<int>(v)).host) {
      r.placements_match = false;
      break;
    }
  }
  for (std::size_t h = 0; r.placements_match && h < base.host_count(); ++h) {
    if (chaos_fleet.host(static_cast<int>(h)).powered_on !=
        direct_fleet.host(static_cast<int>(h)).powered_on) {
      r.placements_match = false;
    }
  }
  // Not gated on report.terminal: at fleet scale the planner keeps
  // finding fresh consolidation moves as loads drift, so the run uses
  // all max_waves — parity is about identical outcomes, not quiescence.
  r.ok = r.placements_match && r.rel_err <= 1e-9 &&
         report.invariant_violations == 0;
  return r;
}

void print_report() {
  std::printf("=============================================================\n");
  std::printf("chaos soak: %d hosts, %d VMs, storm level %d, seed %llu\n", kHosts,
              kVms, kStormLevel, static_cast<unsigned long long>(kStormSeed));
  std::printf("=============================================================\n\n");

  const core::Wavm3Model model = make_model();
  const plan::Fleet base =
      plan::Fleet::synthetic(kHosts, kVms, kFleetSeed, plan::SyntheticFleetOptions{});
  const double t0 = base.history_end();
  const plan::BeamSearchStrategy beam;

  chaos::ChaosConfig cfg;
  cfg.storm.level = kStormLevel;
  cfg.storm_seed = kStormSeed;
  cfg.max_waves = kMaxWaves;

  plan::Fleet storm_fleet = base;
  chaos::WaveExecutor exec(model, cfg);
  const chaos::ChaosReport report = exec.run(storm_fleet, beam, t0);

  std::printf("%5s %7s %7s %6s %6s %7s %7s %6s %5s %9s\n", "wave", "planned",
              "relief", "retry", "done", "rolled", "vmlost", "shed", "viol",
              "wall s");
  int completed = 0;
  int rolled_back = 0;
  int vm_lost = 0;
  double max_wall = 0.0;
  double total_wall = 0.0;
  for (const chaos::WaveOutcome& w : report.waves) {
    std::printf("%5d %7d %7d %6d %6d %7d %7d %6d %5zu %9.2f\n", w.wave,
                w.planned_moves, w.relief_moves, w.retries_attempted, w.completed,
                w.rolled_back, w.vm_lost, w.shed, w.violations.size(),
                w.wave_seconds);
    completed += w.completed;
    rolled_back += w.rolled_back;
    vm_lost += w.vm_lost;
    max_wall = std::max(max_wall, w.wave_seconds);
    total_wall += w.wave_seconds;
  }
  std::printf("\nresolution %.4f (%d placed + %d replanned of %d planned), "
              "%d violations, terminal=%d\n",
              report.resolution_fraction, report.resolved_placed,
              report.resolved_replanned, report.moves_planned,
              report.invariant_violations, report.terminal ? 1 : 0);
  std::printf("ledger: planned %.3f MJ, committed %.3f MJ, refunded %.3f MJ, "
              "wasted %.3f MJ\n\n",
              report.ledger.planned_j / 1e6, report.ledger.committed_j / 1e6,
              report.ledger.refunded_j / 1e6, report.ledger.wasted_j / 1e6);

  const ParityResult parity = run_parity(model, base, beam, t0);
  std::printf("parity (faults off, %d waves): chaos %.6f MJ vs direct %.6f MJ, "
              "rel err %.3e, placements %s -> %s\n\n",
              parity.waves, parity.chaos_committed_j / 1e6,
              parity.direct_committed_j / 1e6, parity.rel_err,
              parity.placements_match ? "match" : "DIVERGE",
              parity.ok ? "ok" : "FAIL");

  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/bench_chaos_soak.json");
  if (json) {
    json << "{\n"
         << "  \"hosts\": " << kHosts << ",\n"
         << "  \"vms\": " << kVms << ",\n"
         << "  \"storm_level\": " << kStormLevel << ",\n"
         << "  \"storm_seed\": " << kStormSeed << ",\n"
         << "  \"waves\": " << report.waves.size() << ",\n"
         << "  \"terminal\": " << (report.terminal ? 1 : 0) << ",\n"
         << "  \"moves_planned\": " << report.moves_planned << ",\n"
         << "  \"resolved_placed\": " << report.resolved_placed << ",\n"
         << "  \"resolved_replanned\": " << report.resolved_replanned << ",\n"
         << "  \"unresolved\": " << report.unresolved << ",\n"
         << "  \"resolution_fraction\": " << report.resolution_fraction << ",\n"
         << "  \"invariant_violations\": " << report.invariant_violations << ",\n"
         << "  \"completed\": " << completed << ",\n"
         << "  \"rolled_back\": " << rolled_back << ",\n"
         << "  \"vm_lost\": " << vm_lost << ",\n"
         << "  \"planned_j\": " << report.ledger.planned_j << ",\n"
         << "  \"committed_j\": " << report.ledger.committed_j << ",\n"
         << "  \"refunded_j\": " << report.ledger.refunded_j << ",\n"
         << "  \"wasted_j\": " << report.ledger.wasted_j << ",\n"
         << "  \"parity_waves\": " << parity.waves << ",\n"
         << "  \"parity_rel_err\": " << parity.rel_err << ",\n"
         << "  \"parity_ok\": " << (parity.ok ? 1 : 0) << ",\n"
         << "  \"max_wave_seconds\": " << max_wall << ",\n"
         << "  \"total_seconds\": " << total_wall << "\n"
         << "}\n";
    std::printf("wrote bench_out/bench_chaos_soak.json\n\n");
  }
}

// google-benchmark registration: one closed-loop wave (storm on) at a
// smaller but still multi-rack scale.
void BM_ChaosWave(benchmark::State& state) {
  const core::Wavm3Model model = make_model();
  const plan::Fleet base = plan::Fleet::synthetic(
      static_cast<int>(state.range(0)), static_cast<int>(10 * state.range(0)),
      kFleetSeed, plan::SyntheticFleetOptions{});
  const double t0 = base.history_end();
  const plan::BeamSearchStrategy beam;
  chaos::ChaosConfig cfg;
  cfg.storm.level = kStormLevel;
  cfg.storm_seed = kStormSeed;
  for (auto _ : state) {
    plan::Fleet fleet = base;
    chaos::WaveExecutor exec(model, cfg);
    const chaos::WaveOutcome w = exec.run_wave(fleet, beam, 0, t0);
    benchmark::DoNotOptimize(w.completed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChaosWave)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
