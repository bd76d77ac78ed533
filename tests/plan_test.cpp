// src/plan/: fleet model, workload-cycle detection, candidate pricing,
// and wave planning with the bundled placement strategies.
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "plan/cycle_detector.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::plan {
namespace {

using migration::MigrationType;

// ---------------------------------------------------------------- cycles

std::pair<std::vector<double>, std::vector<double>> sampled_signal(
    double period, double span, double dt, double noise_amp, unsigned seed,
    double phase = 0.0) {
  std::vector<double> t;
  std::vector<double> y;
  unsigned state = seed * 2654435761u + 1u;
  const auto jitter = [&] {
    state = state * 1664525u + 1013904223u;
    return (static_cast<double>(state >> 8) / static_cast<double>(1u << 24) - 0.5) * 2.0;
  };
  for (double x = 0.0; x <= span; x += dt) {
    t.push_back(x);
    const double base = 0.5 * (1.0 - std::cos(2.0 * M_PI * (x + phase) / period));
    y.push_back(1000.0 + 9000.0 * base + noise_amp * jitter());
  }
  return {t, y};
}

TEST(CycleDetector, FindsPlantedPeriod) {
  const double period = 7200.0;
  const auto [t, y] = sampled_signal(period, 4 * period, 60.0, 0.0, 7);
  const CycleEstimate e = CycleDetector().analyze(t, y);
  ASSERT_TRUE(e.periodic);
  EXPECT_NEAR(e.period_s, period, 0.05 * period);
  EXPECT_GT(e.confidence, 0.8);
  EXPECT_GT(e.overall_mean, 0.0);
}

TEST(CycleDetector, LowWindowSitsAtTheSignalMinimum) {
  const double period = 7200.0;
  // Signal minima at x + phase = k * period.
  const double phase = 1800.0;
  const auto [t, y] = sampled_signal(period, 4 * period, 60.0, 0.0, 11, phase);
  const CycleEstimate e = CycleDetector().analyze(t, y);
  ASSERT_TRUE(e.periodic);
  // The low window's midpoint lands near a minimum (mod period).
  const double mid = e.low_anchor_s + 0.5 * e.low_duration_s + phase;
  const double frac = mid / e.period_s - std::floor(mid / e.period_s);
  const double dist = std::min(frac, 1.0 - frac);
  EXPECT_LT(dist, 0.15);
  // Migrating inside the window sees far less dirtying than average.
  EXPECT_LT(e.low_mean, 0.5 * e.overall_mean);
  EXPECT_GT(e.low_duration_s, 0.0);
}

TEST(CycleDetector, SurvivesNoise) {
  const double period = 5400.0;
  const auto [t, y] = sampled_signal(period, 5 * period, 90.0, 900.0, 3);
  const CycleEstimate e = CycleDetector().analyze(t, y);
  ASSERT_TRUE(e.periodic);
  EXPECT_NEAR(e.period_s, period, 0.1 * period);
}

TEST(CycleDetector, RejectsAperiodicNoise) {
  std::vector<double> t;
  std::vector<double> y;
  unsigned state = 99u;
  for (double x = 0.0; x <= 4 * 7200.0; x += 60.0) {
    state = state * 1664525u + 1013904223u;
    t.push_back(x);
    y.push_back(5000.0 + static_cast<double>(state >> 20));
  }
  const CycleEstimate e = CycleDetector().analyze(t, y);
  EXPECT_FALSE(e.periodic);
  EXPECT_GT(e.overall_mean, 0.0);
}

TEST(CycleDetector, RejectsFlatAndDegenerateTraces) {
  std::vector<double> t;
  std::vector<double> y;
  for (double x = 0.0; x <= 4 * 7200.0; x += 60.0) {
    t.push_back(x);
    y.push_back(4321.0);
  }
  const CycleEstimate flat = CycleDetector().analyze(t, y);
  EXPECT_FALSE(flat.periodic);
  EXPECT_DOUBLE_EQ(flat.overall_mean, 4321.0);

  // Too short to support any period.
  const std::vector<double> t3 = {0.0, 60.0, 120.0};
  const std::vector<double> y3 = {1.0, 2.0, 3.0};
  EXPECT_FALSE(CycleDetector().analyze(t3, y3).periodic);
  EXPECT_FALSE(CycleDetector().analyze({}, {}).periodic);
}

TEST(CycleDetector, NextLowWindowStartRepeatsEveryPeriod) {
  CycleEstimate e;
  e.periodic = true;
  e.period_s = 100.0;
  e.low_anchor_s = 30.0;
  e.low_duration_s = 10.0;
  EXPECT_DOUBLE_EQ(CycleDetector::next_low_window_start(e, 0.0), 30.0);
  EXPECT_DOUBLE_EQ(CycleDetector::next_low_window_start(e, 30.0), 30.0);
  EXPECT_DOUBLE_EQ(CycleDetector::next_low_window_start(e, 31.0), 130.0);
  EXPECT_DOUBLE_EQ(CycleDetector::next_low_window_start(e, 635.0), 730.0);
  CycleEstimate aperiodic;
  EXPECT_THROW(CycleDetector::next_low_window_start(aperiodic, 0.0), util::ContractError);
}

// ----------------------------------------------------------------- fleet

TEST(Fleet, SyntheticInvariantsHold) {
  const Fleet fleet = Fleet::synthetic(40, 200, 17);
  EXPECT_EQ(fleet.host_count(), 40u);
  EXPECT_EQ(fleet.vm_count(), 200u);
  double committed_total = 0.0;
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const FleetHost& host = fleet.host(static_cast<int>(h));
    double cpu = 0.0;
    double ram = 0.0;
    for (const int v : host.vms) {
      EXPECT_EQ(fleet.vm(v).host, static_cast<int>(h));
      cpu += fleet.vm(v).cpu_now;
      ram += fleet.vm(v).ram_bytes;
    }
    EXPECT_NEAR(host.cpu_load, cpu, 1e-9);
    EXPECT_NEAR(host.ram_committed, ram, 1.0);
    EXPECT_LE(host.ram_committed, host.spec.ram_bytes);
    EXPECT_FALSE(host.spec.group.empty());
    committed_total += ram;
  }
  EXPECT_GT(committed_total, 0.0);
  // Histories exist and drive cycle detection for the periodic share.
  int periodic = 0;
  const CycleDetector detector;
  for (std::size_t v = 0; v < fleet.vm_count(); ++v) {
    const VmHistory& hist = fleet.vm(static_cast<int>(v)).history;
    ASSERT_FALSE(hist.empty());
    if (detector.analyze(hist.t, hist.dirty).periodic) ++periodic;
  }
  // periodic_fraction defaults to 0.7; allow detection slack.
  EXPECT_GT(periodic, static_cast<int>(fleet.vm_count()) / 2);
}

TEST(Fleet, HostLookupAndMoveAccounting) {
  Fleet fleet = Fleet::synthetic(8, 30, 5);
  EXPECT_EQ(fleet.host_index(fleet.host(3).spec.name), 3);
  EXPECT_EQ(fleet.host_index("no-such-host"), -1);

  const int v = fleet.host(0).vms.front();
  const double cpu = fleet.vm(v).cpu_now;
  const double ram = fleet.vm(v).ram_bytes;
  const double src_cpu = fleet.host(0).cpu_load;
  const double dst_cpu = fleet.host(1).cpu_load;
  fleet.move_vm(v, 1);
  EXPECT_EQ(fleet.vm(v).host, 1);
  EXPECT_NEAR(fleet.host(0).cpu_load, src_cpu - cpu, 1e-9);
  EXPECT_NEAR(fleet.host(1).cpu_load, dst_cpu + cpu, 1e-9);
  EXPECT_GE(fleet.host(1).ram_committed, ram);
}

TEST(Fleet, CsvRoundTripAndValidation) {
  std::istringstream hosts(
      "name,vcpus,ram_gib,nic_gbit,group,max_migrations\n"
      "alpha,32,64,10,rackA,2\n"
      "beta,16,32,1,rackB,1\n");
  std::istringstream vms(
      "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n"
      "web01,alpha,4,8,2.5,12000,250000\n"
      "db01,beta,8,16,6.0,30000,800000\n");
  const Fleet fleet = Fleet::from_csv(hosts, vms);
  ASSERT_EQ(fleet.host_count(), 2u);
  ASSERT_EQ(fleet.vm_count(), 2u);
  EXPECT_EQ(fleet.host(0).spec.name, "alpha");
  EXPECT_EQ(fleet.host(0).spec.max_concurrent_migrations, 2);
  EXPECT_NEAR(fleet.host(0).spec.nic_rate, 10.0 * 125e6, 1e6);
  EXPECT_EQ(fleet.host(0).spec.group, "rackA");
  EXPECT_EQ(fleet.vm(0).host, 0);
  EXPECT_NEAR(fleet.vm(0).ram_bytes, util::gib(8.0), 1.0);
  EXPECT_DOUBLE_EQ(fleet.vm(0).cpu_now, 2.5);
  EXPECT_EQ(fleet.vm(1).working_set_pages, 800000u);

  std::istringstream bad_header("name,vcpus\nx,1\n");
  std::istringstream no_vms(
      "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n");
  EXPECT_THROW(Fleet::from_csv(bad_header, no_vms), util::ContractError);

  std::istringstream ok_hosts(
      "name,vcpus,ram_gib,nic_gbit,group,max_migrations\n"
      "alpha,32,64,10,rackA,2\n");
  std::istringstream unknown_host(
      "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n"
      "web01,missing,4,8,2.5,12000,250000\n");
  EXPECT_THROW(Fleet::from_csv(ok_hosts, unknown_host), util::ContractError);
}

TEST(Fleet, CsvRejectsMalformedSpecs) {
  const std::string host_header =
      "name,vcpus,ram_gib,nic_gbit,group,max_migrations\n";
  const std::string good_host = "alpha,32,64,10,rackA,2\n";
  const std::string vm_header =
      "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n";
  const std::string good_vm = "web01,alpha,4,8,2.5,12000,250000\n";

  const auto expect_host_rejected = [&](const std::string& row) {
    std::istringstream hosts(host_header + row);
    std::istringstream vms(vm_header + good_vm);
    EXPECT_THROW(Fleet::from_csv(hosts, vms), util::ContractError) << row;
  };
  const auto expect_vm_rejected = [&](const std::string& rows) {
    std::istringstream hosts(host_header + good_host);
    std::istringstream vms(vm_header + rows);
    EXPECT_THROW(Fleet::from_csv(hosts, vms), util::ContractError) << rows;
  };

  // Host rows: non-finite and non-positive capacities must not survive
  // into a Fleet where they would poison utilisation and fit checks.
  expect_host_rejected("alpha,nan,64,10,rackA,2\n");
  expect_host_rejected("alpha,0,64,10,rackA,2\n");
  expect_host_rejected("alpha,-8,64,10,rackA,2\n");
  expect_host_rejected("alpha,32,0,10,rackA,2\n");
  expect_host_rejected("alpha,32,-64,10,rackA,2\n");
  expect_host_rejected("alpha,32,64,-10,rackA,2\n");
  expect_host_rejected("alpha,32,64,inf,rackA,2\n");
  expect_host_rejected("alpha,32,64,10,rackA,-1\n");

  // VM rows: empty/duplicate ids and negative demand columns.
  expect_vm_rejected(",alpha,4,8,2.5,12000,250000\n");
  expect_vm_rejected(good_vm + "web01,alpha,2,4,1.0,5000,100000\n");
  expect_vm_rejected("web01,alpha,0,8,2.5,12000,250000\n");
  expect_vm_rejected("web01,alpha,4,-8,2.5,12000,250000\n");
  expect_vm_rejected("web01,alpha,4,8,-2.5,12000,250000\n");
  expect_vm_rejected("web01,alpha,4,8,2.5,-12000,250000\n");
  expect_vm_rejected("web01,alpha,4,8,2.5,12000,-250000\n");
  expect_vm_rejected("web01,alpha,4,8,nan,12000,250000\n");

  // Distinct ids on a valid host still parse.
  std::istringstream hosts(host_header + good_host);
  std::istringstream vms(vm_header + good_vm + "web02,alpha,2,4,1.0,5000,100000\n");
  const Fleet ok = Fleet::from_csv(hosts, vms);
  EXPECT_EQ(ok.vm_count(), 2u);
}

TEST(Fleet, RefreshLoadsTracksTrailingWindow) {
  // One host, one VM with a step history: 1 vCPU before t=1000,
  // 3 vCPUs after. A trailing window entirely inside the high plateau
  // must report ~3.
  Fleet fleet;
  cloud::HostSpec spec;
  spec.name = "h";
  spec.vcpus = 8;
  spec.ram_bytes = util::gib(32.0);
  const int h = fleet.add_host(spec);
  FleetVm vm;
  vm.id = "v";
  vm.vcpus = 4;
  vm.ram_bytes = util::gib(1.0);
  vm.working_set_pages = 1000;
  for (double t = 0.0; t <= 2000.0; t += 10.0) {
    vm.history.t.push_back(t);
    vm.history.cpu.push_back(t < 1000.0 ? 1.0 : 3.0);
    vm.history.dirty.push_back(t < 1000.0 ? 100.0 : 900.0);
  }
  fleet.add_vm(vm, h);
  fleet.refresh_loads(2000.0, 500.0);
  EXPECT_NEAR(fleet.vm(0).cpu_now, 3.0, 1e-9);
  EXPECT_NEAR(fleet.vm(0).dirty_now, 900.0, 1e-9);
  EXPECT_NEAR(fleet.host(0).cpu_load, 3.0, 1e-9);
  EXPECT_NEAR(fleet.host_utilisation(0), 3.0 / 8.0, 1e-9);
}

// --------------------------------------------------------------- planner

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

PlannerConfig test_config() {
  PlannerConfig config;
  config.policy.underload_fraction = 0.30;
  config.policy.overload_fraction = 0.90;
  config.wave_horizon_s = 2.0 * 7200.0;
  return config;
}

TEST(MigrationPlanner, WaveRespectsCapacityAndConcurrency) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = Fleet::synthetic(24, 120, 23);
  MigrationPlanner planner(model, test_config());
  const BeamSearchStrategy beam;
  const double now = SyntheticFleetOptions{}.history_s;
  const WavePlan plan = planner.plan_wave(fleet, beam, now);

  ASSERT_GT(plan.donors_considered, 0);
  ASSERT_FALSE(plan.moves.empty());
  EXPECT_GT(plan.candidates_scored, 0u);

  // Committed fleet: every host within RAM capacity and under the
  // overload fraction; vacated donors are empty and powered off.
  std::map<int, int> vacated;
  for (const ScheduledMove& m : plan.moves) {
    EXPECT_GE(m.start_s, now);
    EXPECT_GT(m.end_s, m.start_s);
    vacated[m.source] = 1;
  }
  EXPECT_EQ(static_cast<int>(vacated.size()), plan.donors_vacated);
  for (const auto& [h, one] : vacated) {
    (void)one;
    EXPECT_TRUE(fleet.host(h).vms.empty()) << "donor " << h << " only partially vacated";
    EXPECT_FALSE(fleet.host(h).powered_on);
  }
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const FleetHost& host = fleet.host(static_cast<int>(h));
    EXPECT_LE(host.ram_committed, host.spec.ram_bytes);
    if (host.powered_on && vacated.count(static_cast<int>(h)) == 0) {
      EXPECT_LE(fleet.host_utilisation(static_cast<int>(h)),
                planner.config().policy.overload_fraction + 1e-9);
    }
  }

  // Concurrency caps: no host serves overlapping migrations beyond its
  // max_concurrent_migrations (1 in the synthetic fleet).
  std::map<int, std::vector<std::pair<double, double>>> busy;
  for (const ScheduledMove& m : plan.moves) {
    busy[m.source].emplace_back(m.start_s, m.end_s);
    busy[m.target].emplace_back(m.start_s, m.end_s);
  }
  for (const auto& [h, intervals] : busy) {
    const int cap = fleet.host(h).spec.max_concurrent_migrations;
    for (std::size_t a = 0; a < intervals.size(); ++a) {
      int overlapping = 0;
      for (std::size_t b = 0; b < intervals.size(); ++b) {
        if (intervals[b].first < intervals[a].second &&
            intervals[b].second > intervals[a].first) {
          ++overlapping;
        }
      }
      EXPECT_LE(overlapping, cap) << "host " << h;
    }
  }
}

/// Passes choices through to `inner` and keeps the candidate set it was
/// handed, so tests can inspect every priced variant.
class RecordingStrategy final : public PlacementStrategy {
 public:
  explicit RecordingStrategy(const PlacementStrategy& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  std::vector<int> choose(const Fleet& fleet, const CandidateSet& candidates,
                          const PlannerConfig& config) const override {
    seen = candidates;
    return inner_.choose(fleet, candidates, config);
  }
  mutable CandidateSet seen;

 private:
  const PlacementStrategy& inner_;
};

TEST(MigrationPlanner, PricesEveryMoveWithTheClosedFormForecast) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner forecaster(model);
  PlannerConfig config = test_config();
  config.cycle_aware = false;
  const double now = SyntheticFleetOptions{}.history_s;
  Fleet fleet = Fleet::synthetic(24, 120, 23);
  // The fleet as the wave sees it before committing anything.
  Fleet before = fleet;
  before.refresh_loads(now, config.load_window_s);

  const BeamSearchStrategy beam;
  const RecordingStrategy recording(beam);
  MigrationPlanner planner(model, config);
  const WavePlan plan = planner.plan_wave(fleet, recording, now);
  ASSERT_FALSE(plan.moves.empty());

  // Bit-equal, not merely close: the planner prices through the very
  // same forecast call.
  for (const ScheduledMove& m : plan.moves) {
    const core::MigrationForecast expect =
        forecaster.forecast(move_scenario(before, m.vm, m.source, m.target, config));
    EXPECT_EQ(m.energy_j, expect.total_energy()) << "vm " << m.vm;
    EXPECT_EQ(m.downtime_s, expect.downtime) << "vm " << m.vm;
  }

  // Every candidate carries the per-phase split, summing to its totals.
  ASSERT_EQ(recording.seen.moves.size(), plan.candidates_scored);
  for (const ScoredMove& c : recording.seen.moves) {
    EXPECT_FALSE(c.has_aligned);
    const core::MigrationForecast& fc = c.blind.forecast;
    EXPECT_EQ(c.blind.energy_j, forecaster.forecast(c.blind.scenario).total_energy());
    EXPECT_GT(fc.source_phase_energy[1], 0.0);
    EXPECT_GT(fc.target_phase_energy[1], 0.0);
    EXPECT_EQ(fc.source_phase_energy[0] + fc.source_phase_energy[1] + fc.source_phase_energy[2],
              fc.source_energy);
    EXPECT_EQ(fc.target_phase_energy[0] + fc.target_phase_energy[1] + fc.target_phase_energy[2],
              fc.target_energy);
  }
}

TEST(MigrationPlanner, BeamNeverCostsMoreThanFirstFit) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = Fleet::synthetic(32, 160, 29);
  MigrationPlanner planner(model, test_config());
  const double now = SyntheticFleetOptions{}.history_s;

  const FirstFitStrategy first_fit;
  const BeamSearchStrategy beam;
  const WavePlan naive = planner.plan_wave(fleet, first_fit, now, /*commit=*/false);
  const WavePlan smart = planner.plan_wave(fleet, beam, now, /*commit=*/false);

  ASSERT_FALSE(naive.moves.empty());
  ASSERT_FALSE(smart.moves.empty());
  // Identical donors vacated (all-or-nothing from the same candidate
  // set), strictly no more predicted energy.
  EXPECT_EQ(smart.donors_vacated, naive.donors_vacated);
  EXPECT_LE(smart.total_migration_energy_j, naive.total_migration_energy_j * (1.0 + 1e-12));
}

TEST(MigrationPlanner, CycleAwareSchedulingNeverCostsMoreAndAligns) {
  const core::Wavm3Model model = make_model();
  SyntheticFleetOptions opts;
  opts.periodic_fraction = 1.0;  // the paper's periodic-workload scenario
  Fleet fleet = Fleet::synthetic(24, 120, 31, opts);
  const double now = opts.history_s;

  PlannerConfig aware_cfg = test_config();
  aware_cfg.cycle_aware = true;
  PlannerConfig blind_cfg = test_config();
  blind_cfg.cycle_aware = false;

  const BeamSearchStrategy beam;
  MigrationPlanner aware(model, aware_cfg);
  MigrationPlanner blind(model, blind_cfg);
  const WavePlan blind_plan = blind.plan_wave(fleet, beam, now, /*commit=*/false);
  const WavePlan aware_plan = aware.plan_wave(fleet, beam, now, /*commit=*/false);

  ASSERT_FALSE(blind_plan.moves.empty());
  // Selection is cycle-independent, so the same moves are planned; the
  // scheduler only swaps in an aligned (low-dirtying-window) variant
  // when it is no dearer — per move, hence in total.
  ASSERT_EQ(aware_plan.moves.size(), blind_plan.moves.size());
  EXPECT_EQ(blind_plan.moves_cycle_aligned, 0);
  EXPECT_GT(aware_plan.moves_cycle_aligned, 0);
  EXPECT_LE(aware_plan.total_migration_energy_j,
            blind_plan.total_migration_energy_j * (1.0 + 1e-12));
  // Aligned moves must start inside their low-dirtying window => at
  // least one move is deferred rather than immediate.
  bool any_deferred = false;
  for (const ScheduledMove& m : aware_plan.moves) {
    if (m.cycle_aligned && m.start_s > now) any_deferred = true;
  }
  EXPECT_TRUE(any_deferred);
}

TEST(MigrationPlanner, WavesRollForward) {
  // Consecutive waves keep consolidating: powered hosts never increase,
  // and a vacated host stays off and receives nothing.
  const core::Wavm3Model model = make_model();
  Fleet fleet = Fleet::synthetic(24, 96, 41);
  MigrationPlanner planner(model, test_config());
  const BeamSearchStrategy beam;
  double now = SyntheticFleetOptions{}.history_s;

  const auto powered = [&] {
    int n = 0;
    for (std::size_t h = 0; h < fleet.host_count(); ++h) {
      if (fleet.host(static_cast<int>(h)).powered_on) ++n;
    }
    return n;
  };
  int prev = powered();
  for (int wave = 0; wave < 3; ++wave) {
    const WavePlan plan = planner.plan_wave(fleet, beam, now);
    const int cur = powered();
    EXPECT_EQ(cur, prev - plan.donors_vacated);
    for (const ScheduledMove& m : plan.moves) {
      EXPECT_TRUE(fleet.host(m.target).powered_on);
    }
    prev = cur;
    now += 1800.0;
  }
  EXPECT_LT(prev, 24);
}

}  // namespace
}  // namespace wavm3::plan
