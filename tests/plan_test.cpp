// src/plan/: fleet model, workload-cycle detection, candidate pricing,
// and wave planning with the bundled placement strategies.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/instances.hpp"
#include "core/planner.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "obs/metrics.hpp"
#include "plan/cycle_detector.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "stats/integrate.hpp"
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

  // Too short to support any period: still reports the sample mean.
  const std::vector<double> t3 = {0.0, 60.0, 120.0};
  const std::vector<double> y3 = {1.0, 2.0, 6.0};
  const CycleEstimate short_trace = CycleDetector().analyze(t3, y3);
  EXPECT_FALSE(short_trace.periodic);
  EXPECT_DOUBLE_EQ(short_trace.overall_mean, 3.0);
  // Zero time span (every sample at one instant).
  const std::vector<double> t_same(10, 500.0);
  const std::vector<double> y_same = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const CycleEstimate instant = CycleDetector().analyze(t_same, y_same);
  EXPECT_FALSE(instant.periodic);
  EXPECT_DOUBLE_EQ(instant.overall_mean, 5.5);
  const CycleEstimate empty = CycleDetector().analyze({}, {});
  EXPECT_FALSE(empty.periodic);
  EXPECT_EQ(empty.overall_mean, 0.0);
}

/// What plain_analyze() searched: the lag count and, when periodic,
/// the bin count of the folded cycle.
struct PlainShape {
  std::size_t lags = 0;
  std::size_t bins = 0;
};

/// CycleDetector::analyze() written the plain way: stats::interp_at
/// per grid point, one lag at a time, modulo folding with counted
/// bins, and every window summed afresh with a wrapping index.
CycleEstimate plain_analyze(const std::vector<double>& t, const std::vector<double>& y,
                            const CycleDetectorConfig& cfg, PlainShape& shape) {
  shape = {};
  CycleEstimate est;
  if (t.size() < 8 || t.back() - t.front() <= 0.0) {
    if (!y.empty()) {
      for (const double v : y) est.overall_mean += v;
      est.overall_mean /= static_cast<double>(y.size());
    }
    return est;
  }
  const double span = t.back() - t.front();
  const std::size_t n = cfg.resample_points;
  const double dt = span / static_cast<double>(n - 1);
  std::vector<double> x(n);
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = stats::interp_at(t, y, t.front() + static_cast<double>(i) * dt);
    mean += x[i];
  }
  mean /= static_cast<double>(n);
  est.overall_mean = mean;
  double var = 0.0;
  for (double& v : x) {
    v -= mean;
    var += v * v;
  }
  var /= static_cast<double>(n);
  if (var <= 1e-12 * std::max(1.0, mean * mean)) return est;

  const double min_period = cfg.min_period_s > 0.0 ? cfg.min_period_s : 4.0 * dt;
  const double max_period =
      cfg.max_period_s > 0.0 ? std::min(cfg.max_period_s, 0.5 * span) : 0.5 * span;
  const std::size_t lag_lo =
      std::max<std::size_t>(2, static_cast<std::size_t>(std::ceil(min_period / dt)));
  const std::size_t lag_hi =
      std::min(n / 2, static_cast<std::size_t>(std::floor(max_period / dt)));
  if (lag_lo >= lag_hi) return est;
  shape.lags = lag_hi - lag_lo + 1;

  std::vector<double> acf(lag_hi + 1, 0.0);
  for (std::size_t lag = lag_lo; lag <= lag_hi; ++lag) {
    double sum = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) sum += x[i] * x[i + lag];
    acf[lag] = sum / (static_cast<double>(n - lag) * var);
  }
  std::size_t search_lo = lag_lo;
  while (search_lo <= lag_hi && acf[search_lo] > 0.0) ++search_lo;
  if (search_lo > lag_hi) return est;
  double best_peak = 0.0;
  for (std::size_t lag = search_lo; lag <= lag_hi; ++lag) best_peak = std::max(best_peak, acf[lag]);
  if (best_peak < cfg.min_confidence) return est;
  std::size_t best_lag = 0;
  for (std::size_t lag = search_lo; lag <= lag_hi; ++lag) {
    const bool local_max = (lag == search_lo || acf[lag] >= acf[lag - 1]) &&
                           (lag == lag_hi || acf[lag] >= acf[lag + 1]);
    if (local_max && acf[lag] >= cfg.min_confidence && acf[lag] >= 0.9 * best_peak) {
      best_lag = lag;
      break;
    }
  }
  if (best_lag == 0) return est;
  est.periodic = true;
  est.confidence = acf[best_lag];
  est.period_s = static_cast<double>(best_lag) * dt;

  const std::size_t bins = best_lag;
  shape.bins = bins;
  std::vector<double> folded(bins, 0.0);
  std::vector<std::size_t> counts(bins, 0);
  for (std::size_t i = 0; i < n; ++i) {
    folded[i % bins] += x[i] + mean;
    ++counts[i % bins];
  }
  for (std::size_t b = 0; b < bins; ++b) folded[b] /= static_cast<double>(counts[b]);
  const std::size_t win = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(cfg.low_window_fraction * static_cast<double>(bins))));
  double best_sum = 0.0;
  std::size_t best_off = 0;
  for (std::size_t off = 0; off < bins; ++off) {
    double sum = 0.0;
    for (std::size_t k = 0; k < win; ++k) sum += folded[(off + k) % bins];
    if (off == 0 || sum < best_sum) {
      best_sum = sum;
      best_off = off;
    }
  }
  est.low_duration_s = static_cast<double>(win) * dt;
  est.low_mean = best_sum / static_cast<double>(win);
  est.low_anchor_s = t.front() + static_cast<double>(best_off) * dt;
  return est;
}

/// Every field of `got` has the bits of the same field of `want`.
void expect_bit_equal(const CycleEstimate& got, const CycleEstimate& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(got.periodic, want.periodic);
  EXPECT_EQ(bits(got.period_s), bits(want.period_s));
  EXPECT_EQ(bits(got.confidence), bits(want.confidence));
  EXPECT_EQ(bits(got.low_anchor_s), bits(want.low_anchor_s));
  EXPECT_EQ(bits(got.low_duration_s), bits(want.low_duration_s));
  EXPECT_EQ(bits(got.low_mean), bits(want.low_mean));
  EXPECT_EQ(bits(got.overall_mean), bits(want.overall_mean));
}

TEST(CycleDetector, MatchesThePlainOneLagAtATimeComputation) {
  int checked = 0;
  for (const std::size_t points : {16u, 64u, 97u, 256u, 301u}) {
    for (const double period : {3600.0, 5400.0, 7200.0}) {
      for (const unsigned seed : {3u, 8u}) {
        auto [t, y] = sampled_signal(period, 4.5 * period, 60.0, 700.0, seed, 450.0 * seed);
        if (seed == 8u) {
          // Repeated timestamps: a step at every 7th sample.
          for (std::size_t i = 7; i < t.size(); i += 8) {
            t.insert(t.begin() + static_cast<std::ptrdiff_t>(i), t[i]);
            y.insert(y.begin() + static_cast<std::ptrdiff_t>(i), y[i] + 2500.0);
          }
        }
        CycleDetectorConfig cfg;
        cfg.resample_points = points;
        const CycleEstimate e = CycleDetector(cfg).analyze(t, y);
        PlainShape shape;
        SCOPED_TRACE(testing::Message() << points << " points, period " << period);
        expect_bit_equal(e, plain_analyze(t, y, cfg, shape));
        if (e.periodic) ++checked;
      }
    }
  }
  EXPECT_GE(checked, 20);
}

TEST(CycleDetector, EveryFieldMatchesThePlainReferenceBitForBit) {
  // Fleet histories, periodic and aperiodic, under cycle periods and
  // lag-window caps chosen so that the lag counts and the bin counts
  // between them leave every remainder modulo the 8 lags (offsets) of
  // a lane block.
  std::set<std::size_t> lag_tails;
  std::set<std::size_t> bin_tails;
  for (const std::size_t points : {16u, 17u, 97u, 256u, 301u}) {
    int periodic = 0;
    int aperiodic = 0;
    for (const double period : {7200.0, 5400.0, 4800.0, 2700.0}) {
      SyntheticFleetOptions opts;
      opts.period_s = period;
      const Fleet fleet = Fleet::synthetic(4, 24, 11, opts);
      for (const double max_period : {0.0, 9000.0, 11000.0, 13000.0}) {
        CycleDetectorConfig cfg;
        cfg.resample_points = points;
        cfg.max_period_s = max_period;
        const CycleDetector detector(cfg);
        for (const FleetVm& vm : fleet.vms()) {
          PlainShape shape;
          const CycleEstimate want = plain_analyze(vm.history.t, vm.history.dirty, cfg, shape);
          const CycleEstimate got = detector.analyze(vm.history.t, vm.history.dirty);
          SCOPED_TRACE(testing::Message() << points << " points, period " << period
                                          << ", max period " << max_period << ", " << vm.id);
          expect_bit_equal(got, want);
          if (shape.lags > 0) lag_tails.insert(shape.lags % 8);
          if (want.periodic) bin_tails.insert(shape.bins % 8);
          ++(want.periodic ? periodic : aperiodic);
        }
      }
    }
    EXPECT_GT(periodic, 0) << points << " points";
    EXPECT_GT(aperiodic, 0) << points << " points";
  }
  EXPECT_EQ(lag_tails.size(), 8u);
  EXPECT_EQ(bin_tails.size(), 8u);
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

TEST(Fleet, GroupIdsInternGroupNames) {
  // Hosts share a group id exactly when they share a group name, ids
  // run 0..group_count()-1 in order of first appearance, and CSV loads
  // and copies carry them.
  std::istringstream hosts(
      "name,vcpus,ram_gib,nic_gbit,group,max_migrations\n"
      "a,32,64,10,rackA,1\n"
      "b,32,64,10,rackB,1\n"
      "c,32,64,10,rackA,1\n"
      "d,32,64,10,,1\n");
  std::istringstream vms("id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages\n");
  const Fleet fleet = Fleet::from_csv(hosts, vms);
  ASSERT_EQ(fleet.group_count(), 3u);
  EXPECT_EQ(fleet.host(0).group_id, 0);
  EXPECT_EQ(fleet.host(1).group_id, 1);
  EXPECT_EQ(fleet.host(2).group_id, 0);
  EXPECT_EQ(fleet.host(3).group_id, 2);
  const Fleet copy = fleet;
  for (int h = 0; h < 4; ++h) EXPECT_EQ(copy.host(h).group_id, fleet.host(h).group_id);

  const Fleet synthetic = Fleet::synthetic(40, 40, 3);  // racks of 16
  EXPECT_EQ(synthetic.group_count(), 3u);
  for (int a = 0; a < 40; ++a) {
    for (int b = 0; b < 40; ++b) {
      EXPECT_EQ(synthetic.host(a).group_id == synthetic.host(b).group_id,
                synthetic.host(a).spec.group == synthetic.host(b).spec.group);
    }
  }
}

TEST(Fleet, HistoryEndIsTheLatestSample) {
  EXPECT_EQ(Fleet().history_end(), 0.0);
  EXPECT_EQ(Fleet::synthetic(4, 8, 3).history_end(), SyntheticFleetOptions{}.history_s);

  Fleet fleet;
  cloud::HostSpec spec;
  spec.name = "h";
  spec.ram_bytes = util::gib(32.0);
  fleet.add_host(spec);
  const auto add = [&](const char* id, std::vector<double> t) {
    FleetVm vm;
    vm.id = id;
    vm.history.cpu.assign(t.size(), 1.0);
    vm.history.dirty.assign(t.size(), 1.0);
    vm.history.t = std::move(t);
    fleet.add_vm(vm, 0);
  };
  add("none", {});
  EXPECT_EQ(fleet.history_end(), 0.0);
  add("early", {0.0, 600.0});
  add("late", {300.0, 900.0, 1500.0});
  add("middle", {0.0, 1200.0});
  EXPECT_EQ(fleet.history_end(), 1500.0);
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

void expect_same_estimate(const CycleEstimate& a, const CycleEstimate& b, int vm) {
  EXPECT_EQ(a.periodic, b.periodic) << "vm " << vm;
  EXPECT_EQ(a.period_s, b.period_s) << "vm " << vm;
  EXPECT_EQ(a.confidence, b.confidence) << "vm " << vm;
  EXPECT_EQ(a.low_anchor_s, b.low_anchor_s) << "vm " << vm;
  EXPECT_EQ(a.low_duration_s, b.low_duration_s) << "vm " << vm;
  EXPECT_EQ(a.low_mean, b.low_mean) << "vm " << vm;
  EXPECT_EQ(a.overall_mean, b.overall_mean) << "vm " << vm;
}

TEST(Fleet, CycleMemoMatchesFreshAnalysis) {
  Fleet fleet = Fleet::synthetic(64, 640, 19);
  const CycleDetectorConfig cfg;
  const CycleDetector detector(cfg);
  const int n = static_cast<int>(fleet.vm_count());
  EXPECT_EQ(fleet.cycle_analyses(), 0u);  // nothing computed eagerly

  int periodic = 0;
  for (int v = 0; v < n; ++v) {
    const VmHistory& h = fleet.vm(v).history;
    const CycleEstimate& memo = fleet.cycle(v, detector);
    expect_same_estimate(memo, CycleDetector(cfg).analyze(h.t, h.dirty), v);
    if (memo.periodic) ++periodic;
  }
  EXPECT_GT(periodic, 0);
  EXPECT_EQ(fleet.cycle_analyses(), static_cast<std::size_t>(n));
  // Hits run nothing.
  for (int v = 0; v < n; ++v) (void)fleet.cycle(v, detector);
  EXPECT_EQ(fleet.cycle_analyses(), static_cast<std::size_t>(n));

  // A copy carries the memo.
  Fleet copy = fleet;
  for (int v = 0; v < n; ++v) {
    expect_same_estimate(copy.cycle(v, detector), fleet.cycle(v, detector), v);
  }
  EXPECT_EQ(copy.cycle_analyses(), static_cast<std::size_t>(n));

  // A different config recomputes, and matches a fresh analysis.
  CycleDetectorConfig other = cfg;
  other.low_window_fraction = 0.5;
  ASSERT_FALSE(other == cfg);
  const CycleDetector other_detector(other);
  for (int v = 0; v < n; ++v) {
    const VmHistory& h = copy.vm(v).history;
    expect_same_estimate(copy.cycle(v, other_detector), other_detector.analyze(h.t, h.dirty), v);
  }
  EXPECT_EQ(copy.cycle_analyses(), static_cast<std::size_t>(2 * n));

  // A VM added after the memo is filled is analysed on first use; the
  // others stay memoised.
  const Fleet donor = Fleet::synthetic(2, 1, 23);
  FleetVm extra = donor.vm(0);
  extra.ram_bytes = 0.0;
  const int added = fleet.add_vm(extra, 0);
  expect_same_estimate(fleet.cycle(added, detector),
                       detector.analyze(extra.history.t, extra.history.dirty), added);
  EXPECT_EQ(fleet.cycle_analyses(), static_cast<std::size_t>(n + 1));
  expect_same_estimate(fleet.cycle(0, detector), copy.cycle(0, detector), 0);
  EXPECT_EQ(fleet.cycle_analyses(), static_cast<std::size_t>(n + 1));
  EXPECT_THROW((void)fleet.cycle(added + 1, detector), util::ContractError);
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

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// `after` is `before` refreshed at (now, window_s), field for field:
/// every VM with a history holds kernels::window_mean of its cpu and
/// dirty samples over [now - window_s, now], the others keep their
/// loads, every host's cpu_load is its VMs' cpu_now summed in VM index
/// order, and nothing else changed.
void expect_refreshed(const Fleet& before, const Fleet& after, double now, double window_s) {
  ASSERT_EQ(after.vm_count(), before.vm_count());
  ASSERT_EQ(after.host_count(), before.host_count());
  std::vector<double> load(before.host_count(), 0.0);
  for (std::size_t i = 0; i < before.vm_count(); ++i) {
    const FleetVm& b = before.vms()[i];
    const FleetVm& a = after.vms()[i];
    double cpu = b.cpu_now;
    double dirty = b.dirty_now;
    if (!b.history.empty()) {
      cpu = kernels::window_mean(b.history.t, b.history.cpu, now - window_s, now);
      dirty = kernels::window_mean(b.history.t, b.history.dirty, now - window_s, now);
    }
    EXPECT_EQ(double_bits(a.cpu_now), double_bits(cpu)) << a.id << " at " << now;
    EXPECT_EQ(double_bits(a.dirty_now), double_bits(dirty)) << a.id << " at " << now;
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.host, b.host);
    EXPECT_EQ(double_bits(a.vcpus), double_bits(b.vcpus));
    EXPECT_EQ(double_bits(a.ram_bytes), double_bits(b.ram_bytes));
    EXPECT_EQ(a.working_set_pages, b.working_set_pages);
    EXPECT_EQ(a.history.t, b.history.t);
    EXPECT_EQ(a.history.cpu, b.history.cpu);
    EXPECT_EQ(a.history.dirty, b.history.dirty);
    load[static_cast<std::size_t>(b.host)] += cpu;
  }
  for (std::size_t h = 0; h < before.host_count(); ++h) {
    const FleetHost& b = before.hosts()[h];
    const FleetHost& a = after.hosts()[h];
    EXPECT_EQ(double_bits(a.cpu_load), double_bits(load[h])) << b.spec.name << " at " << now;
    EXPECT_EQ(double_bits(a.ram_committed), double_bits(b.ram_committed));
    EXPECT_EQ(a.vms, b.vms);
    EXPECT_EQ(a.powered_on, b.powered_on);
    EXPECT_EQ(a.group_id, b.group_id);
  }
}

/// The `vms` arg of every plan/refresh_loads span `run` emits.
template <typename Run>
std::vector<double> traced_refreshes(Run run) {
  obs::Tracer& tracer = obs::tracer();
  tracer.clear();
  tracer.set_enabled(true);
  run();
  tracer.set_enabled(false);
  std::vector<double> vms;
  for (const obs::TraceEvent& e : tracer.drain()) {
    if (std::string(e.category) != "plan" || std::string(e.name) != "refresh_loads") continue;
    for (int k = 0; k < e.n_args; ++k) {
      if (std::string(e.args[k].key) == "vms") vms.push_back(e.args[k].value);
    }
  }
  tracer.clear();
  return vms;
}

/// A fleet whose neighbouring VMs differ: no history, 1, 2 and 3
/// samples, long histories on two sampling grids, and duplicate
/// timestamps, so refresh_loads' prefetch hint is often clamped to a
/// shorter neighbour's size or lands on an empty one.
Fleet mixed_history_fleet() {
  Fleet fleet;
  for (int h = 0; h < 3; ++h) {
    cloud::HostSpec spec;
    spec.name = "h" + std::to_string(h);
    spec.vcpus = 16;
    spec.ram_bytes = util::gib(64.0);
    fleet.add_host(spec);
  }
  const std::size_t lengths[] = {481, 0, 3, 481, 1, 2, 0, 481, 40, 481, 7, 2000, 0, 481, 5, 481, 1, 12};
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    FleetVm vm;
    vm.id = "vm" + std::to_string(i);
    vm.ram_bytes = util::gib(1.0);
    vm.cpu_now = 0.25 * static_cast<double>(i);  // kept when there is no history
    vm.dirty_now = 100.0 * static_cast<double>(i);
    const double step = i % 2 == 0 ? 60.0 : 7.0;
    const double start = lengths[i] == 2000 ? 15000.0 : 0.0;
    for (std::size_t k = 0; k < lengths[i]; ++k) {
      const std::size_t tick = k % 9 == 8 ? k - 1 : k;  // a duplicate every ninth sample
      vm.history.t.push_back(start + static_cast<double>(tick) * step);
      vm.history.cpu.push_back(1.0 + std::sin(0.1 * static_cast<double>(k + i)));
      vm.history.dirty.push_back(500.0 + 400.0 * std::cos(0.07 * static_cast<double>(k * i)));
    }
    fleet.add_vm(std::move(vm), static_cast<int>(i % 3));
  }
  return fleet;
}

TEST(Fleet, RefreshLoadsBitEqualsWindowMean) {
  const double window = PlannerConfig{}.load_window_s;
  const Fleet synthetic = Fleet::synthetic(64, 640, 1);
  const double end = synthetic.history_end();
  for (const double now : {end, end - 1234.5, end - 20000.0, end + 7200.0}) {
    Fleet fleet = synthetic;
    fleet.refresh_loads(now, window);
    expect_refreshed(synthetic, fleet, now, window);
  }
  const Fleet mixed = mixed_history_fleet();
  for (const double now : {28800.0, 3000.0, 16000.0, 20000.0, 0.0, 1e6}) {
    Fleet fleet = mixed;
    fleet.refresh_loads(now, window);
    expect_refreshed(mixed, fleet, now, window);
  }
}

TEST(Fleet, RepeatRefreshAtSameInstantRebuildsHostLoads) {
  const double window = PlannerConfig{}.load_window_s;
  const Fleet initial = Fleet::synthetic(64, 640, 1);
  const double now = initial.history_end() - 1234.5;
  const std::pair<int, int> moves[] = {{0, 5}, {64, 5}, {3, 40}, {200, 0}, {0, 63}, {511, 5}};

  Fleet fleet = initial;
  Fleet fresh = initial;
  const std::vector<double> vms = traced_refreshes([&] {
    fleet.refresh_loads(now, window);
    for (const auto& [v, to] : moves) fleet.move_vm(v, to);
    fleet.refresh_loads(now, window);  // memo hit: host sums only

    for (const auto& [v, to] : moves) fresh.move_vm(v, to);
    fresh.refresh_loads(now, window);
  });
  // The repeat recomputed no mean; the fresh fleet recomputed them all.
  EXPECT_EQ(vms, (std::vector<double>{640.0, 0.0, 640.0}));
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const int hi = static_cast<int>(h);
    EXPECT_EQ(double_bits(fleet.host(hi).cpu_load), double_bits(fresh.host(hi).cpu_load)) << h;
    EXPECT_EQ(fleet.host(hi).vms, fresh.host(hi).vms) << h;
  }
  for (std::size_t i = 0; i < fleet.vm_count(); ++i) {
    const int v = static_cast<int>(i);
    EXPECT_EQ(double_bits(fleet.vm(v).cpu_now), double_bits(fresh.vm(v).cpu_now)) << i;
    EXPECT_EQ(double_bits(fleet.vm(v).dirty_now), double_bits(fresh.vm(v).dirty_now)) << i;
  }
  Fleet moved = initial;
  for (const auto& [v, to] : moves) moved.move_vm(v, to);
  expect_refreshed(moved, fleet, now, window);

  // A different window or instant is a new refresh.
  EXPECT_EQ(traced_refreshes([&] { fleet.refresh_loads(now, window / 2.0); }),
            std::vector<double>{640.0});
  EXPECT_EQ(traced_refreshes([&] { fleet.refresh_loads(now + 60.0, window / 2.0); }),
            std::vector<double>{640.0});
  expect_refreshed(moved, fleet, now + 60.0, window / 2.0);
}

TEST(Fleet, AddVmInvalidatesTheLoadMemo) {
  const double window = PlannerConfig{}.load_window_s;
  Fleet fleet = mixed_history_fleet();
  const double now = 28800.0;
  fleet.refresh_loads(now, window);

  FleetVm late;
  late.id = "late";
  late.ram_bytes = util::gib(1.0);
  late.cpu_now = 99.0;  // stale until refreshed
  late.dirty_now = 99.0;
  for (int k = 0; k <= 480; ++k) {
    late.history.t.push_back(60.0 * k);
    late.history.cpu.push_back(0.5 + 0.001 * k);
    late.history.dirty.push_back(1000.0 - k);
  }
  fleet.add_vm(late, 1);
  const Fleet before = fleet;
  const auto with_history = std::count_if(before.vms().begin(), before.vms().end(),
                                          [](const FleetVm& vm) { return !vm.history.empty(); });
  EXPECT_EQ(traced_refreshes([&] { fleet.refresh_loads(now, window); }),
            std::vector<double>{static_cast<double>(with_history)});
  expect_refreshed(before, fleet, now, window);
  EXPECT_NE(fleet.vms().back().cpu_now, 99.0);
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
/// handed and what it chose, so tests can inspect every priced variant.
class RecordingStrategy final : public PlacementStrategy {
 public:
  explicit RecordingStrategy(const PlacementStrategy& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  std::vector<int> choose(const Fleet& fleet, const CandidateSet& candidates,
                          const PlannerConfig& config) const override {
    seen = candidates;
    chosen = inner_.choose(fleet, candidates, config);
    return chosen;
  }
  mutable CandidateSet seen;
  mutable std::vector<int> chosen;

 private:
  const PlacementStrategy& inner_;
};

/// Whether the wave planned under `config` treats `vm` as periodic: it
/// plans cycle-aware and the VM's history shows a cycle.
bool periodic_vm(Fleet& before, int vm, const PlannerConfig& config,
                 const CycleDetector& detector) {
  return config.cycle_aware && !before.vm(vm).history.empty() &&
         before.cycle(vm, detector).periodic;
}

/// Replays the schedule stage over the moves `recording` saw chosen, in
/// choice order. A periodic VM's move is priced once more at its
/// cycle's low mean, bit-equal to forecast(): it goes aligned, at that
/// variant's price, into the first low window in the horizon with a
/// free slot when the variant is no dearer than the blind one; it
/// stays blind only when the variant is dearer or no window has room.
/// Returns the number of chosen moves of periodic VMs.
int expect_aligned_priced_at_schedule(Fleet& before, const RecordingStrategy& recording,
                                      const WavePlan& plan,
                                      const core::MigrationPlanner& forecaster,
                                      const PlannerConfig& config, const CycleDetector& detector,
                                      double now) {
  std::map<int, const ScheduledMove*> scheduled;
  for (const ScheduledMove& m : plan.moves) scheduled[m.vm] = &m;
  EXPECT_EQ(scheduled.size(), recording.chosen.size());
  BusyIntervals busy;
  int periodic = 0;
  for (const int i : recording.chosen) {
    const ScoredMove& c = recording.seen.moves[static_cast<std::size_t>(i)];
    SCOPED_TRACE(testing::Message() << "vm " << c.vm << " to " << c.target);
    const ScheduledMove& m = *scheduled.at(c.vm);
    bool aligned = false;
    double start = 0.0;
    core::MigrationForecast low;
    if (periodic_vm(before, c.vm, config, detector)) {
      ++periodic;
      const CycleEstimate& cycle = before.cycle(c.vm, detector);
      core::MigrationScenario sc = move_scenario(before, c.vm, c.source, c.target, config);
      sc.vm_dirty_pages_per_s = cycle.low_mean;
      low = forecaster.forecast(sc);
      for (double w = CycleDetector::next_low_window_start(cycle, now);
           low.total_energy() <= c.blind.energy_j && !aligned &&
           w <= now + config.wave_horizon_s;
           w += cycle.period_s) {
        start = busy.earliest_start(before, c.source, c.target, low.times.me, w);
        aligned = start <= w + cycle.low_duration_s;
      }
    }
    if (!aligned) start = busy.earliest_start(before, c.source, c.target, c.blind.duration_s, now);
    EXPECT_EQ(m.cycle_aligned, aligned);
    EXPECT_EQ(m.start_s, start);
    EXPECT_EQ(m.energy_j, aligned ? low.total_energy() : c.blind.energy_j);
    EXPECT_EQ(m.downtime_s, aligned ? low.downtime : c.blind.downtime_s);
    EXPECT_EQ(m.end_s, start + (aligned ? low.times.me : c.blind.duration_s));
    busy.add(m.source, m.start_s, m.end_s);
    busy.add(m.target, m.start_s, m.end_s);
  }
  return periodic;
}

TEST(MigrationPlanner, PricesEveryMoveWithTheClosedFormForecast) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner forecaster(model);
  const double now = SyntheticFleetOptions{}.history_s;
  const BeamSearchStrategy beam;

  for (const bool cycle_aware : {false, true}) {
    SCOPED_TRACE(cycle_aware ? "cycle-aware" : "cycle-blind");
    PlannerConfig config = test_config();
    config.cycle_aware = cycle_aware;
    Fleet fleet = Fleet::synthetic(24, 120, 23);
    // The fleet as the wave sees it before committing anything.
    Fleet before = fleet;
    before.refresh_loads(now, config.load_window_s);
    const CycleDetector detector(config.cycles);

    const RecordingStrategy recording(beam);
    MigrationPlanner planner(model, config);
    const WavePlan plan = planner.plan_wave(fleet, recording, now);
    ASSERT_FALSE(plan.moves.empty());

    // Bit-equal, not merely close: the planner prices through the very
    // same forecast call.
    for (const ScheduledMove& m : plan.moves) {
      core::MigrationScenario sc = move_scenario(before, m.vm, m.source, m.target, config);
      if (m.cycle_aligned) sc.vm_dirty_pages_per_s = before.cycle(m.vm, detector).low_mean;
      const core::MigrationForecast expect = forecaster.forecast(sc);
      EXPECT_EQ(m.energy_j, expect.total_energy()) << "vm " << m.vm;
      EXPECT_EQ(m.downtime_s, expect.downtime) << "vm " << m.vm;
    }

    // Every candidate's lean record is its scenario's forecast, and
    // that forecast carries the per-phase split summing to its totals.
    ASSERT_EQ(recording.seen.moves.size(), plan.candidates_scored);
    int periodic_candidates = 0;
    for (const ScoredMove& c : recording.seen.moves) {
      core::MigrationScenario sc = move_scenario(before, c.vm, c.source, c.target, config);
      const core::MigrationForecast fc = forecaster.forecast(sc);
      EXPECT_EQ(c.blind.energy_j, fc.total_energy());
      EXPECT_EQ(c.blind.duration_s, fc.times.me);
      EXPECT_EQ(c.blind.downtime_s, fc.downtime);
      EXPECT_GT(fc.source_phase_energy[1], 0.0);
      EXPECT_GT(fc.target_phase_energy[1], 0.0);
      EXPECT_EQ(fc.source_phase_energy[0] + fc.source_phase_energy[1] + fc.source_phase_energy[2],
                fc.source_energy);
      EXPECT_EQ(fc.target_phase_energy[0] + fc.target_phase_energy[1] + fc.target_phase_energy[2],
                fc.target_energy);

      if (periodic_vm(before, c.vm, config, detector)) ++periodic_candidates;
    }
    // Aligned variants are priced for the chosen moves only.
    const int periodic_chosen =
        expect_aligned_priced_at_schedule(before, recording, plan, forecaster, config, detector,
                                          now);
    if (cycle_aware) {
      EXPECT_GT(periodic_candidates, 0);
      EXPECT_GT(periodic_chosen, 0);
      EXPECT_GT(plan.moves_cycle_aligned, 0);
    } else {
      EXPECT_EQ(periodic_chosen, 0);
    }
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

TEST(MigrationPlanner, BeamSearchPicksLikeAFreshStrategyCallAfterCall) {
  // One strategy choosing on fleet A, then B (more VMs per donor, so
  // deeper states), then A again picks exactly what a fresh strategy
  // picks each time: nothing carries over between choose() calls.
  const core::Wavm3Model model = make_model();
  const PlannerConfig config = test_config();
  const double now = SyntheticFleetOptions{}.history_s;
  const BeamSearchStrategy beam;
  const RecordingStrategy recording(beam);
  MigrationPlanner planner(model, config);
  Fleet a = Fleet::synthetic(32, 160, 29);
  Fleet b = Fleet::synthetic(24, 200, 31);
  planner.plan_wave(a, recording, now, /*commit=*/false);
  const CandidateSet on_a = recording.seen;
  planner.plan_wave(b, recording, now, /*commit=*/false);
  const CandidateSet on_b = recording.seen;

  for (const auto& [fleet, candidates] :
       {std::pair{&a, &on_a}, std::pair{&b, &on_b}, std::pair{&a, &on_a}}) {
    const std::vector<int> picks = beam.choose(*fleet, *candidates, config);
    EXPECT_FALSE(picks.empty());
    EXPECT_EQ(picks, BeamSearchStrategy().choose(*fleet, *candidates, config));
  }
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

std::uint64_t cycle_analyses_counted(const char* strategy) {
  return obs::registry()
      .counter("plan_cycle_analyses_total", "", {{"strategy", strategy}})
      .value();
}

/// Two plans of the same wave agree field for field, bar wall times.
void expect_same_wave(const WavePlan& a, const WavePlan& b) {
  ASSERT_EQ(a.moves.size(), b.moves.size());
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "move " << i);
    const ScheduledMove& x = a.moves[i];
    const ScheduledMove& y = b.moves[i];
    EXPECT_EQ(x.vm, y.vm);
    EXPECT_EQ(x.source, y.source);
    EXPECT_EQ(x.target, y.target);
    EXPECT_EQ(x.start_s, y.start_s);
    EXPECT_EQ(x.end_s, y.end_s);
    EXPECT_EQ(x.cycle_aligned, y.cycle_aligned);
    EXPECT_EQ(x.energy_j, y.energy_j);
    EXPECT_EQ(x.downtime_s, y.downtime_s);
  }
  EXPECT_EQ(a.total_migration_energy_j, b.total_migration_energy_j);
  EXPECT_EQ(a.total_downtime_s, b.total_downtime_s);
  EXPECT_EQ(a.steady_saving_j, b.steady_saving_j);
  EXPECT_EQ(a.donors_considered, b.donors_considered);
  EXPECT_EQ(a.donors_vacated, b.donors_vacated);
  EXPECT_EQ(a.moves_cycle_aligned, b.moves_cycle_aligned);
  EXPECT_EQ(a.overloaded_hosts_before, b.overloaded_hosts_before);
  EXPECT_EQ(a.overloaded_hosts_after, b.overloaded_hosts_after);
  EXPECT_EQ(a.candidates_scored, b.candidates_scored);
}

TEST(MigrationPlanner, WarmMemoPlansIdentically) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = Fleet::synthetic(32, 320, 37);
  Fleet fresh = fleet;
  MigrationPlanner planner(model, test_config());
  const BeamSearchStrategy beam;
  const double now = SyntheticFleetOptions{}.history_s;

  const std::uint64_t counted0 = cycle_analyses_counted(beam.name());
  const WavePlan cold = planner.plan_wave(fleet, beam, now, /*commit=*/false);
  const std::size_t analyses = fleet.cycle_analyses();
  ASSERT_GT(analyses, 0u);
  EXPECT_EQ(cycle_analyses_counted(beam.name()) - counted0, analyses);

  // The second identical what-if wave runs no analysis at all: a dead
  // memo fails here, with no wall-clock ratio involved.
  const WavePlan warm = planner.plan_wave(fleet, beam, now, /*commit=*/false);
  EXPECT_EQ(fleet.cycle_analyses(), analyses);
  EXPECT_EQ(cycle_analyses_counted(beam.name()) - counted0, analyses);

  const WavePlan copy = planner.plan_wave(fresh, beam, now, /*commit=*/false);
  EXPECT_EQ(fresh.cycle_analyses(), analyses);

  ASSERT_FALSE(cold.moves.empty());
  EXPECT_GT(cold.moves_cycle_aligned, 0);
  expect_same_wave(warm, cold);
  expect_same_wave(copy, cold);
}

TEST(MigrationPlanner, ColdMemoPlansLikeAPrefilledMemo) {
  // Cycles are analysed after selection, for the chosen moves only. A
  // fleet whose memo holds every VM's cycle before the first wave must
  // plan every committed wave exactly like a fleet starting cold: a
  // stage that read a cycle the planner had not filled would see it
  // here and not there.
  const core::Wavm3Model model = make_model();
  const PlannerConfig config = test_config();
  const double now = SyntheticFleetOptions{}.history_s;
  Fleet cold = Fleet::synthetic(64, 640, 1);
  Fleet warm = cold;
  const CycleDetector detector(config.cycles);
  for (int v = 0; v < static_cast<int>(warm.vm_count()); ++v) (void)warm.cycle(v, detector);
  const std::size_t prefilled = warm.cycle_analyses();
  ASSERT_EQ(prefilled, warm.vm_count());

  const BeamSearchStrategy beam;
  MigrationPlanner planner(model, config);
  int aligned = 0;
  for (int wave = 0; wave < 4; ++wave) {
    SCOPED_TRACE(testing::Message() << "wave " << wave);
    const WavePlan from_cold = planner.plan_wave(cold, beam, now);
    const WavePlan from_warm = planner.plan_wave(warm, beam, now);
    expect_same_wave(from_cold, from_warm);
    aligned += from_cold.moves_cycle_aligned;
  }
  EXPECT_GT(aligned, 0);
  EXPECT_EQ(warm.cycle_analyses(), prefilled);
  EXPECT_LT(cold.cycle_analyses(), prefilled);
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

// ------------------------------------------- small hand-built fleets

cloud::HostSpec gbe_host(const std::string& name, int vcpus = 32) {
  cloud::HostSpec h;
  h.name = name;
  h.vcpus = vcpus;
  h.ram_bytes = util::gib(32);
  h.nic_rate = util::gbit_per_s(1);
  return h;
}

/// A fleet of 32-vCPU GbE hosts named `names`.
Fleet hosts_named(std::initializer_list<const char*> names) {
  Fleet fleet;
  for (const char* name : names) fleet.add_host(gbe_host(name));
  return fleet;
}

/// Places `n` load-cpu VMs (4 busy vCPUs each) on host `h`.
void place_load_vms(Fleet& fleet, int h, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string id = fleet.host(h).spec.name + "-l" + std::to_string(i);
    fleet.add_vm(fleet_vm(*cloud::make_load_cpu_vm(id), 0.0), h);
  }
}

TEST(MigrationPlanner, RejectsInvalidPolicy) {
  const core::Wavm3Model model = make_model();
  EXPECT_NO_THROW(MigrationPlanner(model, test_config()));
  const auto rejects = [&](auto&& mutate) {
    PlannerConfig config = test_config();
    mutate(config.policy);
    EXPECT_THROW(MigrationPlanner(model, config), util::ContractError);
  };
  rejects([](ConsolidationPolicy& p) { p.underload_fraction = 0.0; });
  rejects([](ConsolidationPolicy& p) { p.underload_fraction = 1.0; });
  rejects([](ConsolidationPolicy& p) {
    p.underload_fraction = 0.9;
    p.overload_fraction = 0.5;
  });
  rejects([](ConsolidationPolicy& p) { p.overload_fraction = p.underload_fraction; });
  rejects([](ConsolidationPolicy& p) { p.overload_fraction = 1.5; });
  rejects([](ConsolidationPolicy& p) { p.horizon_seconds = 0.0; });
  rejects([](ConsolidationPolicy& p) { p.horizon_seconds = -100.0; });
}

TEST(MoveScenario, MapsVmSignatureLoadsCapacitiesAndLinkRate) {
  Fleet fleet;
  const int src = fleet.add_host(gbe_host("src", 32));
  const int dst = fleet.add_host(gbe_host("dst", 16));
  FleetVm mover;
  mover.id = "mv";
  mover.ram_bytes = util::gib(4);
  mover.cpu_now = 1.0;
  mover.dirty_now = 2.0e5;
  mover.working_set_pages = 100000;
  const int v = fleet.add_vm(mover, src);
  FleetVm neighbour;
  neighbour.id = "n";
  neighbour.ram_bytes = util::gib(1);
  neighbour.cpu_now = 3.0;
  fleet.add_vm(neighbour, src);
  FleetVm resident;
  resident.id = "r";
  resident.ram_bytes = util::gib(2);
  resident.cpu_now = 5.0;
  fleet.add_vm(resident, dst);

  PlannerConfig config = test_config();
  config.policy.migration_type = MigrationType::kNonLive;
  config.intra_group_payload_rate = 1e9;  // the NICs are the bottleneck
  const core::MigrationScenario sc = move_scenario(fleet, v, src, dst, config);
  EXPECT_EQ(sc.type, MigrationType::kNonLive);
  EXPECT_DOUBLE_EQ(sc.vm_mem_bytes, util::gib(4));
  EXPECT_DOUBLE_EQ(sc.vm_cpu_vcpus, 1.0);
  EXPECT_DOUBLE_EQ(sc.vm_dirty_pages_per_s, 2.0e5);
  EXPECT_DOUBLE_EQ(sc.vm_working_set_pages, 100000.0);
  EXPECT_DOUBLE_EQ(sc.source_cpu_load, 3.0);  // without the moving VM
  EXPECT_DOUBLE_EQ(sc.target_cpu_load, 5.0);
  EXPECT_DOUBLE_EQ(sc.source_cpu_capacity, 32.0);
  EXPECT_DOUBLE_EQ(sc.target_cpu_capacity, 16.0);
  EXPECT_DOUBLE_EQ(sc.link_payload_rate,
                   config.nic_protocol_efficiency * util::gbit_per_s(1));
}

TEST(MoveScenario, HighDirtyVmOntoBusyTargetCostsMore) {
  // The SVIII guidance: migrating a high-dirtying-ratio VM towards a
  // CPU-loaded host is the expensive move the model should expose.
  const core::Wavm3Model model = make_model();
  Fleet fleet = hosts_named({"src", "idle", "busy"});
  fleet.add_vm(fleet_vm(*cloud::make_migrating_mem_vm("mv", 0.95), 0.0), 0);
  place_load_vms(fleet, 2, 7);

  const core::MigrationPlanner forecaster(model);
  const int mv = fleet.host(0).vms.front();
  const PlannerConfig config = test_config();
  const auto to_idle = forecaster.forecast(move_scenario(fleet, mv, 0, 1, config));
  const auto to_busy = forecaster.forecast(move_scenario(fleet, mv, 0, 2, config));
  // The busy target throttles the transfer and burns more energy.
  EXPECT_GE(to_busy.times.transfer_duration(), to_idle.times.transfer_duration());
  EXPECT_GT(to_busy.total_energy(), to_idle.total_energy());
}

TEST(MigrationPlanner, VacatePlanCoversEveryDonorVm) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = hosts_named({"a", "b", "c"});
  fleet.add_vm(fleet_vm(*cloud::make_load_cpu_vm("v1"), 0.0), 0);
  fleet.add_vm(fleet_vm(*cloud::make_migrating_cpu_vm("v2"), 0.0), 0);

  MigrationPlanner planner(model, test_config());
  const WavePlan plan = planner.plan_wave(fleet, BeamSearchStrategy{}, 0.0, /*commit=*/false);
  ASSERT_EQ(plan.moves.size(), 2u);
  for (const ScheduledMove& m : plan.moves) {
    EXPECT_EQ(m.source, 0);
    EXPECT_NE(m.target, 0);
    EXPECT_GT(m.energy_j, 0.0);
  }
  EXPECT_EQ(plan.donors_vacated, 1);
  EXPECT_EQ(plan.steady_saving_j, donor_saving_j(planner.config()));
  EXPECT_GT(plan.steady_saving_j, 0.0);
}

TEST(MigrationPlanner, DonorWithOnlyOverloadedReceiverGetsNoMoves) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = hosts_named({"a", "b"});
  place_load_vms(fleet, 0, 1);
  // Saturate the only receiver beyond the overload fraction.
  place_load_vms(fleet, 1, 8);

  MigrationPlanner planner(model, test_config());
  const WavePlan plan = planner.plan_wave(fleet, BeamSearchStrategy{}, 0.0, /*commit=*/false);
  EXPECT_EQ(plan.donors_considered, 1);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.donors_vacated, 0);
}

TEST(MigrationPlanner, OnlyUnderloadedHostsDonate) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = hosts_named({"light", "heavy", "spare1", "spare2"});
  place_load_vms(fleet, 0, 1);  // 4 of 32 vCPUs busy
  place_load_vms(fleet, 1, 6);  // 24 of 32 vCPUs busy

  MigrationPlanner planner(model, test_config());
  const WavePlan plan = planner.plan_wave(fleet, BeamSearchStrategy{}, 0.0, /*commit=*/false);
  EXPECT_EQ(plan.donors_considered, 1);
  ASSERT_FALSE(plan.moves.empty());
  for (const ScheduledMove& m : plan.moves) EXPECT_EQ(m.source, 0);
}

TEST(MigrationPlanner, LowWindowSearchUsesTheAlignedDuration) {
  // One donor sends two periodic VMs over a slow link, one migration at
  // a time. The bigger VM, chosen first, goes aligned into its low
  // window. The smaller VM's window opens earlier, and the gap before
  // the first move holds its aligned migration but not its blind one,
  // which could only start after the first move, past the window. So a
  // window search with the blind duration would lose this alignment.
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner forecaster(model);
  const double now = 4.0 * 7200.0;
  PlannerConfig config = test_config();
  config.intra_group_payload_rate = 20e6;
  config.cycles.low_window_fraction = 0.05;
  const CycleDetector detector(config.cycles);

  Fleet fleet = hosts_named({"donor", "receiver"});
  FleetVm filler;
  filler.id = "load";
  filler.ram_bytes = util::gib(2);
  filler.cpu_now = 12.0;
  fleet.add_vm(filler, 1);
  const auto add_periodic = [&](const char* id, double ram_gib, double phase) {
    FleetVm vm;
    vm.id = id;
    vm.ram_bytes = util::gib(ram_gib);
    vm.working_set_pages = 200000;
    const auto [t, dirty] = sampled_signal(7200.0, now, 60.0, 0.0, 1u, phase);
    vm.history.t = t;
    vm.history.dirty = dirty;
    vm.history.cpu.assign(t.size(), 1.0);
    return fleet.add_vm(vm, 0);
  };
  const int first = add_periodic("first", 6, 5300.0);
  const int second = add_periodic("second", 2, 5526.0);
  Fleet before = fleet;
  before.refresh_loads(now, config.load_window_s);

  const BeamSearchStrategy beam;
  const RecordingStrategy recording(beam);
  MigrationPlanner planner(model, config);
  const WavePlan plan = planner.plan_wave(fleet, recording, now, /*commit=*/false);
  ASSERT_EQ(plan.moves.size(), 2u);
  ASSERT_EQ(recording.chosen.size(), 2u);
  const ScoredMove& to_first = recording.seen.moves[static_cast<std::size_t>(recording.chosen[0])];
  const ScoredMove& to_second =
      recording.seen.moves[static_cast<std::size_t>(recording.chosen[1])];
  ASSERT_EQ(to_first.vm, first);
  ASSERT_EQ(to_second.vm, second);
  const ScheduledMove& a = plan.moves[0].vm == first ? plan.moves[0] : plan.moves[1];
  const ScheduledMove& b = plan.moves[0].vm == second ? plan.moves[0] : plan.moves[1];

  const CycleEstimate& cycle_a = before.cycle(first, detector);
  const CycleEstimate& cycle_b = before.cycle(second, detector);
  ASSERT_TRUE(cycle_a.periodic);
  ASSERT_TRUE(cycle_b.periodic);
  const double window_a = CycleDetector::next_low_window_start(cycle_a, now);
  const double window_b = CycleDetector::next_low_window_start(cycle_b, now);
  core::MigrationScenario sc = move_scenario(before, second, 0, to_second.target, config);
  sc.vm_dirty_pages_per_s = cycle_b.low_mean;
  const double aligned_s = forecaster.forecast(sc).times.me;

  // The setting: the first move holds the source from its own window
  // on, past the end of the second VM's window, and the gap before it
  // is at least the second move's aligned duration but less than its
  // blind one.
  ASSERT_TRUE(a.cycle_aligned);
  ASSERT_EQ(a.start_s, window_a);
  ASSERT_LT(window_b, window_a);
  ASSERT_GT(a.end_s, window_b + cycle_b.low_duration_s);
  ASSERT_LE(aligned_s, window_a - window_b);
  ASSERT_GT(to_second.blind.duration_s, window_a - window_b);

  EXPECT_TRUE(b.cycle_aligned);
  EXPECT_EQ(b.start_s, window_b);
  EXPECT_EQ(b.end_s, window_b + aligned_s);
}

// ------------------------------------- per-VM pricing fan-out

/// Runs of equal (vm, source) in `moves` with their distinct
/// (transfer bandwidth, link rate) keys: the recursions pricing one
/// variant of the run must run.
struct VmRunKeys {
  int runs = 0;
  int aligned_runs = 0;            ///< runs of a periodic VM
  std::size_t keys = 0;            ///< summed over runs
  std::size_t max_bandwidths = 0;  ///< most distinct bandwidths in one run
};

VmRunKeys vm_run_keys(Fleet& before, const std::vector<ScoredMove>& moves,
                      const PlannerConfig& config, const CycleDetector& detector) {
  VmRunKeys out;
  for (std::size_t begin = 0, end = 0; begin < moves.size(); begin = end) {
    std::vector<std::pair<double, double>> keys;
    std::vector<double> bandwidths;
    for (end = begin; end < moves.size() && moves[end].vm == moves[begin].vm &&
                      moves[end].source == moves[begin].source;
         ++end) {
      const core::MigrationScenario sc =
          move_scenario(before, moves[end].vm, moves[end].source, moves[end].target, config);
      const std::pair<double, double> key{core::transfer_bandwidth(sc), sc.link_payload_rate};
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
      if (std::find(bandwidths.begin(), bandwidths.end(), key.first) == bandwidths.end()) {
        bandwidths.push_back(key.first);
      }
    }
    ++out.runs;
    out.keys += keys.size();
    out.max_bandwidths = std::max(out.max_bandwidths, bandwidths.size());
    if (periodic_vm(before, moves[begin].vm, config, detector)) ++out.aligned_runs;
  }
  return out;
}

/// Every candidate's blind variant bit-equals forecast(move_scenario(...))
/// on the fleet as the wave saw it; the aligned variants of the chosen
/// moves are checked by expect_aligned_priced_at_schedule.
void expect_priced_by_forecast(Fleet& before, const CandidateSet& candidates,
                               const core::MigrationPlanner& forecaster,
                               const PlannerConfig& config) {
  for (const ScoredMove& c : candidates.moves) {
    SCOPED_TRACE(testing::Message() << "vm " << c.vm << " to " << c.target);
    const core::MigrationForecast fc =
        forecaster.forecast(move_scenario(before, c.vm, c.source, c.target, config));
    EXPECT_EQ(c.blind.energy_j, fc.total_energy());
    EXPECT_EQ(c.blind.duration_s, fc.times.me);
    EXPECT_EQ(c.blind.downtime_s, fc.downtime);
  }
}

std::uint64_t timing_forecasts_counted(const char* strategy) {
  return obs::registry()
      .counter("plan_timing_forecasts_total", "", {{"strategy", strategy}})
      .value();
}

/// Two racks of 1- and 10-Gbit hosts: 8-vCPU receivers loaded to
/// within 2 vCPU of capacity, 32-vCPU receivers with room, and two
/// lightly loaded donors whose VMs have periodic dirtying histories.
/// A VM's targets then differ in link rate and in headroom below and
/// above cpu_for_wire_speed, so its transfer bandwidths differ too.
Fleet heterogeneous_fleet(double now) {
  Fleet fleet;
  const auto host = [&](const std::string& name, int vcpus, double nic_gbit,
                        const std::string& group) {
    cloud::HostSpec h = gbe_host(name, vcpus);
    h.nic_rate = util::gbit_per_s(nic_gbit);
    h.group = group;
    return fleet.add_host(h);
  };
  const auto load = [&](int h, double cpu) {
    FleetVm filler;
    filler.id = fleet.host(h).spec.name + "-load";
    filler.ram_bytes = util::gib(2);
    filler.cpu_now = cpu;
    fleet.add_vm(filler, h);
  };
  const int donor_10g = host("d0", 32, 10, "g0");
  const int donor_1g = host("d1", 32, 1, "g1");
  load(host("r0", 8, 10, "g0"), 6.5);
  load(host("r1", 32, 10, "g0"), 12.0);
  load(host("r2", 8, 1, "g0"), 6.2);
  load(host("r3", 32, 10, "g1"), 14.0);
  load(host("r4", 8, 10, "g1"), 6.4);
  load(host("r5", 32, 1, "g1"), 11.0);

  int n = 0;
  for (const int donor : {donor_10g, donor_1g}) {
    for (int i = 0; i < 2; ++i, ++n) {
      FleetVm vm;
      vm.id = "mv" + std::to_string(n);
      vm.ram_bytes = util::gib(2 + n);
      vm.working_set_pages = 200000;
      const auto [t, dirty] = sampled_signal(7200.0, now, 60.0, 0.0, 5u + n, 1800.0 * n);
      vm.history.t = t;
      vm.history.dirty = dirty;
      vm.history.cpu.assign(t.size(), 1.0);
      fleet.add_vm(vm, donor);
    }
  }
  return fleet;
}

TEST(MigrationPlanner, PricesHeterogeneousTargetsWithTheClosedFormForecast) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner forecaster(model);
  const double now = 4.0 * 7200.0;
  const BeamSearchStrategy beam;

  for (const bool cycle_aware : {false, true}) {
    SCOPED_TRACE(cycle_aware ? "cycle-aware" : "cycle-blind");
    PlannerConfig config = test_config();
    config.cycle_aware = cycle_aware;
    config.policy.overload_fraction = 0.95;
    config.intra_group_payload_rate = 0.9e9;
    config.inter_group_payload_rate = 0.4e9;
    Fleet fleet = heterogeneous_fleet(now);
    Fleet before = fleet;
    before.refresh_loads(now, config.load_window_s);
    const CycleDetector detector(config.cycles);

    const RecordingStrategy recording(beam);
    MigrationPlanner planner(model, config);
    const std::uint64_t counted0 = timing_forecasts_counted(beam.name());
    const WavePlan plan = planner.plan_wave(fleet, recording, now, /*commit=*/false);
    const std::uint64_t timings = timing_forecasts_counted(beam.name()) - counted0;
    const CandidateSet& seen = recording.seen;
    ASSERT_FALSE(seen.moves.empty());

    // Not vacuous: some VM's targets span several bandwidths, so the
    // planner's per-VM fan-out misses its reuse inside a run.
    const VmRunKeys keys = vm_run_keys(before, seen.moves, config, detector);
    EXPECT_GE(keys.max_bandwidths, 2u);
    EXPECT_GT(keys.keys, static_cast<std::size_t>(keys.runs));
    expect_priced_by_forecast(before, seen, forecaster, config);
    const int periodic_chosen = expect_aligned_priced_at_schedule(
        before, recording, plan, forecaster, config, detector, now);
    if (cycle_aware) {
      EXPECT_GT(keys.aligned_runs, 0);
      EXPECT_GT(periodic_chosen, 0);
    }
    // One recursion per distinct key of each run, plus one per chosen
    // move of a periodic VM.
    EXPECT_EQ(timings, keys.keys + static_cast<std::size_t>(periodic_chosen));
  }
}

TEST(MigrationPlanner, PricingRunsOneRecursionPerVmRunAndVariant) {
  // A count guard on the per-VM fan-out, with no wall-clock ratio: on
  // the synthetic fleet every target of a VM has the same bandwidth and
  // link rate, so a wave runs one pre-copy recursion per VM run for the
  // blind variants, and one per chosen move of a periodic VM for its
  // aligned variant — strictly fewer than the variants it prices.
  const core::Wavm3Model model = make_model();
  const PlannerConfig config = test_config();
  const double now = SyntheticFleetOptions{}.history_s;
  Fleet fleet = Fleet::synthetic(24, 120, 23);
  Fleet before = fleet;
  before.refresh_loads(now, config.load_window_s);
  const BeamSearchStrategy beam;
  const RecordingStrategy recording(beam);
  MigrationPlanner planner(model, config);

  const std::uint64_t counted0 = timing_forecasts_counted(beam.name());
  const WavePlan plan = planner.plan_wave(fleet, recording, now, /*commit=*/false);
  const std::uint64_t timings = timing_forecasts_counted(beam.name()) - counted0;

  const CandidateSet& seen = recording.seen;
  const CycleDetector detector(config.cycles);
  const VmRunKeys keys = vm_run_keys(before, seen.moves, config, detector);
  const core::MigrationPlanner forecaster(model);
  const int periodic_chosen = expect_aligned_priced_at_schedule(
      before, recording, plan, forecaster, config, detector, now);
  ASSERT_GT(keys.aligned_runs, 0);
  ASSERT_GT(periodic_chosen, 0);
  EXPECT_EQ(keys.keys, static_cast<std::size_t>(keys.runs));
  EXPECT_EQ(timings, static_cast<std::uint64_t>(keys.runs + periodic_chosen));
  const std::size_t scenarios = seen.moves.size() + static_cast<std::size_t>(periodic_chosen);
  EXPECT_LT(timings, scenarios);
}

// ------------------------------------------------ receiver pruning

/// One candidate as (vm, source, target).
using CandidateKey = std::tuple<int, int, int>;

/// A wave's candidates and accepted donors on `fleet` (loads already
/// refreshed), from a plain scan of every powered non-donor host in the
/// planner's three receiver orders: no receiver is dropped up front.
struct ReferenceCandidates {
  std::vector<CandidateKey> moves;
  std::vector<int> donors;    ///< donors whose every VM has a candidate
  int never_fits = 0;         ///< receivers that can take no donor VM
  std::size_t donor_vms = 0;  ///< VMs on every donor the wave considers
};

ReferenceCandidates reference_candidates(const Fleet& fleet, const PlannerConfig& config) {
  const auto util = [&](int h) { return fleet.host_utilisation(h); };
  std::vector<int> donors;
  std::size_t powered = 0;
  for (int h = 0; h < static_cast<int>(fleet.host_count()); ++h) {
    if (!fleet.host(h).powered_on) continue;
    ++powered;
    if (!fleet.host(h).vms.empty() && util(h) < config.policy.underload_fraction) {
      donors.push_back(h);
    }
  }
  std::sort(donors.begin(), donors.end(),
            [&](int a, int b) { return util(a) != util(b) ? util(a) < util(b) : a < b; });
  if (donors.size() > powered / 2) donors.resize(powered / 2);

  std::vector<int> by_index;
  std::map<std::string, std::vector<int>> by_group;
  for (int h = 0; h < static_cast<int>(fleet.host_count()); ++h) {
    if (!fleet.host(h).powered_on ||
        std::find(donors.begin(), donors.end(), h) != donors.end()) {
      continue;
    }
    by_index.push_back(h);
    by_group[fleet.host(h).spec.group].push_back(h);
  }
  std::vector<int> by_load = by_index;
  std::sort(by_load.begin(), by_load.end(),
            [&](int a, int b) { return util(a) != util(b) ? util(a) > util(b) : a < b; });

  const auto receiver_ok = [&](int h, const FleetVm& vm) {
    const FleetHost& host = fleet.host(h);
    return host.ram_committed + vm.ram_bytes <= host.spec.ram_bytes &&
           host.cpu_load + vm.cpu_now <=
               config.policy.overload_fraction * static_cast<double>(host.spec.vcpus);
  };
  ReferenceCandidates out;
  for (const int d : donors) out.donor_vms += fleet.host(d).vms.size();
  for (const int h : by_index) {
    bool takes_any = false;
    for (const int d : donors) {
      for (const int v : fleet.host(d).vms) takes_any = takes_any || receiver_ok(h, fleet.vm(v));
    }
    if (!takes_any) ++out.never_fits;
  }

  const int k_total = config.candidate_targets;
  const int k_third = std::max(1, k_total / 3);
  for (const int donor : donors) {
    std::vector<int> vms = fleet.host(donor).vms;
    std::sort(vms.begin(), vms.end(), [&](int a, int b) {
      const double ra = fleet.vm(a).ram_bytes;
      const double rb = fleet.vm(b).ram_bytes;
      return ra != rb ? ra > rb : a < b;
    });
    bool every_vm_placeable = true;
    for (const int v : vms) {
      std::vector<int> targets;
      const auto take = [&](const std::vector<int>& order, int limit) {
        int taken = 0;
        for (const int h : order) {
          if (taken >= limit || static_cast<int>(targets.size()) >= k_total) break;
          if (h == donor || !receiver_ok(h, fleet.vm(v)) ||
              std::find(targets.begin(), targets.end(), h) != targets.end()) {
            continue;
          }
          targets.push_back(h);
          ++taken;
        }
      };
      take(by_index, k_third);
      const auto group = by_group.find(fleet.host(donor).spec.group);
      if (group != by_group.end()) take(group->second, k_third);
      take(by_load, k_total - static_cast<int>(targets.size()));
      for (const int t : targets) out.moves.emplace_back(v, donor, t);
      every_vm_placeable = every_vm_placeable && !targets.empty();
    }
    if (every_vm_placeable) out.donors.push_back(donor);
  }
  return out;
}

TEST(MigrationPlanner, ReceiverPruningKeepsTheUnprunedCandidates) {
  // Committed waves fill the receivers that lead the first-fit and
  // most-loaded orders, so later waves have hosts no donor VM fits on.
  // Every wave reads the history's last hour, so the CPU check sees
  // real load. Dropping those hosts up front must leave every wave's
  // candidates, in order, as a scan of all receivers finds them.
  const core::Wavm3Model model = make_model();
  const PlannerConfig config = test_config();
  const double now = SyntheticFleetOptions{}.history_s;
  Fleet fleet = Fleet::synthetic(64, 640, 1);
  const BeamSearchStrategy beam;
  MigrationPlanner planner(model, config);

  int never_fits = 0;
  int committed_waves = 0;
  for (int wave = 0; wave < 4; ++wave) {
    SCOPED_TRACE(testing::Message() << "wave " << wave);
    Fleet before = fleet;
    before.refresh_loads(now, config.load_window_s);
    const ReferenceCandidates expect = reference_candidates(before, config);

    const RecordingStrategy recording(beam);
    const WavePlan plan = planner.plan_wave(fleet, recording, now);
    std::vector<CandidateKey> seen;
    for (const ScoredMove& c : recording.seen.moves) seen.emplace_back(c.vm, c.source, c.target);
    EXPECT_EQ(seen, expect.moves);
    std::vector<int> donors;
    for (const DonorCandidates& d : recording.seen.donors) donors.push_back(d.host);
    EXPECT_EQ(donors, expect.donors);

    never_fits += expect.never_fits;
    if (!plan.moves.empty()) ++committed_waves;
  }
  // Not vacuous: waves committed moves, and receivers no donor VM fits
  // on were there to be dropped.
  EXPECT_GE(committed_waves, 3);
  EXPECT_GT(never_fits, 0);
}

TEST(MigrationPlanner, AnalysesCyclesOfTheChosenVmsOnly) {
  // Committed beam waves at real load: each wave analyses exactly the
  // distinct chosen VMs with a history that no earlier wave analysed,
  // which is at most one trace per scheduled move and fewer than the
  // wave's donor VMs.
  const core::Wavm3Model model = make_model();
  const PlannerConfig config = test_config();
  const double now = SyntheticFleetOptions{}.history_s;
  const BeamSearchStrategy beam;

  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Fleet fleet = Fleet::synthetic(64, 640, seed);
    MigrationPlanner planner(model, config);
    std::set<int> memoised;
    int committed_waves = 0;
    for (int wave = 0; wave < 4; ++wave) {
      SCOPED_TRACE(testing::Message() << "wave " << wave);
      Fleet before = fleet;
      before.refresh_loads(now, config.load_window_s);
      const std::size_t donor_vms = reference_candidates(before, config).donor_vms;

      const RecordingStrategy recording(beam);
      const std::size_t analyses0 = fleet.cycle_analyses();
      const std::uint64_t counted0 = cycle_analyses_counted(beam.name());
      const WavePlan plan = planner.plan_wave(fleet, recording, now);
      const std::size_t analyses = fleet.cycle_analyses() - analyses0;

      std::set<int> fresh;
      for (const int m : recording.chosen) {
        const int v = recording.seen.moves[static_cast<std::size_t>(m)].vm;
        if (!fleet.vm(v).history.empty() && memoised.count(v) == 0) fresh.insert(v);
      }
      EXPECT_EQ(analyses, fresh.size());
      EXPECT_EQ(cycle_analyses_counted(beam.name()) - counted0, analyses);
      EXPECT_LE(analyses, plan.moves.size());
      EXPECT_LT(analyses, donor_vms);
      memoised.insert(fresh.begin(), fresh.end());
      if (!plan.moves.empty()) ++committed_waves;
    }
    EXPECT_GE(committed_waves, 2);
    EXPECT_GT(memoised.size(), 0u);
  }
}

// ---------------------------------------------------------------- relief

/// `n_hosts` hosts of 16 vCPUs (overload line 0.9 * 16 = 14.4) and
/// 32 GiB; VM i sits on vms[i].first with vms[i].second vCPUs of demand
/// and 2 GiB of RAM.
Fleet relief_fleet(int n_hosts, std::initializer_list<std::pair<int, double>> vms) {
  Fleet fleet;
  for (int h = 0; h < n_hosts; ++h) {
    cloud::HostSpec spec;
    spec.name = "h" + std::to_string(h);
    spec.vcpus = 16;
    spec.ram_bytes = util::gib(32);
    fleet.add_host(spec);
  }
  int i = 0;
  for (const auto& [host, cpu] : vms) {
    FleetVm vm;
    vm.id = "v" + std::to_string(i++);
    vm.vcpus = 8.0;
    vm.ram_bytes = util::gib(2);
    vm.working_set_pages = 20000;
    vm.cpu_now = cpu;
    vm.dirty_now = 1000.0 * cpu;
    fleet.add_vm(vm, host);
  }
  return fleet;
}

/// h0 at 16 vCPUs (v0..v3), h1 at 18 (v4..v6), h2 empty, h3 at 2 (v7).
Fleet two_overloaded_hosts() {
  return relief_fleet(4, {{0, 5.0}, {0, 3.0}, {0, 4.0}, {0, 4.0},
                          {1, 6.0}, {1, 6.0}, {1, 6.0},
                          {3, 2.0}});
}

std::vector<std::pair<int, int>> vm_targets(const ReliefPlan& relief) {
  std::vector<std::pair<int, int>> out;
  for (const ScheduledMove& m : relief.moves) out.emplace_back(m.vm, m.target);
  return out;
}

TEST(ReliefMoves, MostOverloadedHostFirstSmallestVmsFirstLeastLoadedReceiver) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = two_overloaded_hosts();
  const ReliefPlan relief = relief_moves(fleet, test_config(), model, 100.0, {});

  EXPECT_EQ(relief.overloaded_hosts, 2);
  // h1 (18/16) before h0 (16/16). h1 sheds v4 (the lowest index of its
  // equal VMs) to the emptiest receiver h2 and is at 12 <= 14.4. h0
  // sheds its smallest VM v1 to h3, now the least loaded (2 < 6).
  const std::vector<std::pair<int, int>> expect = {{4, 2}, {1, 3}};
  EXPECT_EQ(vm_targets(relief), expect);
  EXPECT_EQ(relief.moves[0].source, 1);
  EXPECT_EQ(relief.moves[1].source, 0);
  EXPECT_EQ(relief.unplaced, 0);
  // Nothing is applied: the caller executes the moves.
  EXPECT_EQ(fleet.vm(4).host, 1);
  EXPECT_EQ(fleet.vm(1).host, 0);
}

TEST(ReliefMoves, SkipsVmsAnotherMoveOwns) {
  const core::Wavm3Model model = make_model();
  Fleet fleet = two_overloaded_hosts();
  const ReliefPlan relief = relief_moves(fleet, test_config(), model, 100.0, {4, 1});
  // v4 and v1 are owned: each host sheds its next smallest VM instead.
  const std::vector<std::pair<int, int>> expect = {{5, 2}, {2, 3}};
  EXPECT_EQ(vm_targets(relief), expect);
}

TEST(ReliefMoves, PlansAtMostTheCap) {
  const core::Wavm3Model model = make_model();
  // Eight hosts at 20 vCPUs of 0.5-vCPU VMs each need 12 moves apiece
  // (96 in all); eight empty hosts have room for every one of them.
  Fleet fleet;
  for (int h = 0; h < 16; ++h) {
    cloud::HostSpec spec;
    spec.name = "h" + std::to_string(h);
    spec.vcpus = 16;
    spec.ram_bytes = util::gib(32);
    fleet.add_host(spec);
  }
  for (int h = 0; h < 8; ++h) {
    for (int v = 0; v < 40; ++v) {
      FleetVm vm;
      vm.id = "v" + std::to_string(h) + "-" + std::to_string(v);
      vm.ram_bytes = util::gib(0.5);
      vm.working_set_pages = 5000;
      vm.cpu_now = 0.5;
      vm.dirty_now = 500.0;
      fleet.add_vm(vm, h);
    }
  }
  const ReliefPlan relief = relief_moves(fleet, test_config(), model, 0.0, {});
  EXPECT_EQ(relief.overloaded_hosts, 8);
  EXPECT_EQ(relief.moves.size(), static_cast<std::size_t>(kMaxReliefMoves));
  EXPECT_EQ(relief.unplaced, 0);
}

TEST(ReliefMoves, WakesAStandbyHostOnlyWhenNoRunningHostFits) {
  const core::Wavm3Model model = make_model();
  const PlannerConfig config = test_config();
  {
    // h2 runs 4 vCPUs: the 8-vCPU VM fits under its line; h3 stays off.
    Fleet fleet = relief_fleet(4, {{0, 8.0}, {0, 8.0}, {1, 10.0}, {2, 4.0}});
    fleet.set_powered(3, false);
    const ReliefPlan relief = relief_moves(fleet, config, model, 0.0, {});
    const std::vector<std::pair<int, int>> expect = {{0, 2}};
    EXPECT_EQ(vm_targets(relief), expect);
    EXPECT_FALSE(fleet.host(3).powered_on);
  }
  {
    // h1 and h2 run 10 vCPUs each: only the standby h3 fits.
    Fleet fleet = relief_fleet(4, {{0, 8.0}, {0, 8.0}, {1, 10.0}, {2, 10.0}});
    fleet.set_powered(3, false);
    const ReliefPlan relief = relief_moves(fleet, config, model, 0.0, {});
    const std::vector<std::pair<int, int>> expect = {{0, 3}};
    EXPECT_EQ(vm_targets(relief), expect);
    EXPECT_TRUE(fleet.host(3).powered_on);
  }
  {
    // No standby host: both VMs are picked and left unplaced.
    Fleet fleet = relief_fleet(3, {{0, 8.0}, {0, 8.0}, {1, 10.0}, {2, 10.0}});
    const ReliefPlan relief = relief_moves(fleet, config, model, 0.0, {});
    EXPECT_TRUE(relief.moves.empty());
    EXPECT_EQ(relief.unplaced, 2);
  }
}

TEST(ReliefMoves, PricesBitEqualToTheClosedFormForecast) {
  const core::Wavm3Model model = make_model();
  const PlannerConfig config = test_config();
  Fleet fleet = two_overloaded_hosts();
  const double now = 250.0;
  const ReliefPlan relief = relief_moves(fleet, config, model, now, {});
  ASSERT_FALSE(relief.moves.empty());
  const core::MigrationPlanner forecaster(model);
  for (const ScheduledMove& m : relief.moves) {
    const core::MigrationForecast fc =
        forecaster.forecast(move_scenario(fleet, m.vm, m.source, m.target, config));
    EXPECT_EQ(m.energy_j, fc.total_energy()) << "vm " << m.vm;
    EXPECT_EQ(m.downtime_s, fc.downtime) << "vm " << m.vm;
    EXPECT_EQ(m.start_s, now);
    EXPECT_EQ(m.end_s, now + fc.times.me) << "vm " << m.vm;
  }
}

}  // namespace
}  // namespace wavm3::plan
