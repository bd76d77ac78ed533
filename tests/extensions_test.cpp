// Tests for the extension features: bootstrap/k-fold resampling,
// dataset CSV persistence, cross-validation, and the engine's adaptive
// pre-copy rate limiting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cmath>

#include "cloud/datacenter.hpp"
#include "cloud/instances.hpp"
#include "core/coeff_io.hpp"
#include "core/wavm3_model.hpp"
#include "migration/engine.hpp"
#include "models/dataset_io.hpp"
#include "models/evaluation.hpp"
#include "net/bandwidth_model.hpp"
#include "sim/simulator.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"
#include "stats/resampling.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace wavm3 {
namespace {

TEST(Bootstrap, MeanCiCoversTruth) {
  util::RngStream rng(3);
  std::vector<double> sample;
  for (int i = 0; i < 300; ++i) sample.push_back(rng.gaussian(50.0, 5.0));
  const stats::BootstrapResult r =
      stats::bootstrap_ci(sample, [](const std::vector<double>& v) { return stats::mean(v); },
                          600, 0.95, 9);
  EXPECT_NEAR(r.point, 50.0, 1.0);
  EXPECT_LT(r.lower, r.point);
  EXPECT_GT(r.upper, r.point);
  EXPECT_LT(r.lower, 50.0);
  EXPECT_GT(r.upper, 50.0);
  // Interval width ~ 2*1.96*5/sqrt(300) ~ 1.13.
  EXPECT_NEAR(r.upper - r.lower, 1.13, 0.5);
}

TEST(Bootstrap, DeterministicInSeed) {
  std::vector<double> sample;
  for (int i = 0; i < 50; ++i) sample.push_back(i);
  const auto stat = [](const std::vector<double>& v) { return stats::mean(v); };
  const auto a = stats::bootstrap_ci(sample, stat, 200, 0.9, 5);
  const auto b = stats::bootstrap_ci(sample, stat, 200, 0.9, 5);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(Bootstrap, PairedMetricCi) {
  util::RngStream rng(7);
  std::vector<double> obs;
  std::vector<double> pred;
  for (int i = 0; i < 200; ++i) {
    const double o = rng.uniform(100, 200);
    obs.push_back(o);
    pred.push_back(o + rng.gaussian(0, 10.0));
  }
  const auto r = stats::bootstrap_metric_ci(
      pred, obs,
      [](const std::vector<double>& p, const std::vector<double>& o) {
        return stats::nrmse(p, o);
      },
      400, 0.95, 11);
  EXPECT_GT(r.point, 0.0);
  EXPECT_LE(r.lower, r.point);
  EXPECT_GE(r.upper, r.point);
}

TEST(Kfold, PartitionsAllIndicesDisjointly) {
  const auto folds = stats::kfold_indices(23, 5, 17);
  ASSERT_EQ(folds.size(), 5u);
  std::vector<int> seen(23, 0);
  for (const auto& f : folds) {
    EXPECT_GE(f.size(), 4u);
    EXPECT_LE(f.size(), 5u);
    for (const auto i : f) seen[i]++;
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(Kfold, Validation) {
  EXPECT_THROW(stats::kfold_indices(3, 4, 1), util::ContractError);
  EXPECT_THROW(stats::kfold_indices(10, 1, 1), util::ContractError);
}

TEST(DatasetIo, RoundTripsExactly) {
  const models::Dataset& original = wavm3::testing::fast_campaign_m().dataset;
  const std::string path = ::testing::TempDir() + "/wavm3_dataset.csv";
  ASSERT_TRUE(models::save_dataset_csv(original, path));
  const models::Dataset loaded = models::load_dataset_csv(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.name, original.name);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.observations[i];
    const auto& b = loaded.observations[i];
    EXPECT_EQ(a.experiment, b.experiment);
    EXPECT_EQ(a.run, b.run);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.role, b.role);
    EXPECT_DOUBLE_EQ(a.times.te, b.times.te);
    EXPECT_DOUBLE_EQ(a.data_bytes, b.data_bytes);
    EXPECT_DOUBLE_EQ(a.idle_power_watts, b.idle_power_watts);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t j = 0; j < a.samples.size(); j += 7) {
      EXPECT_DOUBLE_EQ(a.samples[j].power_watts, b.samples[j].power_watts);
      EXPECT_DOUBLE_EQ(a.samples[j].cpu_host, b.samples[j].cpu_host);
      EXPECT_DOUBLE_EQ(a.samples[j].dirty_ratio, b.samples[j].dirty_ratio);
      EXPECT_EQ(a.samples[j].phase, b.samples[j].phase);
    }
    EXPECT_NEAR(a.observed_energy(), b.observed_energy(), 1e-6);
  }
}

TEST(DatasetIo, FitFromReloadedDatasetMatches) {
  const models::Dataset& original = wavm3::testing::fast_campaign_m().dataset;
  const std::string path = ::testing::TempDir() + "/wavm3_dataset2.csv";
  ASSERT_TRUE(models::save_dataset_csv(original, path));
  const models::Dataset loaded = models::load_dataset_csv(path);
  std::remove(path.c_str());

  core::Wavm3Model from_original;
  from_original.fit(original);
  core::Wavm3Model from_loaded;
  from_loaded.fit(loaded);
  const auto& a = from_original.coefficients(migration::MigrationType::kLive).source.transfer;
  const auto& b = from_loaded.coefficients(migration::MigrationType::kLive).source.transfer;
  EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
  EXPECT_DOUBLE_EQ(a.c, b.c);
}

TEST(DatasetIo, MissingFileYieldsEmptyDataset) {
  const models::Dataset d = models::load_dataset_csv("/nonexistent/path.csv");
  EXPECT_EQ(d.size(), 0u);
}

TEST(DatasetIo, LoaderRejectsNonMonotonicSampleTimestamps) {
  // A trace CSV with shuffled rows used to load silently and corrupt
  // every downstream energy integral (negative trapezoid panels); the
  // loader must reject it at the door, naming the observation.
  models::Dataset bad;
  bad.name = "tampered";
  models::MigrationObservation obs;
  obs.experiment = "SHUFFLED";
  obs.run = 1;
  obs.testbed = "t";
  obs.times = {0.0, 1.0, 2.0, 3.0};
  for (const double t : {0.0, 2.0, 1.0, 3.0}) {  // out of order
    models::MigrationSample s;
    s.time = t;
    s.power_watts = 100.0;
    obs.samples.push_back(s);
  }
  EXPECT_FALSE(obs.has_monotonic_timeline());
  bad.observations.push_back(obs);

  const std::string path = ::testing::TempDir() + "/wavm3_dataset_bad.csv";
  ASSERT_TRUE(models::save_dataset_csv(bad, path));
  EXPECT_THROW(models::load_dataset_csv(path), util::ContractError);
  std::remove(path.c_str());

  std::sort(bad.observations[0].samples.begin(), bad.observations[0].samples.end(),
            [](const models::MigrationSample& a, const models::MigrationSample& b) {
              return a.time < b.time;
            });
  EXPECT_TRUE(bad.observations[0].has_monotonic_timeline());
}

TEST(CrossValidate, ProducesStableSlices) {
  const models::Dataset& dataset = wavm3::testing::fast_campaign_m().dataset;
  const auto summaries = models::cross_validate(
      [] { return std::make_unique<core::Wavm3Model>(); }, dataset, 4, 7);
  ASSERT_EQ(summaries.size(), 4u);  // both types x both roles
  for (const auto& s : summaries) {
    EXPECT_EQ(s.folds, 4u);
    EXPECT_GT(s.mean_nrmse, 0.0);
    EXPECT_LT(s.mean_nrmse, 0.15);
    EXPECT_LT(s.stddev_nrmse, s.mean_nrmse);  // folds agree reasonably
  }
}

TEST(CoeffIo, RoundTripsAndPredictsIdentically) {
  const models::Dataset& dataset = wavm3::testing::fast_campaign_m().dataset;
  core::Wavm3Model model;
  model.fit(dataset);
  const std::string path = ::testing::TempDir() + "/wavm3_coeffs.csv";
  ASSERT_TRUE(core::save_coefficients_csv(model, path));
  const core::Wavm3Model loaded = core::load_coefficients_csv(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.is_fitted());
  for (const auto type : {migration::MigrationType::kNonLive, migration::MigrationType::kLive}) {
    const auto& a = model.coefficients(type);
    const auto& b = loaded.coefficients(type);
    EXPECT_DOUBLE_EQ(a.source.transfer.alpha, b.source.transfer.alpha);
    EXPECT_DOUBLE_EQ(a.source.transfer.gamma, b.source.transfer.gamma);
    EXPECT_DOUBLE_EQ(a.target.activation.c, b.target.activation.c);
  }
  const auto& obs = dataset.observations.front();
  EXPECT_DOUBLE_EQ(model.predict_energy(obs), loaded.predict_energy(obs));
}

TEST(CoeffIo, UnfittedModelRejected) {
  const core::Wavm3Model model;
  EXPECT_THROW(core::save_coefficients_csv(model, "/tmp/never.csv"), util::ContractError);
}

TEST(CoeffIo, MissingFileYieldsUnfittedModel) {
  const core::Wavm3Model m = core::load_coefficients_csv("/nonexistent/coeffs.csv");
  EXPECT_FALSE(m.is_fitted());
}

// ---------- Adaptive rate limiting ----------

struct RateWorld {
  sim::Simulator sim;
  cloud::DataCenter dc;
  std::unique_ptr<migration::MigrationEngine> engine;

  explicit RateWorld(bool adaptive) {
    cloud::HostSpec h;
    h.vcpus = 32;
    h.ram_bytes = util::gib(32);
    h.name = "src";
    dc.add_host(h);
    h.name = "tgt";
    dc.add_host(h);
    net::LinkSpec link;
    link.wire_rate = util::gbit_per_s(1);
    dc.network().connect("src", "tgt", link);
    migration::MigrationConfig cfg;
    cfg.adaptive_rate_limit = adaptive;
    engine = std::make_unique<migration::MigrationEngine>(sim, dc, net::BandwidthModel{}, cfg);
  }

  migration::MigrationRecord migrate_mem(double fraction) {
    dc.host("src")->add_vm(cloud::make_migrating_mem_vm("mv", fraction));
    engine->migrate("mv", "src", "tgt", migration::MigrationType::kLive);
    sim.run_to_completion();
    return engine->completed().back();
  }
};

TEST(AdaptiveRate, FirstRoundRunsAtMinRate) {
  RateWorld w(true);
  const auto r = w.migrate_mem(0.35);
  ASSERT_GE(r.rounds.size(), 2u);
  EXPECT_NEAR(r.rounds[0].bandwidth, 100e6 / 8.0, 1.0);
}

TEST(AdaptiveRate, StopAndCopyUnthrottled) {
  RateWorld w(true);
  const auto r = w.migrate_mem(0.35);
  const auto& sc = r.rounds.back();
  ASSERT_TRUE(sc.stop_and_copy);
  EXPECT_GT(sc.bandwidth, 50e6);  // full achievable, not the 12.5 MB/s floor
}

TEST(AdaptiveRate, LengthensTransferVsUnlimited) {
  RateWorld limited(true);
  const double t_limited = limited.migrate_mem(0.35).times.transfer_duration();
  RateWorld unlimited(false);
  const double t_unlimited = unlimited.migrate_mem(0.35).times.transfer_duration();
  EXPECT_GT(t_limited, 1.5 * t_unlimited);
}

TEST(AdaptiveRate, RampsWithObservedDirtyRate) {
  RateWorld w(true);
  const auto r = w.migrate_mem(0.75);
  // Later pre-copy rounds run at (observed dirty rate + 50 Mbit), which
  // exceeds the 100 Mbit opening rate for this hot a dirtier.
  bool ramped = false;
  for (std::size_t i = 1; i + 1 < r.rounds.size(); ++i) {
    if (r.rounds[i].bandwidth > r.rounds[0].bandwidth * 1.2) ramped = true;
  }
  EXPECT_TRUE(ramped);
}

TEST(Compression, HalvesWireTrafficAndTransferTime) {
  const auto run_with_ratio = [](double ratio) {
    sim::Simulator sim;
    cloud::DataCenter dc;
    cloud::HostSpec h;
    h.vcpus = 32;
    h.ram_bytes = util::gib(32);
    h.name = "src";
    dc.add_host(h);
    h.name = "tgt";
    dc.add_host(h);
    net::LinkSpec link;
    link.wire_rate = util::gbit_per_s(1);
    dc.network().connect("src", "tgt", link);
    dc.host("src")->add_vm(cloud::make_migrating_cpu_vm("mv"));
    migration::MigrationConfig cfg;
    cfg.compression_ratio = ratio;
    migration::MigrationEngine engine(sim, dc, net::BandwidthModel{}, cfg);
    engine.migrate("mv", "src", "tgt", migration::MigrationType::kNonLive);
    sim.run_to_completion();
    return engine.completed().back();
  };

  const auto plain = run_with_ratio(1.0);
  const auto squeezed = run_with_ratio(2.0);
  EXPECT_NEAR(squeezed.total_bytes, plain.total_bytes / 2.0, 1e6);
  EXPECT_LT(squeezed.times.transfer_duration(), 0.6 * plain.times.transfer_duration());
  EXPECT_LT(squeezed.downtime, plain.downtime);
}

TEST(AdaptiveRate, NonLiveNeverThrottled) {
  RateWorld w(true);
  w.dc.host("src")->add_vm(cloud::make_migrating_cpu_vm("mv"));
  w.engine->migrate("mv", "src", "tgt", migration::MigrationType::kNonLive);
  w.sim.run_to_completion();
  const auto& r = w.engine->completed().back();
  EXPECT_GT(r.rounds[0].bandwidth, 100e6);  // full speed
}

}  // namespace
}  // namespace wavm3
