// Unit tests for the models module: dataset mechanics and the three
// baseline models (HUANG, LIU, STRUNK) on planted synthetic data plus
// real campaign data.
#include <gtest/gtest.h>

#include <cmath>

#include "models/dataset.hpp"
#include "models/evaluation.hpp"
#include "models/huang.hpp"
#include "models/liu.hpp"
#include "models/strunk.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavm3::models {
namespace {

using migration::MigrationPhase;
using migration::MigrationType;

/// Builds a synthetic observation with constant power and features.
MigrationObservation constant_obs(double watts, double duration, HostRole role,
                                  MigrationType type, double cpu_host = 8.0,
                                  double data_gb = 4.0, double bw_mbs = 100.0) {
  MigrationObservation obs;
  obs.role = role;
  obs.type = type;
  obs.times.ms = 0.0;
  obs.times.ts = duration * 0.1;
  obs.times.te = duration * 0.9;
  obs.times.me = duration;
  obs.mem_bytes = 4.0 * 1024 * 1024 * 1024;
  obs.data_bytes = data_gb * 1e9;
  obs.avg_bandwidth = bw_mbs * 1e6;
  obs.idle_power_watts = 430.0;
  for (double t = 0.0; t <= duration + 1e-9; t += 0.5) {
    MigrationSample s;
    s.time = t;
    s.power_watts = watts;
    s.cpu_host = cpu_host;
    s.bandwidth = obs.avg_bandwidth;
    s.phase = obs.times.phase_at(t);
    if (s.phase == MigrationPhase::kNormal) s.phase = MigrationPhase::kActivation;
    obs.samples.push_back(s);
  }
  return obs;
}

TEST(Dataset, ObservedEnergyOfConstantPower) {
  const MigrationObservation obs =
      constant_obs(600.0, 60.0, HostRole::kSource, MigrationType::kLive);
  EXPECT_NEAR(obs.observed_energy(), 600.0 * 60.0, 1e-6);
}

TEST(Dataset, PhaseEnergiesSumToTotal) {
  const MigrationObservation obs =
      constant_obs(500.0, 80.0, HostRole::kSource, MigrationType::kLive);
  const double init = obs.observed_phase_energy(MigrationPhase::kInitiation);
  const double transfer = obs.observed_phase_energy(MigrationPhase::kTransfer);
  const double act = obs.observed_phase_energy(MigrationPhase::kActivation);
  // Phase sums miss only the straddling inter-phase segments (at most
  // one sample interval per boundary).
  EXPECT_NEAR(init + transfer + act, obs.observed_energy(), 3.0 * 0.5 * 500.0 + 1e-6);
  EXPECT_GT(transfer, init);
}

TEST(Dataset, SelectFiltersTypeAndRole) {
  Dataset d;
  d.observations.push_back(constant_obs(500, 10, HostRole::kSource, MigrationType::kLive));
  d.observations.push_back(constant_obs(500, 10, HostRole::kTarget, MigrationType::kLive));
  d.observations.push_back(constant_obs(500, 10, HostRole::kSource, MigrationType::kNonLive));
  EXPECT_EQ(d.select(MigrationType::kLive, HostRole::kSource).size(), 1u);
  EXPECT_EQ(d.select(MigrationType::kLive, HostRole::kTarget).size(), 1u);
  EXPECT_EQ(d.select(MigrationType::kNonLive, HostRole::kTarget).size(), 0u);
}

TEST(Dataset, SplitPartitionsObservations) {
  Dataset d;
  for (int i = 0; i < 50; ++i)
    d.observations.push_back(constant_obs(500, 10, HostRole::kSource, MigrationType::kLive));
  const auto [train, test] = d.split_stratified(0.2, 7);
  EXPECT_EQ(train.size(), 10u);
  EXPECT_EQ(test.size(), 40u);
}

TEST(Huang, RecoversPlantedLinearModel) {
  Dataset train;
  util::RngStream rng(5);
  for (int i = 0; i < 40; ++i) {
    const double cpu = rng.uniform(0, 32);
    const double watts = 12.0 * cpu + 430.0 + rng.gaussian(0, 1.0);
    train.observations.push_back(
        constant_obs(watts, 20.0, HostRole::kSource, MigrationType::kLive, cpu));
    train.observations.push_back(
        constant_obs(watts, 20.0, HostRole::kTarget, MigrationType::kLive, cpu));
  }
  HuangModel huang;
  huang.fit(train);
  EXPECT_TRUE(huang.is_fitted());
  const auto c = huang.coefficients(HostRole::kSource);
  EXPECT_NEAR(c.alpha, 12.0, 0.3);
  EXPECT_NEAR(c.c, 430.0, 3.0);

  // Prediction integrates alpha*cpu + C over the observation.
  const MigrationObservation probe =
      constant_obs(0.0, 40.0, HostRole::kSource, MigrationType::kLive, 10.0);
  EXPECT_NEAR(huang.predict_energy(probe), (12.0 * 10.0 + 430.0) * 40.0,
              0.05 * (12.0 * 10.0 + 430.0) * 40.0);
}

TEST(Huang, VmCpuVariantIsMuchWeakerUnderHostLoad) {
  // The literal Eq. 8 reading cannot see host load at all, so it loses
  // badly on the CPULOAD-dominated campaign - evidence for the host-CPU
  // interpretation the paper's SVII prose suggests.
  const Dataset& d = wavm3::testing::fast_campaign_m().dataset;
  const auto [train, test] = d.split_stratified(0.34, 3);
  HuangModel host_cpu;
  host_cpu.fit(train);
  HuangModel vm_cpu(HuangModel::CpuRegressor::kVmCpu);
  vm_cpu.fit(train);
  EXPECT_EQ(vm_cpu.name(), "HUANG(vm-cpu)");
  const auto host_rows = evaluate_model(host_cpu, test);
  const auto vm_rows = evaluate_model(vm_cpu, test);
  const double h = find_row(host_rows, "HUANG", MigrationType::kLive, HostRole::kTarget)
                       .metrics.nrmse;
  const double v = find_row(vm_rows, "HUANG(vm-cpu)", MigrationType::kLive, HostRole::kTarget)
                       .metrics.nrmse;
  EXPECT_GT(v, 3.0 * h);
}

TEST(Huang, BiasCorrectionShiftsConstant) {
  const Dataset& d = wavm3::testing::fast_campaign_m().dataset;
  HuangModel huang;
  huang.fit(d);
  const double c_before = huang.coefficients(HostRole::kSource).c;
  huang.apply_idle_bias_correction(265.0);
  EXPECT_NEAR(huang.coefficients(HostRole::kSource).c, c_before - 265.0, 1e-9);
}

TEST(Huang, UnfittedQueriesThrow) {
  const HuangModel huang;
  EXPECT_THROW(huang.coefficients(HostRole::kSource), util::ContractError);
  EXPECT_FALSE(huang.is_fitted());
}

TEST(Liu, RecoversPlantedDataModel) {
  Dataset train;
  util::RngStream rng(9);
  for (int i = 0; i < 30; ++i) {
    const double gb = rng.uniform(4, 17);
    const double duration = 30.0;
    // Energy == watts * duration; make watts encode the planted relation.
    const double energy = 2500.0 * gb + 12000.0;
    train.observations.push_back(constant_obs(energy / duration, duration, HostRole::kSource,
                                              MigrationType::kLive, 8.0, gb));
  }
  LiuModel liu;
  liu.fit(train);
  const auto c = liu.coefficients(HostRole::kSource);
  EXPECT_NEAR(c.alpha_per_gb, 2500.0, 50.0);
  EXPECT_NEAR(c.c, 12000.0, 700.0);

  MigrationObservation probe =
      constant_obs(0.0, 30.0, HostRole::kSource, MigrationType::kLive, 8.0, 10.0);
  EXPECT_NEAR(liu.predict_energy(probe), 2500.0 * 10.0 + 12000.0, 800.0);
}

TEST(Liu, InsensitiveToHostLoadByDesign) {
  const Dataset& d = wavm3::testing::fast_campaign_m().dataset;
  LiuModel liu;
  liu.fit(d);
  MigrationObservation low =
      constant_obs(500, 30.0, HostRole::kSource, MigrationType::kLive, 2.0, 5.0);
  MigrationObservation high =
      constant_obs(900, 30.0, HostRole::kSource, MigrationType::kLive, 32.0, 5.0);
  // Same DATA -> same prediction, regardless of CPU load: LIU's blind spot.
  EXPECT_DOUBLE_EQ(liu.predict_energy(low), liu.predict_energy(high));
}

TEST(Strunk, FitsDespiteConstantMemColumn) {
  const Dataset& d = wavm3::testing::fast_campaign_m().dataset;
  StrunkModel strunk;
  strunk.fit(d);  // MEM(v) identical everywhere; ridge must handle it
  EXPECT_TRUE(strunk.is_fitted());
  const auto c = strunk.coefficients(HostRole::kSource);
  EXPECT_TRUE(std::isfinite(c.alpha_per_gib));
  EXPECT_TRUE(std::isfinite(c.beta_per_mbs));
  EXPECT_TRUE(std::isfinite(c.c));
}

TEST(Strunk, PredictsFromMemAndBandwidthOnly) {
  const Dataset& d = wavm3::testing::fast_campaign_m().dataset;
  StrunkModel strunk;
  strunk.fit(d);
  MigrationObservation a =
      constant_obs(500, 30.0, HostRole::kSource, MigrationType::kLive, 2.0, 5.0, 100.0);
  MigrationObservation b =
      constant_obs(900, 90.0, HostRole::kSource, MigrationType::kLive, 32.0, 15.0, 100.0);
  // Identical MEM and BW -> identical prediction: STRUNK's blind spot.
  EXPECT_DOUBLE_EQ(strunk.predict_energy(a), strunk.predict_energy(b));
}

TEST(Evaluation, ProducesRowsPerSlice) {
  const Dataset& d = wavm3::testing::fast_campaign_m().dataset;
  HuangModel huang;
  huang.fit(d);
  const auto rows = evaluate_model(huang, d);
  // Both types and both roles are present in the campaign.
  EXPECT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_GT(r.n_migrations, 0u);
    EXPECT_GT(r.metrics.rmse, 0.0);
    EXPECT_GT(r.metrics.nrmse, 0.0);
    EXPECT_LT(r.metrics.nrmse, 1.0);  // HUANG is sane on its training data
  }
  const EvaluationRow& row =
      find_row(rows, "HUANG", MigrationType::kLive, HostRole::kSource);
  EXPECT_EQ(row.model, "HUANG");
  EXPECT_THROW(find_row(rows, "WAVM3", MigrationType::kLive, HostRole::kSource),
               util::ContractError);
}

TEST(Evaluation, UnfittedModelRejected) {
  const HuangModel huang;
  Dataset d;
  d.observations.push_back(constant_obs(500, 10, HostRole::kSource, MigrationType::kLive));
  EXPECT_THROW(evaluate_model(huang, d), util::ContractError);
}

}  // namespace
}  // namespace wavm3::models
