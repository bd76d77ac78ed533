// Tests for the WAVM3 core: per-phase fitting, prediction accuracy,
// LM/OLS equivalence, ablations, bias transfer, and the closed-form
// migration planner.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/calibration.hpp"
#include "core/phase_eval.hpp"
#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "models/evaluation.hpp"
#include "models/huang.hpp"
#include "serve/query_stream.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::core {
namespace {

using migration::MigrationPhase;
using migration::MigrationType;
using models::HostRole;

/// Train/test split of the shared fast campaign, computed once.
struct SplitFixture {
  models::Dataset train;
  models::Dataset test;
  SplitFixture() {
    const auto& campaign = wavm3::testing::fast_campaign_m();
    auto [tr, te] = campaign.dataset.split_stratified(0.34, 1234);
    train = std::move(tr);
    test = std::move(te);
  }
};

const SplitFixture& split_m() {
  static const SplitFixture f;
  return f;
}

const Wavm3Model& fitted_wavm3() {
  static const Wavm3Model model = [] {
    Wavm3Model m;
    m.fit(split_m().train);
    return m;
  }();
  return model;
}

TEST(Wavm3, FitsBothTypesAndRoles) {
  const Wavm3Model& m = fitted_wavm3();
  EXPECT_TRUE(m.is_fitted());
  for (const auto type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const Wavm3Coefficients& c = m.coefficients(type);
    // Bias embeds the idle draw of the m-class machines.
    EXPECT_GT(c.source.transfer.c, 300.0);
    EXPECT_LT(c.source.transfer.c, 600.0);
    EXPECT_GT(c.source.transfer.alpha, 5.0);  // ~watts per busy vCPU
    EXPECT_LT(c.source.transfer.alpha, 25.0);
  }
}

TEST(Wavm3, CoefficientsNonnegativeByDefault) {
  const Wavm3Model& m = fitted_wavm3();
  for (const auto type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const Wavm3Coefficients& table = m.coefficients(type);
    for (const RoleCoefficients* rc : {&table.source, &table.target}) {
      for (const PhaseCoefficients* pc :
           {&rc->initiation, &rc->transfer, &rc->activation}) {
        EXPECT_GE(pc->alpha, 0.0);
        EXPECT_GE(pc->beta, 0.0);
        EXPECT_GE(pc->gamma, 0.0);
        EXPECT_GE(pc->delta, 0.0);
      }
    }
  }
}

TEST(Wavm3, TargetTransferIgnoresDrAndVmCpu) {
  // SIV-C.2: DR and CPU(v) are zero on the target during transfer, so
  // their fitted coefficients must be exactly zero (pruned columns).
  const Wavm3Coefficients& c = fitted_wavm3().coefficients(MigrationType::kLive);
  EXPECT_DOUBLE_EQ(c.target.transfer.gamma, 0.0);
  EXPECT_DOUBLE_EQ(c.target.transfer.delta, 0.0);
}

TEST(Wavm3, LiveSourceTransferUsesDirtyRatio) {
  const Wavm3Coefficients& c = fitted_wavm3().coefficients(MigrationType::kLive);
  // The tracking overhead makes gamma clearly positive on the source.
  EXPECT_GT(c.source.transfer.gamma, 1.0);
}

TEST(Wavm3, PredictsHeldOutEnergiesWell) {
  const Wavm3Model& m = fitted_wavm3();
  const auto rows = models::evaluate_model(m, split_m().test);
  for (const auto& r : rows) {
    EXPECT_LT(r.metrics.nrmse, 0.12) << "slice " << r.model << "/" << to_string(r.role);
    EXPECT_GT(r.metrics.r2, 0.8);
  }
}

TEST(Wavm3, BeatsOrMatchesHuangEverywhereAndWinsOnLiveSource) {
  models::HuangModel huang;
  huang.fit(split_m().train);
  const auto w_rows = models::evaluate_model(fitted_wavm3(), split_m().test);
  const auto h_rows = models::evaluate_model(huang, split_m().test);
  for (const auto type : {MigrationType::kNonLive, MigrationType::kLive}) {
    for (const auto role : {HostRole::kSource, HostRole::kTarget}) {
      const double w = models::find_row(w_rows, "WAVM3", type, role).metrics.nrmse;
      const double h = models::find_row(h_rows, "HUANG", type, role).metrics.nrmse;
      // On this reduced campaign WAVM3 fits 12 parameters per slice vs
      // HUANG's 2, so allow a little small-sample slack on ties.
      EXPECT_LE(w, h * 1.4 + 0.01) << "WAVM3 must not clearly lose any slice";
    }
  }
  const double w_live_src =
      models::find_row(w_rows, "WAVM3", MigrationType::kLive, HostRole::kSource).metrics.nrmse;
  const double h_live_src =
      models::find_row(h_rows, "HUANG", MigrationType::kLive, HostRole::kSource).metrics.nrmse;
  EXPECT_LT(w_live_src, h_live_src);  // the paper's headline live improvement
}

TEST(Wavm3, PhaseEnergiesSumNearTotal) {
  const Wavm3Model& m = fitted_wavm3();
  const auto& obs = split_m().test.observations.front();
  const double total = m.predict_energy(obs);
  const models::FeatureBatch batch = models::FeatureBatch::of(obs);
  double parts = 0.0;
  for (const MigrationPhase phase : {MigrationPhase::kInitiation, MigrationPhase::kTransfer,
                                     MigrationPhase::kActivation}) {
    double phase_energy = 0.0;
    m.predict_phase_batch(batch, phase, std::span<double>(&phase_energy, 1));
    parts += phase_energy;
  }
  // Boundary sample intervals are the only difference.
  EXPECT_NEAR(parts, total, 3.0 * 0.5 * 900.0);
  EXPECT_GT(parts, 0.0);
}

TEST(Wavm3, PhaseLevelEvaluationSane) {
  const auto rows = evaluate_phase_energies(fitted_wavm3(), split_m().test);
  ASSERT_GE(rows.size(), 8u);  // most (type, role, phase) slices present
  bool transfer_seen = false;
  for (const auto& r : rows) {
    EXPECT_GE(r.n_migrations, 3u);
    EXPECT_GT(r.metrics.nrmse, 0.0);
    EXPECT_LT(r.metrics.nrmse, 0.35) << migration::to_string(r.phase);
    if (r.phase == MigrationPhase::kTransfer) {
      transfer_seen = true;
      // The transfer phase dominates the energy and is predicted best
      // in relative terms.
      EXPECT_LT(r.metrics.nrmse, 0.12);
    }
  }
  EXPECT_TRUE(transfer_seen);
}

TEST(Wavm3, LevenbergMarquardtMatchesOls) {
  Wavm3Model::Options lm_opts;
  lm_opts.use_levenberg_marquardt = true;
  lm_opts.nonnegative_coefficients = false;  // compare against unconstrained OLS
  Wavm3Model lm_model(lm_opts);
  lm_model.fit(split_m().train);

  Wavm3Model::Options ols_opts;
  ols_opts.nonnegative_coefficients = false;
  Wavm3Model ols_model(ols_opts);
  ols_model.fit(split_m().train);

  const auto& a = lm_model.coefficients(MigrationType::kLive).source.transfer;
  const auto& b = ols_model.coefficients(MigrationType::kLive).source.transfer;
  EXPECT_NEAR(a.alpha, b.alpha, 0.05 * (std::abs(b.alpha) + 1.0));
  EXPECT_NEAR(a.c, b.c, 0.02 * (std::abs(b.c) + 1.0));
}

TEST(Wavm3, AblationDroppingDirtyRatioHurtsLiveSource) {
  Wavm3Model::Options opts;
  opts.ablation.drop_dirty_ratio = true;
  Wavm3Model ablated(opts);
  ablated.fit(split_m().train);

  const auto full_rows = models::evaluate_model(fitted_wavm3(), split_m().test);
  const auto abl_rows = models::evaluate_model(ablated, split_m().test);
  const double full =
      models::find_row(full_rows, "WAVM3", MigrationType::kLive, HostRole::kSource)
          .metrics.rmse;
  const double abl =
      models::find_row(abl_rows, "WAVM3", MigrationType::kLive, HostRole::kSource)
          .metrics.rmse;
  EXPECT_GE(abl, full * 0.999);  // never better; usually clearly worse
  const auto& c = ablated.coefficients(MigrationType::kLive);
  EXPECT_DOUBLE_EQ(c.source.transfer.gamma, 0.0);
}

TEST(Wavm3, BiasCorrectionShiftsEveryPhaseConstant) {
  Wavm3Model m;
  m.fit(split_m().train);
  const auto before = m.coefficients(MigrationType::kLive);
  m.apply_idle_bias_correction(265.0);
  const auto after = m.coefficients(MigrationType::kLive);
  EXPECT_NEAR(after.source.initiation.c, before.source.initiation.c - 265.0, 1e-9);
  EXPECT_NEAR(after.source.transfer.c, before.source.transfer.c - 265.0, 1e-9);
  EXPECT_NEAR(after.target.activation.c, before.target.activation.c - 265.0, 1e-9);
  // Slopes untouched.
  EXPECT_DOUBLE_EQ(after.source.transfer.alpha, before.source.transfer.alpha);
}

TEST(Calibration, CrossTestbedTransferReducesError) {
  // The paper's SVI-F experiment: an m-trained model overestimates on
  // the o machines by the idle-power delta; the C2 correction fixes it.
  const auto& campaign_o = wavm3::testing::fast_campaign_o();

  Wavm3Model raw;
  raw.fit(split_m().train);
  Wavm3Model corrected;
  corrected.fit(split_m().train);
  transfer_bias(corrected, split_m().train, campaign_o.dataset);

  const auto raw_rows = models::evaluate_model(raw, campaign_o.dataset);
  const auto cor_rows = models::evaluate_model(corrected, campaign_o.dataset);
  for (const auto type : {MigrationType::kNonLive, MigrationType::kLive}) {
    for (const auto role : {HostRole::kSource, HostRole::kTarget}) {
      const double raw_nrmse = models::find_row(raw_rows, "WAVM3", type, role).metrics.nrmse;
      const double cor_nrmse = models::find_row(cor_rows, "WAVM3", type, role).metrics.nrmse;
      EXPECT_LT(cor_nrmse, raw_nrmse * 0.5)
          << "bias transfer must at least halve the cross-testbed error";
      EXPECT_LT(cor_nrmse, 0.30);
    }
  }
}

TEST(Calibration, IdleDeltaMatchesTestbeds) {
  const double delta = idle_bias_delta(wavm3::testing::fast_campaign_m().dataset,
                                       wavm3::testing::fast_campaign_o().dataset);
  // m-class idles ~433 W, o-class ~167 W.
  EXPECT_NEAR(delta, 265.0, 15.0);
}

// ---------- Planner ----------

MigrationScenario base_scenario() {
  MigrationScenario sc;
  sc.type = MigrationType::kLive;
  sc.vm_mem_bytes = util::gib(4);
  sc.vm_cpu_vcpus = 4.0;
  sc.vm_dirty_pages_per_s = 64.0;
  sc.vm_working_set_pages = 4096.0;
  sc.source_cpu_capacity = 32.0;
  sc.target_cpu_capacity = 32.0;
  sc.link_payload_rate = 117.5e6;
  return sc;
}

TEST(Planner, TimingsWellFormed) {
  const MigrationForecast fc = forecast_timings(base_scenario());
  EXPECT_TRUE(fc.times.well_formed());
  EXPECT_GT(fc.times.transfer_duration(), 20.0);
  EXPECT_LT(fc.times.transfer_duration(), 60.0);
  EXPECT_GE(fc.total_bytes, util::gib(4));
  EXPECT_FALSE(fc.degenerated_to_nonlive);
}

TEST(Planner, HighDirtyRateDegenerates) {
  MigrationScenario sc = base_scenario();
  sc.vm_dirty_pages_per_s = 300000.0;
  sc.vm_working_set_pages = 0.95 * util::gib(4) / 4096.0;
  const MigrationForecast fc = forecast_timings(sc);
  EXPECT_TRUE(fc.degenerated_to_nonlive);
  EXPECT_GT(fc.downtime, 5.0);
  EXPECT_GT(fc.total_bytes, 2.0 * util::gib(4));
}

TEST(Planner, LoadedSourceReducesBandwidth) {
  const MigrationForecast idle = forecast_timings(base_scenario());
  MigrationScenario sc = base_scenario();
  sc.source_cpu_load = 32.0;
  const MigrationForecast loaded = forecast_timings(sc);
  EXPECT_LT(loaded.bandwidth, idle.bandwidth);
  EXPECT_GT(loaded.times.transfer_duration(), idle.times.transfer_duration());
}

TEST(Planner, NonLiveDowntimeSpansMigration) {
  MigrationScenario sc = base_scenario();
  sc.type = MigrationType::kNonLive;
  const MigrationForecast fc = forecast_timings(sc);
  EXPECT_GT(fc.downtime, fc.times.transfer_duration());
  EXPECT_EQ(fc.precopy_rounds, 0);
}

TEST(Planner, ForecastEnergiesPositiveAndAdditive) {
  const MigrationPlanner planner(fitted_wavm3());
  const MigrationForecast fc = planner.forecast(base_scenario());
  EXPECT_GT(fc.source_energy, 0.0);
  EXPECT_GT(fc.target_energy, 0.0);
  EXPECT_NEAR(fc.total_energy(), fc.source_energy + fc.target_energy, 1e-9);
  double sum = 0.0;
  for (int i = 0; i < 3; ++i) sum += fc.source_phase_energy[i];
  EXPECT_NEAR(sum, fc.source_energy, 1e-9);
}

TEST(Planner, ForecastTracksEngineScaleOnIdleHosts) {
  // The planner's energy should land in the ballpark of the measured
  // idle-host live migration (~20-25 kJ per host on the m testbed).
  const MigrationPlanner planner(fitted_wavm3());
  const MigrationForecast fc = planner.forecast(base_scenario());
  EXPECT_GT(fc.source_energy, 10e3);
  EXPECT_LT(fc.source_energy, 45e3);
}

TEST(Planner, LoadedTargetCostsMore) {
  const MigrationPlanner planner(fitted_wavm3());
  const MigrationForecast idle = planner.forecast(base_scenario());
  MigrationScenario sc = base_scenario();
  sc.target_cpu_load = 28.0;
  const MigrationForecast loaded = planner.forecast(sc);
  EXPECT_GT(loaded.target_energy, idle.target_energy);
}

TEST(Planner, RejectsInvalidScenarios) {
  MigrationScenario sc = base_scenario();
  sc.vm_mem_bytes = 0.0;
  EXPECT_THROW(forecast_timings(sc), util::ContractError);
}

/// Every field of two forecasts, compared bit for bit.
void expect_bit_equal(const MigrationForecast& a, const MigrationForecast& b) {
  EXPECT_EQ(a.times.ms, b.times.ms);
  EXPECT_EQ(a.times.ts, b.times.ts);
  EXPECT_EQ(a.times.te, b.times.te);
  EXPECT_EQ(a.times.me, b.times.me);
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.precopy_rounds, b.precopy_rounds);
  EXPECT_EQ(a.downtime, b.downtime);
  EXPECT_EQ(a.degenerated_to_nonlive, b.degenerated_to_nonlive);
  EXPECT_EQ(a.source_energy, b.source_energy);
  EXPECT_EQ(a.target_energy, b.target_energy);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.source_phase_energy[i], b.source_phase_energy[i]) << "phase " << i;
    EXPECT_EQ(a.target_phase_energy[i], b.target_phase_energy[i]) << "phase " << i;
  }
}

MigrationScenario with_target(MigrationScenario sc, const TargetSide& target) {
  sc.target_cpu_load = target.cpu_load;
  sc.target_cpu_capacity = target.cpu_capacity;
  sc.link_payload_rate = target.link_payload_rate;
  return sc;
}

TEST(Planner, ForecastTargetsBitEqualsPerTargetForecast) {
  const Wavm3Model& model = fitted_wavm3();
  const MigrationPlanner planner(model);
  const double nic_1g = 0.94 * util::gbit_per_s(1);  // a NIC-capped link
  const double link_10g = 0.94 * util::gbit_per_s(10);

  for (const MigrationType type :
       {MigrationType::kLive, MigrationType::kNonLive, MigrationType::kPostCopy}) {
    SCOPED_TRACE(static_cast<int>(type));
    MigrationScenario base = base_scenario();
    base.type = type;
    base.vm_dirty_pages_per_s = 2000.0;  // several pre-copy rounds
    // Exact efficiencies (0.5 at no headroom, 1 at full), so a link of
    // twice the rate at no headroom lands on the same bandwidth.
    base.bandwidth.min_efficiency = 0.5;
    const double wire = base.bandwidth.cpu_for_wire_speed;
    // Post-copy adds the VM's CPU to the target's busy side.
    const double vm_on_target = type == MigrationType::kPostCopy ? base.vm_cpu_vcpus : 0.0;
    const double cap = 16.0;

    // Headroom above, below and at cpu_for_wire_speed, then a faster
    // link and a link twice as fast with no headroom: keys A B A C D B.
    const TargetSide above{cap - wire - 3.0 - vm_on_target, cap, nic_1g};   // key A
    const TargetSide below{cap - 0.5 * wire - vm_on_target, cap, nic_1g};   // key B
    const TargetSide at{32.0 - wire - vm_on_target, 32.0, nic_1g};          // key A
    const TargetSide fast{1.0, cap, link_10g};                              // key C
    const TargetSide starved{cap - vm_on_target, cap, 2.0 * nic_1g};        // key D
    const TargetSide below_again{24.0 - 0.5 * wire - vm_on_target, 24.0, nic_1g};  // key B
    const std::vector<TargetSide> targets = {above, below, at, fast, starved, below_again};

    // The keys are what the test says they are: at least three distinct
    // bandwidths, and D shares A's bandwidth but not its link rate (so
    // a memo keyed on bandwidth alone would price D's source wrongly).
    const auto bw = [&](const TargetSide& t) { return transfer_bandwidth(with_target(base, t)); };
    ASSERT_EQ(bw(above), bw(at));
    ASSERT_EQ(bw(below), bw(below_again));
    ASSERT_NE(bw(above), bw(below));
    ASSERT_NE(bw(above), bw(fast));
    ASSERT_NE(bw(below), bw(fast));
    ASSERT_EQ(bw(starved), bw(above));
    ASSERT_NE(starved.link_payload_rate, above.link_payload_rate);

    std::vector<MigrationForecast> out(targets.size());
    // A memo that kept only the last key would run 6 recursions, one
    // that kept only the first would run 5.
    EXPECT_EQ(planner.forecast_targets(base, targets, out), 4u);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      SCOPED_TRACE(i);
      const MigrationScenario sc = with_target(base, targets[i]);
      expect_bit_equal(out[i], planner.forecast(sc));
      MigrationForecast composed = forecast_timings(sc);
      attach_energy(model, sc, composed);
      expect_bit_equal(out[i], composed);

      // The timings are the recursion at the scenario's bandwidth.
      const MigrationForecast timings = forecast_timings(sc);
      EXPECT_EQ(timings.bandwidth, transfer_bandwidth(sc));
      expect_bit_equal(timings, forecast_timings_at(sc, transfer_bandwidth(sc)));

      // attach_energy fills each role's energy as the sum of that
      // role's phase energies.
      EXPECT_EQ(composed.source_energy, composed.source_phase_energy[0] +
                                            composed.source_phase_energy[1] +
                                            composed.source_phase_energy[2]);
      EXPECT_EQ(composed.target_energy, composed.target_phase_energy[0] +
                                            composed.target_phase_energy[1] +
                                            composed.target_phase_energy[2]);
    }
    // The two targets with key A differ in load and capacity, so only
    // the target half tells them apart.
    EXPECT_EQ(out[0].source_energy, out[2].source_energy);
    EXPECT_NE(out[0].target_energy, out[2].target_energy);
    // attach_energy's source half reads no target host field: one key-A
    // timing priced against both key-A hosts gives bit-equal source
    // fields, and only the target fields differ.
    {
      const MigrationScenario on_above = with_target(base, above);
      const MigrationScenario on_at = with_target(base, at);
      MigrationForecast priced_above = forecast_timings(on_above);
      MigrationForecast priced_at = priced_above;
      attach_energy(model, on_above, priced_above);
      attach_energy(model, on_at, priced_at);
      for (int p = 0; p < 3; ++p) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(priced_above.source_phase_energy[p]),
                  std::bit_cast<std::uint64_t>(priced_at.source_phase_energy[p]));
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(priced_above.source_energy),
                std::bit_cast<std::uint64_t>(priced_at.source_energy));
      EXPECT_NE(priced_above.target_energy, priced_at.target_energy);
      expect_bit_equal(priced_above, out[0]);
      expect_bit_equal(priced_at, out[2]);
    }

    // Every target is still validated, hit or miss.
    const TargetSide no_capacity{0.0, 0.0, nic_1g};
    const std::vector<TargetSide> bad = {above, no_capacity};
    std::vector<MigrationForecast> bad_out(bad.size());
    EXPECT_THROW(planner.forecast_targets(base, bad, bad_out), util::ContractError);
    const std::vector<TargetSide> no_link = {above, TargetSide{1.0, cap, 0.0}};
    EXPECT_THROW(planner.forecast_targets(base, no_link, bad_out), util::ContractError);
    std::vector<MigrationForecast> short_out(1);
    EXPECT_THROW(planner.forecast_targets(base, targets, short_out), util::ContractError);
  }
}

/// The target samples of `sc` under timings `fc`, restated plainly
/// apart from the planner's prepared target half.
void reference_target_samples(const MigrationScenario& sc, const MigrationForecast& fc,
                              models::MigrationSample (&out)[3]) {
  const auto& cfg = sc.migration;
  const bool postcopy = sc.type == MigrationType::kPostCopy;
  const double fraction = fc.bandwidth / std::max(fc.bandwidth, sc.link_payload_rate);
  const double recv = cfg.receiver_cpu_base + cfg.receiver_cpu_per_rate * fraction;
  const double load = sc.target_cpu_load;
  const double cap = sc.target_cpu_capacity;
  const double vm_transfer = postcopy ? sc.vm_cpu_vcpus : 0.0;
  const double vm_activation = sc.vm_cpu_vcpus * (1.0 - cfg.resume_point_fraction);
  out[0] = {};
  out[0].phase = MigrationPhase::kInitiation;
  out[0].cpu_host = std::min(cap, load + cfg.initiation_cpu);
  out[1] = {};
  out[1].phase = MigrationPhase::kTransfer;
  out[1].cpu_host = std::min(cap, postcopy ? load + recv + vm_transfer : load + recv);
  out[1].cpu_vm = vm_transfer;
  out[1].bandwidth = fc.bandwidth;
  out[2] = {};
  out[2].phase = MigrationPhase::kActivation;
  out[2].cpu_host = std::min(cap, load + cfg.activation_cpu + vm_activation);
  out[2].cpu_vm = vm_activation;
}

TEST(Planner, ForecastTargetsTargetHalfBitEqualsAttachTargetEnergy) {
  const Wavm3Model& model = fitted_wavm3();
  const MigrationPlanner planner(model);
  const double nic_1g = 0.94 * util::gbit_per_s(1);
  const double link_10g = 0.94 * util::gbit_per_s(10);
  const double cap = 16.0;

  for (const MigrationType type :
       {MigrationType::kLive, MigrationType::kNonLive, MigrationType::kPostCopy}) {
    SCOPED_TRACE(static_cast<int>(type));
    MigrationScenario base = base_scenario();
    base.type = type;
    base.vm_dirty_pages_per_s = 2000.0;

    // A host at and one above capacity have no headroom, so they share
    // key A and every host-CPU clamp binds on both; the host below
    // capacity (key B) and the one behind a faster link (key C) clamp
    // nothing. Keys A B A C.
    const TargetSide at{cap, cap, nic_1g};
    const TargetSide below{1.0, cap, nic_1g};
    const TargetSide above{cap + 3.0, cap, nic_1g};
    const TargetSide fast{2.0, cap, link_10g};
    const std::vector<TargetSide> targets = {at, below, above, fast};
    const std::vector<bool> clamped = {true, false, true, false};
    const auto bw = [&](const TargetSide& t) { return transfer_bandwidth(with_target(base, t)); };
    ASSERT_EQ(bw(at), bw(above));
    ASSERT_NE(bw(at), bw(below));
    ASSERT_NE(bw(below), bw(fast));
    ASSERT_NE(bw(at), bw(fast));

    std::vector<MigrationForecast> out(targets.size());
    EXPECT_EQ(planner.forecast_targets(base, targets, out), 3u);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      SCOPED_TRACE(i);
      const MigrationScenario sc = with_target(base, targets[i]);
      // The target fields of attach_energy are its target half.
      MigrationForecast expect = forecast_timings(sc);
      attach_energy(model, sc, expect);
      for (int p = 0; p < 3; ++p) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i].target_phase_energy[p]),
                  std::bit_cast<std::uint64_t>(expect.target_phase_energy[p]))
            << "phase " << p;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i].target_energy),
                std::bit_cast<std::uint64_t>(expect.target_energy));

      // representative_features still yields the plain target samples,
      // and predict_power over them gives the same phase energies.
      const PhaseRepresentatives rep = representative_features(sc, out[i]);
      models::MigrationSample ref[3];
      reference_target_samples(sc, out[i], ref);
      for (int p = 0; p < 3; ++p) {
        SCOPED_TRACE(p);
        EXPECT_EQ(rep.target[p].phase, ref[p].phase);
        EXPECT_EQ(rep.target[p].cpu_host, ref[p].cpu_host);
        EXPECT_EQ(rep.target[p].cpu_vm, ref[p].cpu_vm);
        EXPECT_EQ(rep.target[p].bandwidth, ref[p].bandwidth);
        EXPECT_EQ(rep.target[p].dirty_ratio, ref[p].dirty_ratio);
        if (clamped[i]) {
          EXPECT_EQ(rep.target[p].cpu_host, cap);
        } else {
          EXPECT_LT(rep.target[p].cpu_host, cap);
        }
        EXPECT_EQ(model.predict_power(rep.coeff_type, HostRole::kTarget, rep.target[p]) *
                      rep.duration[p],
                  out[i].target_phase_energy[p]);
      }
    }
    // The two key-A hosts both sit at the clamp, so their target halves
    // agree although their loads differ.
    EXPECT_EQ(out[0].target_energy, out[2].target_energy);
    EXPECT_NE(out[0].target_energy, out[1].target_energy);
  }
}

// ---------- forecast_batch ----------

/// The pre-copy termination rules, as bits.
enum StopRule : unsigned {
  kConverged = 1U,
  kRoundCap = 2U,
  kTrafficCap = 4U,
  kNotShrinking = 8U,
};

/// A live scenario's timings from a plain restatement of the pre-copy
/// recursion, written apart from the planner's lane code.
struct ReferenceTimings {
  double transfer = 0.0;  ///< transfer phase seconds, stop-and-copy included
  double total_bytes = 0.0;
  double stop_copy_s = 0.0;  ///< downtime before the activation lag
  int rounds = 0;
  bool degenerated = false;
  unsigned stopped_by = 0;  ///< StopRule bits that held in the last round
};

ReferenceTimings reference_precopy(const MigrationScenario& sc, double bandwidth) {
  const auto& cfg = sc.migration;
  double rate = sc.vm_dirty_pages_per_s;
  const double demand = sc.source_cpu_load + sc.vm_cpu_vcpus;
  if (sc.vm_cpu_vcpus > 0.0 && demand > sc.source_cpu_capacity) {
    rate = sc.vm_dirty_pages_per_s * (sc.source_cpu_capacity / demand);
  }
  const double ws = sc.vm_working_set_pages;
  ReferenceTimings r;
  double sent = sc.vm_mem_bytes;
  double previous = 0.0;
  for (int round = 1;; ++round) {
    const double tau = sent / bandwidth;
    r.transfer += tau;
    r.total_bytes += sent;
    double fresh = 0.0;
    if (ws > 0.0 && rate > 0.0 && tau > 0.0) {
      fresh = ws * (1.0 - std::exp(-rate * tau / ws)) * util::kPageSize;
    }
    unsigned rules = 0;
    if (fresh <= cfg.stop_threshold_bytes) rules |= kConverged;
    if (round >= cfg.max_precopy_rounds) rules |= kRoundCap;
    if (r.total_bytes + fresh > cfg.max_transfer_factor * sc.vm_mem_bytes) rules |= kTrafficCap;
    if (round >= 2 && fresh >= previous) rules |= kNotShrinking;
    if (rules != 0) {
      const double final_dirty = std::max(fresh, 1.0);
      r.transfer += final_dirty / bandwidth;
      r.total_bytes += final_dirty;
      r.stop_copy_s = final_dirty / bandwidth;
      r.rounds = round;
      r.degenerated = (rules & kConverged) == 0;
      r.stopped_by = rules;
      return r;
    }
    previous = sent;
    sent = fresh;
  }
}

/// Live, non-live and post-copy scenarios: the diurnal serve stream
/// (with repeats) plus live VMs that stop on each termination rule
/// alone.
std::vector<MigrationScenario> batch_pool() {
  serve::QueryStreamOptions options;
  options.repeat_fraction = 0.2;
  std::vector<MigrationScenario> pool =
      serve::QueryStreamGenerator::diurnal(options, 17).generate(96);
  for (std::size_t i = 0; i < pool.size(); i += 5) pool[i].type = MigrationType::kPostCopy;

  MigrationScenario converged = base_scenario();
  pool.push_back(converged);
  // A slowly shrinking dirty set cut off after three rounds.
  MigrationScenario round_cap = base_scenario();
  round_cap.vm_working_set_pages = 0.4 * util::gib(4) / util::kPageSize;
  round_cap.vm_dirty_pages_per_s = 20000.0;
  round_cap.migration.max_precopy_rounds = 3;
  pool.push_back(round_cap);
  // Re-dirtying most of a large working set every round: the traffic
  // cap ends it while each round still shrinks a little.
  MigrationScenario traffic_cap = base_scenario();
  traffic_cap.vm_working_set_pages = 0.95 * util::gib(4) / util::kPageSize;
  traffic_cap.vm_dirty_pages_per_s = 300000.0;
  traffic_cap.migration.max_transfer_factor = 1.5;
  pool.push_back(traffic_cap);
  // A working set re-dirtied faster than it is sent stops growing
  // smaller after the first round.
  MigrationScenario not_shrinking = base_scenario();
  not_shrinking.vm_working_set_pages = 0.3 * util::gib(4) / util::kPageSize;
  not_shrinking.vm_dirty_pages_per_s = 200000.0;
  not_shrinking.migration.max_transfer_factor = 100.0;
  pool.push_back(not_shrinking);
  return pool;
}

TEST(Planner, LaneRecursionMatchesAReferenceOnEveryStopRule) {
  const std::vector<MigrationScenario> pool = batch_pool();
  unsigned sole_rules = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].type != MigrationType::kLive) continue;
    SCOPED_TRACE(i);
    const MigrationScenario& sc = pool[i];
    const MigrationForecast fc = forecast_timings(sc);
    const ReferenceTimings ref = reference_precopy(sc, fc.bandwidth);
    const auto& cfg = sc.migration;
    const double activation = std::max(cfg.source_cleanup_duration, cfg.target_resume_duration);
    EXPECT_EQ(fc.times.te, cfg.initiation_duration + ref.transfer);
    EXPECT_EQ(fc.total_bytes, ref.total_bytes);
    EXPECT_EQ(fc.precopy_rounds, ref.rounds);
    EXPECT_EQ(fc.degenerated_to_nonlive, ref.degenerated);
    EXPECT_EQ(fc.downtime, ref.stop_copy_s + activation * cfg.resume_point_fraction);
    if (std::popcount(ref.stopped_by) == 1) sole_rules |= ref.stopped_by;
  }
  // Each rule ends some recursion on its own, so a lane that dropped
  // or mis-ordered one would show above.
  EXPECT_EQ(sole_rules, kConverged | kRoundCap | kTrafficCap | kNotShrinking);
}

TEST(Planner, ForecastBatchBitEqualsForecast) {
  const MigrationPlanner planner(fitted_wavm3());
  const std::vector<MigrationScenario> pool = batch_pool();
  ASSERT_GE(pool.size(), 65u + 3u);
  std::vector<const MigrationScenario*> all;
  for (const MigrationScenario& sc : pool) all.push_back(&sc);
  const auto check = [&](std::span<const MigrationScenario* const> batch) {
    // Stale outputs from a previous batch must all be overwritten.
    std::vector<MigrationForecast> out(batch.size());
    for (MigrationForecast& fc : out) fc.precopy_rounds = -1;
    planner.forecast_batch(batch, out);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(i);
      expect_bit_equal(out[i], planner.forecast(*batch[i]));
    }
  };
  for (const std::size_t n : {0, 1, 3, 4, 5, 64, 65}) {
    for (const std::size_t offset : {std::size_t{0}, pool.size() - n}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " offset " << offset);
      check(std::span<const MigrationScenario* const>(all).subspan(offset, n));
    }
  }
  // The tail of the pool holds one scenario per stop rule: a batch of
  // them, each repeated (same object and an equal copy), keeps lanes
  // of very different lengths in flight together.
  const std::vector<MigrationScenario> copies(pool.end() - 4, pool.end());
  std::vector<const MigrationScenario*> repeated;
  for (int r = 0; r < 3; ++r) {
    for (std::size_t k = 0; k < copies.size(); ++k) {
      repeated.push_back(all[pool.size() - 4 + k]);
      repeated.push_back(&copies[copies.size() - 1 - k]);
    }
  }
  check(repeated);
}

TEST(Planner, ForecastBatchRejectsLikeForecast) {
  const MigrationPlanner planner(fitted_wavm3());
  const MigrationScenario good = base_scenario();
  MigrationScenario no_memory = base_scenario();
  no_memory.vm_mem_bytes = 0.0;
  const std::vector<const MigrationScenario*> batch = {&good, &good, &no_memory, &good};
  std::vector<MigrationForecast> out(batch.size());
  EXPECT_THROW(planner.forecast_batch(batch, out), util::ContractError);
  std::vector<MigrationForecast> short_out(1);
  EXPECT_THROW(planner.forecast_batch(batch, short_out), util::ContractError);
}

}  // namespace
}  // namespace wavm3::core
