// FeatureBatch and the batched prediction path: golden bit-identity of
// predict_batch against the scalar predict_energy loop for all four
// models, the SoA layout invariants, and the span-based stats kernels
// the columnar path is built on.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/calibration.hpp"
#include "core/wavm3_model.hpp"
#include "models/evaluation.hpp"
#include "models/feature_batch.hpp"
#include "models/huang.hpp"
#include "models/liu.hpp"
#include "models/strunk.hpp"
#include "stats/integrate.hpp"
#include "stats/linreg.hpp"
#include "stats/metrics.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavm3::models {
namespace {

using migration::MigrationPhase;
using migration::MigrationType;

const Dataset& campaign_dataset() { return wavm3::testing::fast_campaign_m().dataset; }

/// Train/test split shared by the golden tests: stratified, seeded, so
/// every (type, role) slice is populated on both sides.
std::pair<Dataset, Dataset> golden_split() {
  return campaign_dataset().split_stratified(0.34, 3);
}

std::vector<const EnergyModel*> fit_all(core::Wavm3Model& wavm3, HuangModel& huang,
                                        LiuModel& liu, StrunkModel& strunk,
                                        const Dataset& train) {
  wavm3.fit(train);
  huang.fit(train);
  liu.fit(train);
  strunk.fit(train);
  return {&wavm3, &huang, &liu, &strunk};
}

// ------------------------------------------------------ stats kernels

TEST(Trapezoid, MatchesClosedFormAndHandlesDegenerateInputs) {
  const std::vector<double> t{0.0, 1.0, 3.0, 6.0};
  const std::vector<double> y{2.0, 4.0, 4.0, 0.0};
  // 0.5*(2+4)*1 + 0.5*(4+4)*2 + 0.5*(4+0)*3 = 3 + 8 + 6
  EXPECT_DOUBLE_EQ(stats::trapezoid(t, y), 17.0);
  EXPECT_EQ(stats::trapezoid({}, {}), 0.0);
  const std::vector<double> one{5.0};
  EXPECT_EQ(stats::trapezoid(one, one), 0.0);
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(stats::trapezoid(two, one), util::ContractError);
}

TEST(SpanMetrics, ForwardersAgreeWithSpanPrimaries) {
  const std::vector<double> predicted{10.0, 12.5, 9.0, 14.0, 11.0};
  const std::vector<double> observed{11.0, 12.0, 10.0, 13.0, 12.0};
  const std::span<const double> p(predicted);
  const std::span<const double> o(observed);
  EXPECT_EQ(stats::mae(predicted, observed), stats::mae(p, o));
  EXPECT_EQ(stats::rmse(predicted, observed), stats::rmse(p, o));
  EXPECT_EQ(stats::nrmse(predicted, observed), stats::nrmse(p, o));
  EXPECT_EQ(stats::r_squared(predicted, observed), stats::r_squared(p, o));
  const stats::ErrorMetrics mv = stats::compute_error_metrics(predicted, observed);
  const stats::ErrorMetrics ms = stats::compute_error_metrics(p, o);
  EXPECT_EQ(mv.mae, ms.mae);
  EXPECT_EQ(mv.rmse, ms.rmse);
  EXPECT_EQ(mv.nrmse, ms.nrmse);
}

// ----------------------------------------------------- batch invariants

TEST(FeatureBatch, ColumnsMatchScalarAccessors) {
  const Dataset& d = campaign_dataset();
  const FeatureBatch batch(d);
  ASSERT_EQ(batch.size(), d.observations.size());
  for (std::size_t i = 0; i < d.observations.size(); ++i) {
    const MigrationObservation& obs = d.observations[i];
    EXPECT_EQ(batch.mem_bytes()[i], obs.mem_bytes);
    EXPECT_EQ(batch.data_bytes()[i], obs.data_bytes);
    EXPECT_EQ(batch.avg_bandwidth()[i], obs.avg_bandwidth);
    EXPECT_EQ(batch.idle_power()[i], obs.idle_power_watts);
    // Bit-identical, not just close: both sides run the same trapezoid.
    EXPECT_EQ(batch.observed_energy()[i], obs.observed_energy());
    EXPECT_EQ(batch.types()[i], obs.type);
    EXPECT_EQ(batch.roles()[i], obs.role);
    for (const MigrationPhase phase :
         {MigrationPhase::kInitiation, MigrationPhase::kTransfer,
          MigrationPhase::kActivation}) {
      EXPECT_EQ(batch.integral(FeatureBatch::Column::kPower, phase,
                               FeatureBatch::Weighting::kPhasePure)[i],
                obs.observed_phase_energy(phase));
    }
  }
}

TEST(FeatureBatch, SlicesPartitionTheRows) {
  const FeatureBatch batch(campaign_dataset());
  std::vector<int> seen(batch.size(), 0);
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    for (const HostRole role : {HostRole::kSource, HostRole::kTarget}) {
      for (const std::size_t r : batch.slice(type, role)) {
        EXPECT_EQ(batch.types()[r], type);
        EXPECT_EQ(batch.roles()[r], role);
        ++seen[r];
      }
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(batch.slice(HostRole::kSource).size() + batch.slice(HostRole::kTarget).size(),
            batch.size());
}

TEST(FeatureBatch, TotalWeightingSumsToUnfilteredIntegral) {
  const Dataset& d = campaign_dataset();
  const FeatureBatch batch(d);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    double duration = 0.0;
    for (const MigrationPhase phase :
         {MigrationPhase::kInitiation, MigrationPhase::kTransfer,
          MigrationPhase::kActivation}) {
      duration += batch.integral(FeatureBatch::Column::kOne, phase)[i];
    }
    const auto& s = d.observations[i].samples;
    const double expected = s.size() < 2 ? 0.0 : s.back().time - s.front().time;
    EXPECT_NEAR(duration, expected, 1e-9 * (1.0 + std::abs(expected)));
  }
}

TEST(FeatureBatch, SampleSectionRequiresOptIn) {
  const FeatureBatch lean(campaign_dataset());
  EXPECT_FALSE(lean.has_samples());
  EXPECT_THROW(lean.sample_column(FeatureBatch::Column::kPower), util::ContractError);

  FeatureBatch::BuildOptions options;
  options.with_samples = true;
  const FeatureBatch full(campaign_dataset(), options);
  ASSERT_TRUE(full.has_samples());
  std::size_t total = 0;
  for (const auto& obs : campaign_dataset().observations) total += obs.samples.size();
  EXPECT_EQ(full.sample_column(FeatureBatch::Column::kPower).size(), total);
  EXPECT_EQ(full.sample_slice(HostRole::kSource).size() +
                full.sample_slice(HostRole::kTarget).size(),
            total);
}

TEST(FeatureBatch, EmptyBatchIsWellFormed) {
  const FeatureBatch batch{std::span<const MigrationObservation* const>{}};
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.observed_energy().empty());
  EXPECT_TRUE(batch.slice(MigrationType::kLive, HostRole::kSource).empty());
}

// ------------------------------------------------------- golden tests

TEST(PredictBatchGolden, BitIdenticalToScalarLoopForAllModels) {
  const auto [train, test] = golden_split();
  core::Wavm3Model wavm3;
  HuangModel huang;
  LiuModel liu;
  StrunkModel strunk;
  const auto models = fit_all(wavm3, huang, liu, strunk, train);

  // The fixed seeded test set covers live + non-live on both roles.
  const FeatureBatch batch(test);
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    EXPECT_FALSE(batch.slice(type, HostRole::kSource).empty());
    EXPECT_FALSE(batch.slice(type, HostRole::kTarget).empty());
  }

  for (const EnergyModel* model : models) {
    std::vector<double> batched(batch.size());
    model->predict_batch(batch, batched);
    for (std::size_t i = 0; i < test.observations.size(); ++i) {
      EXPECT_EQ(batched[i], model->predict_energy(test.observations[i]))
          << model->name() << " row " << i;
    }
  }
}

TEST(PredictBatchGolden, SingleItemBatchMatchesScalar) {
  const auto [train, test] = golden_split();
  core::Wavm3Model wavm3;
  HuangModel huang;
  LiuModel liu;
  StrunkModel strunk;
  const auto models = fit_all(wavm3, huang, liu, strunk, train);
  const MigrationObservation& obs = test.observations.front();
  const FeatureBatch single = FeatureBatch::of(obs);
  ASSERT_EQ(single.size(), 1u);
  for (const EnergyModel* model : models) {
    double out = -1.0;
    model->predict_batch(single, std::span<double>(&out, 1));
    EXPECT_EQ(out, model->predict_energy(obs)) << model->name();
  }
}

TEST(PredictBatchGolden, EmptyBatchIsANoOp) {
  const auto [train, test] = golden_split();
  core::Wavm3Model wavm3;
  HuangModel huang;
  LiuModel liu;
  StrunkModel strunk;
  const auto models = fit_all(wavm3, huang, liu, strunk, train);
  const FeatureBatch empty{std::span<const MigrationObservation* const>{}};
  for (const EnergyModel* model : models) {
    std::vector<double> out;
    EXPECT_NO_THROW(model->predict_batch(empty, out)) << model->name();
  }
}

TEST(PredictBatchGolden, PhaseBatchMatchesScalarPhaseEnergies) {
  const auto [train, test] = golden_split();
  core::Wavm3Model wavm3;
  wavm3.fit(train);
  const FeatureBatch batch(test);
  for (const MigrationPhase phase : {MigrationPhase::kInitiation, MigrationPhase::kTransfer,
                                     MigrationPhase::kActivation}) {
    std::vector<double> batched(batch.size());
    wavm3.predict_phase_batch(batch, phase, batched);
    for (std::size_t i = 0; i < test.observations.size(); ++i) {
      double scalar = 0.0;
      wavm3.predict_phase_batch(FeatureBatch::of(test.observations[i]), phase,
                                std::span<double>(&scalar, 1));
      EXPECT_EQ(batched[i], scalar) << "phase " << static_cast<int>(phase) << " row " << i;
    }
  }
}

TEST(PredictBatchGolden, SizeMismatchThrows) {
  const auto [train, test] = golden_split();
  core::Wavm3Model wavm3;
  wavm3.fit(train);
  const FeatureBatch batch(test);
  std::vector<double> wrong(batch.size() + 1);
  EXPECT_THROW(wavm3.predict_batch(batch, wrong), util::ContractError);
}

// -------------------------------------------------------- calibration

TEST(Calibration, BatchIdlePowerMatchesDatasetOverload) {
  const Dataset& d = campaign_dataset();
  EXPECT_EQ(core::dataset_idle_power(d), core::dataset_idle_power(FeatureBatch(d)));
}

}  // namespace
}  // namespace wavm3::models
