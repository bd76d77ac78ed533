// Tests for src/stream/: incremental feature extraction with golden
// parity against the batch FeatureBatch path on every campaign trace,
// the documented timestamp semantics (backwards rejects, duplicates
// collapse, gaps interpolate up to a bound), online phase tracking,
// live mid-migration prediction with confidence tightening, the
// session registry (typed errors, LRU eviction, degeneration alerts),
// the serve streaming endpoints, and a many-thread registry hammer
// written to run under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "models/feature_batch.hpp"
#include "serve/service.hpp"
#include "stats/integrate.hpp"
#include "stream/errors.hpp"
#include "stream/incremental.hpp"
#include "stream/live_predictor.hpp"
#include "stream/phase_track.hpp"
#include "stream/replay.hpp"
#include "stream/session.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace wavm3::stream {
namespace {

using migration::MigrationPhase;
using migration::MigrationType;
using models::FeatureBatch;
using models::HostRole;
using models::MigrationSample;

/// A fitted model from synthetic coefficient tables, covering all
/// three migration types (the chaos planner prices post-copy too).
core::Wavm3Model make_model() {
  core::Wavm3Model m;
  for (const MigrationType type :
       {MigrationType::kNonLive, MigrationType::kLive, MigrationType::kPostCopy}) {
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

/// A model fitted on the shared reduced campaign (covers every
/// (type, role) slice the campaign produces).
const core::Wavm3Model& campaign_model() {
  static const core::Wavm3Model model = [] {
    core::Wavm3Model m;
    m.fit(wavm3::testing::fast_campaign_m().dataset.split_stratified(0.34, 3).first);
    return m;
  }();
  return model;
}

MigrationSample sample(double time, MigrationPhase phase, double power = 200.0,
                       double cpu_host = 2.0, double cpu_vm = 1.0, double dirty_ratio = 0.3,
                       double bandwidth = 100e6) {
  MigrationSample s;
  s.time = time;
  s.power_watts = power;
  s.cpu_host = cpu_host;
  s.cpu_vm = cpu_vm;
  s.dirty_ratio = dirty_ratio;
  s.bandwidth = bandwidth;
  s.phase = phase;
  return s;
}

/// Streams one recorded observation through a fresh extractor.
IncrementalExtractor stream_of(const models::MigrationObservation& obs,
                               ExtractorConfig config = {}) {
  IncrementalExtractor ex(obs.type, obs.role, config);
  ex.set_migration_scalars(obs.mem_bytes, obs.data_bytes, obs.avg_bandwidth,
                           obs.idle_power_watts);
  for (const auto& s : obs.samples) ex.push(s);
  ex.finish();
  return ex;
}

constexpr MigrationPhase kDensePhases[3] = {MigrationPhase::kInitiation,
                                            MigrationPhase::kTransfer,
                                            MigrationPhase::kActivation};

/// Every aggregate the extractor maintains must be BIT-identical to
/// the batch built from the same samples (EXPECT_EQ, not NEAR: the
/// extractor replicates FeatureBatch::build()'s exact operation
/// order, and the 1e-9 ISSUE gate is the loose outer bound).
void expect_batch_parity(const IncrementalExtractor& ex,
                         const models::MigrationObservation& obs) {
  const FeatureBatch batch = FeatureBatch::of(obs);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(ex.observed_energy(), batch.observed_energy()[0]);
  EXPECT_EQ(ex.row().mem_bytes, batch.mem_bytes()[0]);
  EXPECT_EQ(ex.row().data_bytes, batch.data_bytes()[0]);
  EXPECT_EQ(ex.row().avg_bandwidth, batch.avg_bandwidth()[0]);
  EXPECT_EQ(ex.row().idle_power, batch.idle_power()[0]);
  for (const auto w : {FeatureBatch::Weighting::kTotal, FeatureBatch::Weighting::kPhasePure}) {
    for (std::size_t col = 0; col < FeatureBatch::kColumns; ++col) {
      for (std::size_t p = 0; p < FeatureBatch::kPhases; ++p) {
        const auto c = static_cast<FeatureBatch::Column>(col);
        EXPECT_EQ(ex.integral(c, p, w), batch.integral(c, kDensePhases[p], w)[0])
            << "weighting " << static_cast<int>(w) << " column " << col << " phase " << p;
      }
    }
  }
}

double predict_one(const core::Wavm3Model& model, const FeatureBatch& batch) {
  double out = 0.0;
  model.predict_batch(batch, std::span<double>(&out, 1));
  return out;
}

/// A live source-side campaign trace long enough to split mid-stream.
const models::MigrationObservation& live_source_obs() {
  for (const auto& o : wavm3::testing::fast_campaign_m().dataset.observations) {
    if (o.type != MigrationType::kLive || o.role != HostRole::kSource) continue;
    if (o.samples.size() < 12) continue;
    for (const auto& s : o.samples) {
      if (s.phase == MigrationPhase::kActivation) return o;
    }
  }
  ADD_FAILURE() << "no suitable live observation in the fast campaign";
  static const models::MigrationObservation empty;
  return empty;
}

// ----------------------------------------------------- golden parity

TEST(IncrementalExtractor, BatchParityOnEveryCampaignObservation) {
  const models::Dataset& dataset = wavm3::testing::fast_campaign_m().dataset;
  const core::Wavm3Model& model = campaign_model();
  ASSERT_GE(dataset.observations.size(), 4u);
  for (const auto& obs : dataset.observations) {
    const IncrementalExtractor ex = stream_of(obs);
    expect_batch_parity(ex, obs);
    // The streamed aggregates price through predict_batch to the same
    // energy as the batch-built row (the 1e-9 golden-parity gate).
    const double live_j = predict_one(model, ex.to_batch());
    const double batch_j = predict_one(model, FeatureBatch::of(obs));
    EXPECT_LE(std::abs(live_j - batch_j), 1e-9 * std::max(1.0, std::abs(batch_j)));
  }
}

// ----------------------------------------------- timestamp semantics

TEST(IncrementalExtractor, DuplicateTimestampCollapsesToLastValue) {
  // Same rule as stats::trapezoid (documented there): the zero-width
  // panel adds nothing; the later reading becomes the next panel's
  // left endpoint.
  const std::vector<double> t{0.0, 1.0, 1.0, 2.0};
  const std::vector<double> y{0.0, 2.0, 6.0, 6.0};
  models::MigrationObservation obs;
  obs.type = MigrationType::kLive;
  obs.role = HostRole::kSource;
  obs.times = {0.0, 0.0, 2.0, 2.0};
  for (std::size_t i = 0; i < t.size(); ++i) {
    obs.samples.push_back(sample(t[i], MigrationPhase::kTransfer, y[i]));
  }
  const IncrementalExtractor ex = stream_of(obs);
  // 0.5*(0+2)*1 + 0 + 0.5*(6+6)*1 — post-step reads from the step on.
  EXPECT_EQ(ex.observed_energy(), 7.0);
  EXPECT_EQ(ex.observed_energy(), stats::trapezoid(t, y));
  expect_batch_parity(ex, obs);
}

TEST(IncrementalExtractor, BackwardsOrNonFiniteTimestampThrowsContractError) {
  IncrementalExtractor ex(MigrationType::kLive, HostRole::kSource);
  ex.push(sample(1.0, MigrationPhase::kTransfer));
  EXPECT_THROW(ex.push(sample(0.5, MigrationPhase::kTransfer)), util::ContractError);
  EXPECT_THROW(ex.push(sample(std::numeric_limits<double>::quiet_NaN(),
                              MigrationPhase::kTransfer)),
               util::ContractError);
  // The rejected samples left no trace; equal timestamps are fine.
  EXPECT_EQ(ex.samples(), 1u);
  ex.push(sample(1.0, MigrationPhase::kTransfer));
  EXPECT_EQ(ex.samples(), 2u);
}

TEST(IncrementalExtractor, GapWithinBoundBridgesWithPhaseHold) {
  // A 4 s hole between a transfer and an activation sample. Without
  // bridging, kTotal weighting dumps half the panel (2 s) into the
  // activation phase; with bridging at the 0.5 s cadence the interior
  // holds the transfer phase and only the final half-panel (0.25 s)
  // lands in activation.
  IncrementalExtractor ex(MigrationType::kLive, HostRole::kSource);
  ex.push(sample(0.0, MigrationPhase::kTransfer, 2.0));
  ex.push(sample(4.0, MigrationPhase::kActivation, 6.0));
  EXPECT_EQ(ex.gaps_bridged(), 1u);
  EXPECT_EQ(ex.synthetic_samples(), 7u);  // ceil(4/0.5) - 1 interior points
  // Linear interpolation preserves the trapezoid area.
  EXPECT_NEAR(ex.observed_energy(), 16.0, 1e-9);
  EXPECT_NEAR(ex.phase_coverage(1), 3.75, 1e-12);
  EXPECT_NEAR(ex.phase_coverage(2), 0.25, 1e-12);

  ExtractorConfig wide;
  wide.interpolate_above_s = 10.0;  // disable bridging for contrast
  IncrementalExtractor raw(MigrationType::kLive, HostRole::kSource, wide);
  raw.push(sample(0.0, MigrationPhase::kTransfer, 2.0));
  raw.push(sample(4.0, MigrationPhase::kActivation, 6.0));
  EXPECT_EQ(raw.gaps_bridged(), 0u);
  EXPECT_EQ(raw.phase_coverage(1), 2.0);
  EXPECT_EQ(raw.phase_coverage(2), 2.0);
}

TEST(IncrementalExtractor, GapBeyondMaxRejectsAndLeavesStateUnchanged) {
  IncrementalExtractor ex(MigrationType::kLive, HostRole::kSource);
  ex.push(sample(0.0, MigrationPhase::kTransfer, 100.0));
  try {
    ex.push(sample(31.0, MigrationPhase::kTransfer, 100.0));  // > max_gap_s = 30
    FAIL() << "expected StreamError(kGapExceeded)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamErrorCode::kGapExceeded);
  }
  EXPECT_EQ(ex.samples(), 1u);
  EXPECT_EQ(ex.last_time(), 0.0);
  EXPECT_EQ(ex.observed_energy(), 0.0);
  // The stream recovers: the next in-bound sample is accepted.
  ex.push(sample(1.0, MigrationPhase::kTransfer, 100.0));
  EXPECT_EQ(ex.samples(), 2u);
  EXPECT_EQ(ex.observed_energy(), 100.0);
}

TEST(IncrementalExtractor, PushAfterFinishThrowsTyped) {
  IncrementalExtractor ex(MigrationType::kLive, HostRole::kSource);
  ex.push(sample(0.0, MigrationPhase::kInitiation));
  ex.finish();
  ex.finish();  // idempotent
  try {
    ex.push(sample(1.0, MigrationPhase::kTransfer));
    FAIL() << "expected StreamError(kFinished)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamErrorCode::kFinished);
  }
}

TEST(IncrementalExtractor, TracksPhaseProgress) {
  IncrementalExtractor ex(MigrationType::kLive, HostRole::kSource);
  EXPECT_EQ(ex.deepest_phase(), -1);
  EXPECT_EQ(ex.current_phase(), -1);
  ex.push(sample(0.0, MigrationPhase::kInitiation));
  EXPECT_EQ(ex.deepest_phase(), 0);
  EXPECT_EQ(ex.current_phase(), 0);
  ex.push(sample(1.0, MigrationPhase::kTransfer));
  ex.push(sample(2.0, MigrationPhase::kActivation));
  EXPECT_EQ(ex.deepest_phase(), 2);
  EXPECT_EQ(ex.current_phase(), 2);
  EXPECT_EQ(ex.first_time(), 0.0);
  EXPECT_EQ(ex.last_time(), 2.0);
}

// ------------------------------------------------------ phase tracker

TEST(PhaseTracker, CountsRoundsAndFlagsStopAndCopy) {
  PhaseTracker tracker;
  // Initiation: no rounds yet.
  tracker.observe(sample(0.0, MigrationPhase::kInitiation));
  tracker.observe(sample(0.5, MigrationPhase::kInitiation));
  EXPECT_EQ(tracker.rounds_observed(), 0);
  // Transfer entry opens round 1.
  for (double t = 1.0; t < 12.0; t += 0.5) {
    double bw = t < 5.0 ? 100e6 : 140e6;          // +40% step at t=5: round 2
    double dr = t < 8.0 ? 0.4 : 0.1;              // -75% collapse at t=8: round 3
    double cpu_vm = t < 10.0 ? 2.0 : 0.05;        // suspension at t=10: stop-and-copy
    tracker.observe(sample(t, MigrationPhase::kTransfer, 200.0, 2.0, cpu_vm, dr, bw));
  }
  tracker.observe(sample(12.0, MigrationPhase::kActivation));
  EXPECT_EQ(tracker.rounds_observed(), 3);
  EXPECT_TRUE(tracker.stop_and_copy_entered());
  EXPECT_EQ(tracker.stop_and_copy_at(), 10.0);
  ASSERT_EQ(tracker.boundaries().size(), 3u);
  EXPECT_EQ(tracker.boundaries()[0].phase, MigrationPhase::kInitiation);
  EXPECT_EQ(tracker.boundaries()[1].phase, MigrationPhase::kTransfer);
  EXPECT_EQ(tracker.boundaries()[2].phase, MigrationPhase::kActivation);
  EXPECT_EQ(tracker.boundaries()[1].time, 1.0);
}

TEST(PhaseTracker, IgnoresSubSecondNoiseBoundaries) {
  PhaseTrackerConfig cfg;
  cfg.min_round_s = 1.0;
  PhaseTracker tracker(cfg);
  tracker.observe(sample(0.0, MigrationPhase::kTransfer, 200.0, 2.0, 1.0, 0.4, 100e6));
  // A huge bandwidth step 0.5 s after the round opened: noise at 2 Hz.
  tracker.observe(sample(0.5, MigrationPhase::kTransfer, 200.0, 2.0, 1.0, 0.4, 200e6));
  EXPECT_EQ(tracker.rounds_observed(), 1);
  // The same step after the guard window counts.
  tracker.observe(sample(1.5, MigrationPhase::kTransfer, 200.0, 2.0, 1.0, 0.4, 400e6));
  EXPECT_EQ(tracker.rounds_observed(), 2);
}

// ------------------------------------------------------ live predictor

TEST(LivePredictor, ConfidenceTightensAsPhasesLand) {
  const models::MigrationObservation& obs = live_source_obs();
  const core::Wavm3Model& model = campaign_model();
  const PhasePrior prior = PhasePrior::from_times(obs.times);

  // Stream everything before the activation phase.
  std::size_t split = obs.samples.size();
  for (std::size_t i = 0; i < obs.samples.size(); ++i) {
    if (obs.samples[i].phase == MigrationPhase::kActivation) {
      split = i;
      break;
    }
  }
  ASSERT_GT(split, 1u);
  ASSERT_LT(split, obs.samples.size());

  IncrementalExtractor ex(obs.type, obs.role);
  ex.set_migration_scalars(obs.mem_bytes, obs.data_bytes, obs.avg_bandwidth,
                           obs.idle_power_watts);
  for (std::size_t i = 0; i < split; ++i) ex.push(obs.samples[i]);

  const RoleForecast mid = predict_role(model, ex, prior);
  EXPECT_GT(mid.observed_fraction, 0.0);
  EXPECT_LT(mid.observed_fraction, 1.0);
  // Initiation landed (a deeper phase produced samples): exact, no
  // remainder. Activation has not started: zero confidence, all prior.
  EXPECT_TRUE(mid.phase[0].landed);
  EXPECT_EQ(mid.phase[0].confidence, 1.0);
  EXPECT_EQ(mid.phase[0].remaining_s, 0.0);
  EXPECT_FALSE(mid.phase[2].landed);
  EXPECT_EQ(mid.phase[2].observed_s, 0.0);
  EXPECT_EQ(mid.phase[2].confidence, 0.0);
  EXPECT_GT(mid.remaining_j, 0.0);
  EXPECT_DOUBLE_EQ(mid.energy_j, mid.observed_model_j + mid.remaining_j);

  // Finish the stream: every phase lands, the remainder vanishes, and
  // the live forecast equals the batch prediction (the parity gate).
  for (std::size_t i = split; i < obs.samples.size(); ++i) ex.push(obs.samples[i]);
  ex.finish();
  const RoleForecast done = predict_role(model, ex, prior);
  EXPECT_EQ(done.observed_fraction, 1.0);
  EXPECT_EQ(done.remaining_j, 0.0);
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(done.phase[p].landed);
    EXPECT_EQ(done.phase[p].confidence, 1.0);
  }
  EXPECT_GE(done.observed_fraction, mid.observed_fraction);
  const double batch_j = predict_one(model, FeatureBatch::of(obs));
  EXPECT_LE(std::abs(done.energy_j - batch_j), 1e-9 * std::max(1.0, std::abs(batch_j)));
}

TEST(LivePredictor, NoPriorMeansObservedPrefixOnly) {
  const core::Wavm3Model model = make_model();
  IncrementalExtractor ex(MigrationType::kLive, HostRole::kSource);
  ex.push(sample(0.0, MigrationPhase::kTransfer));
  ex.push(sample(1.0, MigrationPhase::kTransfer));
  const RoleForecast fc = predict_role(model, ex, PhasePrior{});
  EXPECT_EQ(fc.remaining_j, 0.0);
  EXPECT_EQ(fc.energy_j, fc.observed_model_j);
}

// ------------------------------------------------------------- replay

TEST(Replay, AccuracyCurveReachesBatchParityAtFullObservation) {
  const core::Wavm3Model& model = campaign_model();
  const models::Dataset& dataset = wavm3::testing::fast_campaign_m().dataset;

  const AccuracyCurve curve = accuracy_curve(model, dataset);
  ASSERT_EQ(curve.fractions.size(), 4u);
  ASSERT_EQ(curve.nrmse.size(), 4u);
  EXPECT_GT(curve.observations, 0u);
  EXPECT_LE(curve.parity_max_rel_err, 1e-9);
  for (const double e : curve.nrmse) {
    EXPECT_TRUE(std::isfinite(e));
    EXPECT_GE(e, 0.0);
  }

  const models::MigrationObservation& obs = live_source_obs();
  const ObservationReplay replay = replay_observation(model, obs);
  ASSERT_EQ(replay.points.size(), 4u);
  const ReplayPoint& full = replay.points.back();
  EXPECT_EQ(full.fraction, 1.0);
  EXPECT_EQ(full.samples, obs.samples.size());
  EXPECT_EQ(full.remaining_j, 0.0);
  EXPECT_EQ(full.mean_confidence, 1.0);
  EXPECT_LE(std::abs(full.forecast_j - replay.batch_predict_j),
            1e-9 * std::max(1.0, std::abs(replay.batch_predict_j)));
  EXPECT_EQ(replay.observed_j, obs.observed_energy());
}

// ----------------------------------------------------------- sessions

TEST(SessionRegistry, TypedErrorsOnDuplicateUnknownAndLimit) {
  RegistryConfig cfg;
  cfg.max_sessions = 2;
  cfg.evict_on_full = false;
  SessionRegistry reg(cfg);

  reg.open(1, SessionOptions{});
  try {
    reg.open(1, SessionOptions{});
    FAIL() << "expected StreamError(kDuplicateSession)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamErrorCode::kDuplicateSession);
  }
  reg.open(2, SessionOptions{});
  try {
    reg.open(3, SessionOptions{});
    FAIL() << "expected StreamError(kSessionLimit)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamErrorCode::kSessionLimit);
  }
  try {
    reg.submit(99, HostRole::kSource, sample(0.0, MigrationPhase::kInitiation));
    FAIL() << "expected StreamError(kUnknownSession)";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.code(), StreamErrorCode::kUnknownSession);
  }
  // Closing frees a slot.
  reg.close(1);
  reg.open(3, SessionOptions{});
  EXPECT_EQ(reg.active(), 2u);
  EXPECT_EQ(reg.evictions(), 0u);
}

TEST(SessionRegistry, EvictsLeastRecentlyUpdatedWhenFull) {
  RegistryConfig cfg;
  cfg.max_sessions = 2;
  cfg.evict_on_full = true;
  SessionRegistry reg(cfg);

  reg.open(1, SessionOptions{});
  reg.open(2, SessionOptions{});
  // Touch 1 so 2 becomes the stalest.
  reg.submit(1, HostRole::kSource, sample(0.0, MigrationPhase::kInitiation));
  reg.open(3, SessionOptions{});
  EXPECT_EQ(reg.active(), 2u);
  EXPECT_EQ(reg.evictions(), 1u);
  EXPECT_EQ(reg.opened(), 3u);
  EXPECT_NO_THROW(reg.find(1));
  EXPECT_NO_THROW(reg.find(3));
  EXPECT_THROW(reg.find(2), StreamError);
}

TEST(SessionRegistry, CloseSummarisesTheSession) {
  const core::Wavm3Model model = make_model();
  SessionRegistry reg;
  SessionOptions opt;
  opt.type = MigrationType::kLive;
  reg.open(5, opt);
  for (double t = 0.0; t <= 3.0; t += 1.0) {
    reg.submit(5, HostRole::kSource, sample(t, MigrationPhase::kTransfer, 100.0));
    reg.submit(5, HostRole::kTarget, sample(t, MigrationPhase::kTransfer, 50.0));
  }
  (void)reg.predict(5, model);
  (void)reg.predict(5, model);
  EXPECT_EQ(reg.samples_total(), 8u);

  const std::shared_ptr<StreamSession> closed = reg.close(5);
  ASSERT_NE(closed, nullptr);
  const SessionSummary summary = closed->summary();
  EXPECT_EQ(summary.id, 5u);
  EXPECT_EQ(summary.source_samples, 4u);
  EXPECT_EQ(summary.target_samples, 4u);
  EXPECT_EQ(summary.revisions, 2u);
  EXPECT_TRUE(summary.finished);
  EXPECT_EQ(summary.duration_s, 3.0);
  EXPECT_EQ(summary.observed_source_j, 300.0);  // 100 W for 3 s
  EXPECT_EQ(summary.observed_target_j, 150.0);
  EXPECT_EQ(reg.active(), 0u);
  EXPECT_THROW(reg.close(5), StreamError);
}

TEST(SessionRegistry, DegenerationAlertFiresOnceAndLatches) {
  const core::Wavm3Model model = make_model();
  SessionRegistry reg;
  SessionOptions opt;
  opt.type = MigrationType::kLive;
  opt.baseline_total_j = 1.0;  // any observed energy blows past 1.5x this
  reg.open(11, opt);
  reg.submit(11, HostRole::kSource, sample(0.0, MigrationPhase::kTransfer));
  reg.submit(11, HostRole::kSource, sample(2.0, MigrationPhase::kTransfer));

  const LiveForecast first = reg.predict(11, model);
  EXPECT_TRUE(first.degenerated);
  ASSERT_TRUE(first.alert.has_value());
  const DegenerationAlert& alert = *first.alert;
  EXPECT_EQ(alert.session, 11u);
  EXPECT_EQ(alert.baseline_j, 1.0);
  EXPECT_EQ(alert.revised_j, first.total_j());
  EXPECT_GT(alert.revised_j, alert.baseline_j);
  EXPECT_FALSE(alert.reason.empty());

  // Latched: still degenerated, but the alert rode out exactly once.
  const LiveForecast second = reg.predict(11, model);
  EXPECT_TRUE(second.degenerated);
  EXPECT_FALSE(second.alert.has_value());
  EXPECT_TRUE(reg.find(11)->summary().degenerated);
}

// ------------------------------------------------- serve integration

core::MigrationScenario serve_scenario() {
  core::MigrationScenario sc;
  sc.type = MigrationType::kLive;
  sc.vm_mem_bytes = 4.0 * 1024.0 * 1024.0 * 1024.0;
  sc.vm_cpu_vcpus = 2.0;
  const double mem_pages = sc.vm_mem_bytes / 4096.0;
  sc.vm_working_set_pages = mem_pages * 0.25;
  sc.vm_dirty_pages_per_s = sc.vm_working_set_pages * 0.05;
  sc.source_cpu_load = 4.0;
  sc.target_cpu_load = 2.0;
  return sc;
}

void feed_session(serve::PredictionService& service, std::uint64_t id) {
  for (const HostRole role : {HostRole::kSource, HostRole::kTarget}) {
    service.submit_sample(id, role, sample(0.0, MigrationPhase::kInitiation));
    service.submit_sample(id, role, sample(0.5, MigrationPhase::kInitiation));
    for (double t = 1.0; t <= 4.5; t += 0.5) {
      service.submit_sample(id, role, sample(t, MigrationPhase::kTransfer));
    }
    service.submit_sample(id, role, sample(5.0, MigrationPhase::kActivation));
    service.submit_sample(id, role, sample(5.5, MigrationPhase::kActivation));
  }
}

TEST(ServeStreaming, EndToEndFeedbackAndMetrics) {
  const core::Wavm3Model model = make_model();
  serve::ServiceConfig cfg;
  cfg.threads = 2;
  serve::PredictionService service(model, cfg);

  std::atomic<int> feedback{0};
  service.set_feedback_sink(
      [&](const core::MigrationScenario&, const serve::MigrationFeedback& fb) {
        EXPECT_GT(fb.duration_s, 0.0);
        EXPECT_GT(fb.source_energy_j, 0.0);
        feedback.fetch_add(1, std::memory_order_relaxed);
      });

  service.open_stream(7, serve_scenario());
  EXPECT_THROW(service.open_stream(7, serve_scenario()), StreamError);
  feed_session(service, 7);

  const LiveForecast inline_fc = service.predict_live(7);
  EXPECT_EQ(inline_fc.revision, 1u);
  EXPECT_GT(inline_fc.total_j(), 0.0);
  // Revisions run from any thread against the same session.
  LiveForecast pooled_fc;
  std::thread([&] { pooled_fc = service.predict_live(7); }).join();
  EXPECT_EQ(pooled_fc.revision, 2u);
  EXPECT_GT(pooled_fc.total_j(), 0.0);

  const std::string prom = service.metrics_prometheus();
  EXPECT_NE(prom.find("stream_sessions_active"), std::string::npos);
  EXPECT_NE(prom.find("stream_samples_total"), std::string::npos);
  EXPECT_NE(prom.find("stream_revision_delta_watts"), std::string::npos);

  const serve::PredictionService::StreamCloseReport report = service.close_stream(7);
  EXPECT_TRUE(report.summary.finished);
  EXPECT_EQ(report.summary.source_samples, 12u);
  EXPECT_TRUE(report.feedback_recorded);  // scenario known, duration observed
  EXPECT_EQ(service.stream_registry().active(), 0u);
  EXPECT_THROW(service.predict_live(7), StreamError);

  // The feedback sample lands on a worker thread.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (feedback.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(feedback.load(), 1);

  // A session opened from announced timestamps (no scenario) converts
  // to no feedback on close.
  migration::PhaseTimestamps times;
  times.ms = 0.0;
  times.ts = 1.0;
  times.te = 5.0;
  times.me = 6.0;
  service.open_stream(8, MigrationType::kLive, times);
  feed_session(service, 8);
  const serve::PredictionService::StreamCloseReport quiet = service.close_stream(8);
  EXPECT_TRUE(quiet.summary.finished);
  EXPECT_FALSE(quiet.feedback_recorded);
  EXPECT_EQ(feedback.load(), 1);
}

// ------------------------------------------------------- TSan hammer

TEST(SessionRegistry, ManyThreadHammerStaysConsistent) {
  const core::Wavm3Model model = make_model();
  RegistryConfig cfg;
  cfg.max_sessions = 8;
  cfg.evict_on_full = true;
  SessionRegistry reg(cfg);

  std::atomic<int> alerts{0};

  constexpr int kThreads = 10;  // >= 8 per the TSan gate
  constexpr int kIters = 150;
  constexpr std::uint64_t kIds = 16;
  std::atomic<std::uint64_t> accepted{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(w * 31 + i) % kIds;
        SessionOptions opt;
        opt.type = MigrationType::kLive;
        opt.baseline_total_j = 1.0;  // degeneration trips constantly
        try {
          reg.open(id, opt);
        } catch (const StreamError&) {
        }
        const HostRole role = (w + i) % 2 == 0 ? HostRole::kSource : HostRole::kTarget;
        try {
          reg.submit(id, role, sample(0.5 * i, MigrationPhase::kTransfer));
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const StreamError&) {
        } catch (const util::ContractError&) {
          // Interleaved writers make timestamps non-monotonic per
          // session; the reject path is part of what we hammer.
        }
        try {
          if (reg.predict(id, model).alert.has_value()) {
            alerts.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const StreamError&) {
        } catch (const util::ContractError&) {
        }
        if (i % 7 == 0) {
          try {
            (void)reg.close(id);
          } catch (const StreamError&) {
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_LE(reg.active(), cfg.max_sessions);
  EXPECT_GT(reg.opened(), 0u);
  // Every accepted sample was counted exactly once.
  EXPECT_EQ(reg.samples_total(), accepted.load());
  // Every alert came from a session tripping its policy, at most once
  // per open; and the registry still alerts after the race: a session
  // that blows its baseline raises exactly one alert.
  EXPECT_LE(static_cast<std::uint64_t>(alerts.load()), reg.opened());
  SessionOptions opt;
  opt.type = MigrationType::kLive;
  opt.baseline_total_j = 1.0;
  reg.open(1000, opt);
  reg.submit(1000, HostRole::kSource, sample(0.0, MigrationPhase::kTransfer));
  reg.submit(1000, HostRole::kSource, sample(2.0, MigrationPhase::kTransfer));
  const LiveForecast fc = reg.predict(1000, model);
  EXPECT_TRUE(fc.degenerated);
  EXPECT_TRUE(fc.alert.has_value());
  EXPECT_FALSE(reg.predict(1000, model).alert.has_value());
}

}  // namespace
}  // namespace wavm3::stream
