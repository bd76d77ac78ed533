// Tests for src/calib/: FeedbackBuffer window semantics (validation,
// FIFO eviction, post-copy folding, compaction), DriftDetector trip /
// no-trip behaviour incl. the paper-style intercept-bias test, and the
// OnlineRecalibrator loop — drift -> refit -> shadow-gated swap,
// worse-candidate rejection, post-swap rollback with cooldown, the
// service attach() wiring, and a concurrent feedback + swap hammer
// written to run meaningfully under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "calib/drift.hpp"
#include "calib/feedback_buffer.hpp"
#include "calib/recalibrator.hpp"
#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "serve/coeff_store.hpp"
#include "serve/service.hpp"
#include "util/units.hpp"

namespace wavm3::calib {
namespace {

using migration::MigrationType;
using models::HostRole;

/// A fitted model from synthetic coefficient tables; `scale` perturbs
/// every coefficient so two models give different predictions.
core::Wavm3Model make_model(double scale = 1.0) {
  core::Wavm3Model m;
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const double t = type == MigrationType::kLive ? 1.0 : 0.7;
    core::Wavm3Coefficients table;
    table.source.initiation = {2.1 * scale * t, 1.3 * scale, 0.0, 0.0, 210.0 * scale};
    table.source.transfer = {2.4 * scale * t, 1.1e-7 * scale, 55.0 * scale, 1.9 * scale,
                             205.0 * scale};
    table.source.activation = {2.2 * scale * t, 1.2 * scale, 0.0, 0.0, 208.0 * scale};
    table.target.initiation = {1.9 * scale * t, 0.8 * scale, 0.0, 0.0, 200.0 * scale};
    table.target.transfer = {2.0 * scale * t, 0.9e-7 * scale, 12.0 * scale, 0.7 * scale,
                             198.0 * scale};
    table.target.activation = {2.1 * scale * t, 1.0 * scale, 0.0, 0.0, 202.0 * scale};
    m.set_coefficients(type, table);
  }
  return m;
}

/// A deterministic scenario family indexed by `i`.
core::MigrationScenario make_scenario(int i) {
  core::MigrationScenario sc;
  sc.type = i % 3 == 0 ? MigrationType::kNonLive : MigrationType::kLive;
  sc.vm_mem_bytes = util::gib(1.0 + i % 8);
  sc.vm_cpu_vcpus = 1.0 + i % 4;
  const double mem_pages = sc.vm_mem_bytes / util::kPageSize;
  sc.vm_working_set_pages = mem_pages * 0.25;
  sc.vm_dirty_pages_per_s = sc.vm_working_set_pages * (0.05 + 0.09 * (i % 10));
  sc.source_cpu_load = 2.0 + i % 20;
  sc.target_cpu_load = 1.0 + i % 15;
  return sc;
}

/// Ground-truth feedback for a scenario: the `truth` model's forecast
/// plus a constant extra power draw on both hosts (the C1->C2-style
/// idle-power bias the loop must recover).
serve::MigrationFeedback feedback_from(const core::Wavm3Model& truth,
                                       const core::MigrationScenario& sc,
                                       double extra_watts = 0.0) {
  const core::MigrationForecast fc = core::MigrationPlanner(truth).forecast(sc);
  const double dur = fc.times.me - fc.times.ms;
  serve::MigrationFeedback fb;
  fb.source_energy_j = fc.source_energy + extra_watts * dur;
  fb.target_energy_j = fc.target_energy + extra_watts * dur;
  fb.duration_s = dur;
  return fb;
}

RecalibratorConfig test_config() {
  RecalibratorConfig cfg;
  cfg.window_capacity = 128;
  cfg.drift.min_samples = 24;
  cfg.pass_interval_samples = 0;  // passes run only when the test says so
  cfg.rollback_min_samples = 16;
  cfg.cooldown_samples = 64;
  return cfg;
}

// ------------------------------------------------------- FeedbackBuffer

TEST(FeedbackBuffer, RejectsCorruptSamples) {
  FeedbackBuffer buf(8);
  const core::MigrationScenario sc = make_scenario(1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(buf.push(sc, nan, 100.0, 10.0).has_value());
  EXPECT_FALSE(buf.push(sc, 100.0, nan, 10.0).has_value());
  EXPECT_FALSE(buf.push(sc, 100.0, 100.0, 0.0).has_value());
  EXPECT_FALSE(buf.push(sc, 100.0, 100.0, -1.0).has_value());
  EXPECT_FALSE(buf.push(sc, 100.0, 100.0, nan).has_value());
  EXPECT_EQ(buf.total_ingested(), 0u);
  EXPECT_EQ(buf.last_seq(), 0u);  // no sequence spent on a rejected sample
  EXPECT_TRUE(buf.window(1, HostRole::kSource).empty());
}

TEST(FeedbackBuffer, EvictionIsFifoAndBoundedByCapacity) {
  FeedbackBuffer buf(8);
  core::MigrationScenario sc = make_scenario(1);
  sc.type = MigrationType::kLive;
  for (int i = 1; i <= 20; ++i) {
    const auto seq = buf.push(sc, 1000.0 + i, 2000.0 + i, 30.0);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(*seq, static_cast<std::uint64_t>(i));
  }
  const FeedbackBuffer::Window w = buf.window(1, HostRole::kSource);
  ASSERT_EQ(w.size(), 8u);  // oldest 12 evicted
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w.seq[i], 13u + i);  // oldest-first, FIFO order
    EXPECT_DOUBLE_EQ(w.observed_energy[i], 1000.0 + 13.0 + static_cast<double>(i));
  }
  const FeedbackBuffer::Window wt = buf.window(1, HostRole::kTarget);
  ASSERT_EQ(wt.size(), 8u);
  EXPECT_DOUBLE_EQ(wt.observed_energy[0], 2000.0 + 13.0);
}

TEST(FeedbackBuffer, CompactionPreservesWindowContents) {
  // Push far past capacity so the start-offset compaction runs several
  // times; the window must always hold exactly the freshest rows.
  FeedbackBuffer buf(16);
  core::MigrationScenario sc = make_scenario(2);
  sc.type = MigrationType::kLive;
  for (int i = 1; i <= 100; ++i) ASSERT_TRUE(buf.push(sc, i, i, 1.0).has_value());
  const FeedbackBuffer::Window w = buf.window(1, HostRole::kSource);
  ASSERT_EQ(w.size(), 16u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_DOUBLE_EQ(w.observed_energy[i], 85.0 + static_cast<double>(i));
  }
}

TEST(FeedbackBuffer, PostCopyFoldsIntoLiveSlice) {
  FeedbackBuffer buf(8);
  core::MigrationScenario sc = make_scenario(1);
  sc.type = MigrationType::kPostCopy;
  ASSERT_TRUE(buf.push(sc, 10.0, 20.0, 5.0).has_value());
  EXPECT_EQ(buf.window(1, HostRole::kSource).size(), 1u);  // live slice absorbed it
  EXPECT_EQ(buf.window(0, HostRole::kSource).size(), 0u);
  EXPECT_EQ(FeedbackBuffer::type_slice(MigrationType::kPostCopy),
            FeedbackBuffer::type_slice(MigrationType::kLive));
}

// -------------------------------------------------------- DriftDetector

TEST(DriftDetector, NeverTripsBelowMinSamples) {
  DriftConfig cfg;
  cfg.min_samples = 32;
  const DriftDetector det(cfg);
  const std::vector<double> pred(8, 100.0);
  const std::vector<double> obs(8, 900.0);  // wildly wrong, but only 8 samples
  const std::vector<double> dur(8, 10.0);
  const DriftReport r = det.assess(pred, obs, dur);
  EXPECT_FALSE(r.drifted);
  EXPECT_EQ(r.samples, 8u);
}

TEST(DriftDetector, AccuratePredictionsDoNotTrip) {
  const DriftDetector det(DriftConfig{0.15, 5.0, 16});
  std::vector<double> pred;
  std::vector<double> obs;
  std::vector<double> dur;
  for (int i = 0; i < 32; ++i) {
    pred.push_back(1000.0 + 37.0 * i);
    obs.push_back(pred.back() * (i % 2 == 0 ? 1.01 : 0.99));  // 1% noise
    dur.push_back(20.0 + i);
  }
  const DriftReport r = det.assess(pred, obs, dur);
  EXPECT_FALSE(r.drifted);
  ASSERT_TRUE(r.nrmse.has_value());
  EXPECT_LT(*r.nrmse, 0.05);
}

TEST(DriftDetector, NrmseTripOnMultiplicativeShift) {
  const DriftDetector det(DriftConfig{0.15, 5.0, 16});
  std::vector<double> pred;
  std::vector<double> obs;
  std::vector<double> dur;
  for (int i = 0; i < 32; ++i) {
    pred.push_back(1000.0 + 37.0 * i);
    obs.push_back(pred.back() * 1.5);
    dur.push_back(20.0 + i);
  }
  const DriftReport r = det.assess(pred, obs, dur);
  EXPECT_TRUE(r.drifted);
  EXPECT_TRUE(r.nrmse_tripped);
}

TEST(DriftDetector, InterceptBiasTripsEvenWhenNrmseIsQuiet) {
  // A 10 W constant offset on ~50 kJ migrations: relative error ~2%,
  // far under the NRMSE threshold, but exactly the C1->C2 idle-power
  // bias the paper corrects — the bias test must catch it.
  const DriftDetector det(DriftConfig{0.15, 5.0, 16});
  std::vector<double> pred;
  std::vector<double> obs;
  std::vector<double> dur;
  for (int i = 0; i < 32; ++i) {
    dur.push_back(90.0 + i);
    pred.push_back(500.0 * dur.back());
    obs.push_back(pred.back() + 10.0 * dur.back());
  }
  const DriftReport r = det.assess(pred, obs, dur);
  EXPECT_TRUE(r.drifted);
  EXPECT_TRUE(r.bias_tripped);
  EXPECT_FALSE(r.nrmse_tripped);
  EXPECT_NEAR(r.bias_watts, 10.0, 1e-9);
}

TEST(DriftDetector, DegenerateWindowDoesNotAbort) {
  // All-zero observations make the NRMSE normaliser zero — the
  // pre-fix stats::nrmse would have thrown; the detector must simply
  // report "no NRMSE evidence" and still run the bias test.
  const DriftDetector det(DriftConfig{0.15, 5.0, 4});
  const std::vector<double> pred(8, 120.0);
  const std::vector<double> obs(8, 0.0);
  const std::vector<double> dur(8, 10.0);
  DriftReport r;
  ASSERT_NO_THROW(r = det.assess(pred, obs, dur));
  EXPECT_FALSE(r.nrmse.has_value());
  EXPECT_TRUE(r.bias_tripped);  // -12 W bias is real evidence
  EXPECT_TRUE(r.drifted);
}

// ----------------------------------------------------- OnlineRecalibrator

TEST(OnlineRecalibrator, RecoversInjectedBiasShift) {
  const core::Wavm3Model incumbent = make_model();
  serve::CoefficientStore store(incumbent);
  OnlineRecalibrator rec(store, test_config());

  // The workload's true draw is the incumbent plus a constant 18 W on
  // both hosts (timings are coefficient-independent, so this is an
  // exactly recoverable gain=1/offset=18 correction).
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(rec.record(make_scenario(i), feedback_from(incumbent, make_scenario(i), 18.0)));
  }
  const std::uint64_t v0 = store.version();
  const PassReport report = rec.run_pass();
  EXPECT_TRUE(report.swapped);
  EXPECT_GT(store.version(), v0);
  const RecalibrationStats s = rec.stats();
  EXPECT_GE(s.drift_trips, 1u);
  EXPECT_GE(s.refits, 1u);
  EXPECT_EQ(s.swaps, 1u);
  EXPECT_EQ(s.rollbacks, 0u);

  // The published candidate must track the shifted truth much more
  // closely than the stale incumbent did.
  const auto snap = store.snapshot();
  const core::MigrationPlanner cand(*snap.model);
  const core::MigrationPlanner stale(incumbent);
  for (int i = 200; i < 210; ++i) {
    const core::MigrationScenario sc = make_scenario(i);
    const serve::MigrationFeedback truth = feedback_from(incumbent, sc, 18.0);
    const double cand_err = std::abs(cand.forecast(sc).source_energy - truth.source_energy_j);
    const double stale_err =
        std::abs(stale.forecast(sc).source_energy - truth.source_energy_j);
    EXPECT_LT(cand_err, stale_err * 0.2);
  }
}

TEST(OnlineRecalibrator, WorseCandidateIsNeverPublished) {
  const core::Wavm3Model incumbent = make_model();
  serve::CoefficientStore store(incumbent);
  OnlineRecalibrator rec(store, test_config());

  // Alternating +/-25% multiplicative noise around the incumbent's own
  // predictions: NRMSE trips drift, but there is no systematic gain or
  // offset to exploit, so every candidate must lose the shadow eval.
  for (int i = 0; i < 120; ++i) {
    const core::MigrationScenario sc = make_scenario(i);
    const core::MigrationForecast fc = core::MigrationPlanner(incumbent).forecast(sc);
    const double wobble = i % 2 == 0 ? 1.25 : 0.75;
    serve::MigrationFeedback fb;
    fb.source_energy_j = fc.source_energy * wobble;
    fb.target_energy_j = fc.target_energy * wobble;
    fb.duration_s = fc.times.me - fc.times.ms;
    ASSERT_TRUE(rec.record(sc, fb));
  }
  const std::uint64_t v0 = store.version();
  const PassReport report = rec.run_pass();
  EXPECT_FALSE(report.swapped);
  EXPECT_EQ(store.version(), v0);  // the incumbent stayed live
  const RecalibrationStats s = rec.stats();
  EXPECT_GE(s.drift_trips, 1u);
  EXPECT_EQ(s.swaps, 0u);
  EXPECT_GE(s.candidates_rejected, 1u);
}

TEST(OnlineRecalibrator, RollsBackWhenPostSwapFeedbackRegresses) {
  const core::Wavm3Model incumbent = make_model();
  serve::CoefficientStore store(incumbent);
  OnlineRecalibrator rec(store, test_config());

  // Phase 1: a 30 W bias shift; the loop should publish a correction.
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(rec.record(make_scenario(i), feedback_from(incumbent, make_scenario(i), 30.0)));
  }
  const PassReport swap_report = rec.run_pass();
  ASSERT_TRUE(swap_report.swapped);
  const std::uint64_t swapped_version = store.version();

  // Too little post-swap evidence: the watch holds further refits.
  for (int i = 120; i < 125; ++i) {
    ASSERT_TRUE(rec.record(make_scenario(i), feedback_from(incumbent, make_scenario(i), 0.0)));
  }
  const PassReport waiting = rec.run_pass();
  EXPECT_TRUE(waiting.waiting_confirmation);
  EXPECT_FALSE(waiting.swapped);
  EXPECT_EQ(store.version(), swapped_version);

  // Phase 2: the bias vanishes (truth reverts to the incumbent), so
  // the published candidate now regresses badly on fresh feedback.
  for (int i = 125; i < 170; ++i) {
    ASSERT_TRUE(rec.record(make_scenario(i), feedback_from(incumbent, make_scenario(i), 0.0)));
  }
  const PassReport rollback_report = rec.run_pass();
  EXPECT_TRUE(rollback_report.rolled_back);
  EXPECT_EQ(rec.stats().rollbacks, 1u);
  EXPECT_GT(store.version(), swapped_version);  // the revert is itself a publish

  // The reverted model must predict exactly like the original incumbent.
  const auto snap = store.snapshot();
  const core::MigrationScenario probe = make_scenario(7);
  EXPECT_DOUBLE_EQ(core::MigrationPlanner(*snap.model).forecast(probe).source_energy,
                   core::MigrationPlanner(incumbent).forecast(probe).source_energy);

  // And the loop sits out its cooldown instead of flapping.
  const PassReport cooled = rec.run_pass();
  EXPECT_TRUE(cooled.cooldown);
  EXPECT_FALSE(cooled.swapped);
}

TEST(OnlineRecalibrator, ExternalPublishDisarmsTheWatch) {
  const core::Wavm3Model incumbent = make_model();
  serve::CoefficientStore store(incumbent);
  OnlineRecalibrator rec(store, test_config());
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(rec.record(make_scenario(i), feedback_from(incumbent, make_scenario(i), 30.0)));
  }
  ASSERT_TRUE(rec.run_pass().swapped);
  // An operator reload supersedes the candidate: the watch is moot and
  // must never roll back over the operator's coefficients.
  store.swap(std::make_shared<const core::Wavm3Model>(make_model(1.3)));
  const std::uint64_t operator_version = store.version();
  for (int i = 120; i < 170; ++i) {
    ASSERT_TRUE(rec.record(make_scenario(i), feedback_from(incumbent, make_scenario(i), 0.0)));
  }
  const PassReport report = rec.run_pass();
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(rec.stats().rollbacks, 0u);
  EXPECT_GE(store.version(), operator_version);
}

TEST(OnlineRecalibrator, AttachWiresServiceFeedbackEndToEnd) {
  serve::ServiceConfig scfg;
  scfg.threads = 2;
  scfg.cache_capacity = 0;
  serve::PredictionService service(make_model(), scfg);
  RecalibratorConfig cfg = test_config();
  cfg.pass_interval_samples = 32;  // passes fire from the sink cadence
  const std::shared_ptr<OnlineRecalibrator> rec = attach(service, cfg);

  const core::Wavm3Model incumbent = make_model();
  const std::uint64_t v0 = service.model_version();
  for (int i = 0; i < 150; ++i) {
    EXPECT_TRUE(service.record_feedback(make_scenario(i),
                                        feedback_from(incumbent, make_scenario(i), 25.0)));
  }
  service.shutdown(serve::DrainMode::kDrain);  // all queued sink jobs ran
  EXPECT_EQ(rec->stats().samples_accepted, 150u);
  EXPECT_GE(rec->stats().swaps, 1u);
  EXPECT_GT(service.model_version(), v0);
  // calib metrics surface through the service's registry exports.
  EXPECT_NE(service.metrics_prometheus().find("calib_swaps_total"), std::string::npos);
}

TEST(OnlineRecalibrator, ConcurrentFeedbackAndSwapsAreClean) {
  // TSan target: feedback from many threads (with inline cadence
  // passes) racing operator swaps and snapshot readers.
  const core::Wavm3Model incumbent = make_model();
  serve::CoefficientStore store(incumbent);
  RecalibratorConfig cfg = test_config();
  cfg.pass_interval_samples = 16;
  OnlineRecalibrator rec(store, cfg);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const core::MigrationScenario sc = make_scenario(t * kPerThread + i);
        rec.record(sc, feedback_from(incumbent, sc, 20.0));
      }
    });
  }
  std::thread publisher([&] {
    for (int i = 0; i < 20; ++i) {
      store.swap(std::make_shared<const core::Wavm3Model>(make_model(1.0 + 0.01 * i)));
      const auto snap = store.snapshot();
      (void)core::MigrationPlanner(*snap.model).forecast(make_scenario(i));
      std::this_thread::yield();
    }
  });
  for (auto& w : writers) w.join();
  publisher.join();
  EXPECT_EQ(rec.buffer().total_ingested(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.stats().samples_accepted, static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace wavm3::calib
