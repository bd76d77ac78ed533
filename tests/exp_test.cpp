// Integration tests for the experiment layer: testbeds, scenario
// generation, the SV-B run protocol, campaign assembly, determinism,
// figure/table rendering, and the paper's qualitative trace shapes.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "cloud/instances.hpp"
#include "exp/campaign.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/tables.hpp"
#include "exp/testbeds.hpp"
#include "models/huang.hpp"
#include "power/stabilization.hpp"
#include "util/error.hpp"
#include "test_helpers.hpp"

namespace wavm3::exp {
namespace {

using migration::MigrationPhase;
using migration::MigrationType;
using models::HostRole;

TEST(Testbeds, MatchTableIIc) {
  const Testbed m = testbed_m();
  EXPECT_EQ(m.host_a.name, "m01");
  EXPECT_EQ(m.host_b.name, "m02");
  EXPECT_EQ(m.host_a.vcpus, 32);
  const Testbed o = testbed_o();
  EXPECT_EQ(o.host_a.vcpus, 40);
  // Newer Xeons idle far lower than the Opterons: the SVI-F bias source.
  EXPECT_GT(m.power.idle_watts, o.power.idle_watts + 200.0);
  EXPECT_DOUBLE_EQ(m.link.wire_rate, 125e6);
  // Each pair is architecture-homogeneous (Xen requirement, paper SI)...
  EXPECT_EQ(m.host_a.cpu_architecture, m.host_b.cpu_architecture);
  EXPECT_EQ(o.host_a.cpu_architecture, o.host_b.cpu_architecture);
  // ...but the two pairs differ, so m<->o migration is illegal.
  EXPECT_NE(m.host_a.cpu_architecture, o.host_a.cpu_architecture);
}

TEST(Testbeds, CrossPairMigrationRejected) {
  // A hypothetical m01 -> o1 migration must be refused like Xen would.
  sim::Simulator sim;
  cloud::DataCenter dc;
  dc.add_host(testbed_m().host_a);
  dc.add_host(testbed_o().host_a);
  dc.network().connect("m01", "o1", testbed_m().link);
  dc.host("m01")->add_vm(cloud::make_migrating_cpu_vm("mv"));
  migration::MigrationEngine engine(sim, dc, net::BandwidthModel{});
  EXPECT_THROW(engine.migrate("mv", "m01", "o1", MigrationType::kLive),
               util::ContractError);
}

TEST(Scenarios, FullDesignHas42Entries) {
  const auto all = all_scenarios();
  EXPECT_EQ(all.size(), 42u);  // 12+12+6+6+6
  std::set<std::string> names;
  for (const auto& sc : all) names.insert(sc.name);
  EXPECT_EQ(names.size(), all.size()) << "scenario names must be unique";
}

TEST(Scenarios, FamiliesFollowTableIIa) {
  for (const auto& sc : cpuload_source_scenarios()) {
    EXPECT_EQ(sc.target_load_vms, 0);
    EXPECT_EQ(sc.migrating, MigratingKind::kCpu);
  }
  for (const auto& sc : memload_vm_scenarios()) {
    EXPECT_EQ(sc.type, MigrationType::kLive);  // DR=0 under non-live
    EXPECT_EQ(sc.source_load_vms, 0);
    EXPECT_EQ(sc.migrating, MigratingKind::kMem);
  }
  for (const auto& sc : memload_source_scenarios()) {
    EXPECT_DOUBLE_EQ(sc.mem_fraction, 0.95);
    EXPECT_EQ(sc.type, MigrationType::kLive);
  }
  EXPECT_EQ(cpu_sweep_vm_counts(), (std::vector<int>{0, 1, 3, 5, 7, 8}));
  EXPECT_EQ(mem_sweep_fractions().size(), 6u);
}

TEST(Runner, IdlePowerMeasurementNearGroundTruth) {
  ExperimentRunner runner(testbed_m(), RunnerOptions{}, 7);
  const double idle = runner.measure_idle_power(20.0);
  // Idle host: base draw + dom-0 housekeeping only.
  EXPECT_NEAR(idle, 433.0, 4.0);
}

TEST(Runner, SingleRunFollowsProtocol) {
  ExperimentRunner runner(testbed_m(), RunnerOptions{}, 11);
  runner.set_idle_power_reference(433.0);
  ScenarioConfig sc = cpuload_source_scenarios().front();  // 0vm non-live
  const RunResult run = runner.run(sc, 0);

  EXPECT_EQ(run.record.outcome, migration::MigrationOutcome::kCompleted);
  EXPECT_TRUE(run.record.times.well_formed());
  // Migration was not issued before the warm-up window.
  EXPECT_GE(run.record.times.ms, runner.options().min_warmup);
  // The pre-migration trace had stabilised when the migration fired.
  const power::PowerTrace pre = run.source_trace.slice(0.0, run.record.times.ms);
  EXPECT_TRUE(power::is_stabilized(pre, runner.options().stabilization));
  // Sampling continued past the end of the migration.
  EXPECT_GT(run.source_trace.end_time(), run.record.times.me + 5.0);
  EXPECT_EQ(run.source_trace.size(), run.target_trace.size());
}

TEST(Runner, ObservationsAreRoleAwareAndPhaseLabelled) {
  ExperimentRunner runner(testbed_m(), RunnerOptions{}, 13);
  runner.set_idle_power_reference(433.0);
  // A live memory-intensive migration: DR on source only.
  ScenarioConfig sc = memload_vm_scenarios().back();  // 95%
  const RunResult run = runner.run(sc, 0);

  EXPECT_EQ(run.source_obs.role, HostRole::kSource);
  EXPECT_EQ(run.target_obs.role, HostRole::kTarget);
  EXPECT_EQ(run.source_obs.samples.size(), run.target_obs.samples.size());

  bool src_dr_seen = false;
  for (const auto& s : run.source_obs.samples) {
    EXPECT_NE(s.phase, MigrationPhase::kNormal);
    EXPECT_GE(s.time, run.record.times.ms);
    EXPECT_LE(s.time, run.record.times.me);
    if (s.dirty_ratio > 0.0) {
      src_dr_seen = true;
      EXPECT_EQ(s.phase, MigrationPhase::kTransfer);
    }
  }
  EXPECT_TRUE(src_dr_seen);
  for (const auto& s : run.target_obs.samples) EXPECT_DOUBLE_EQ(s.dirty_ratio, 0.0);

  EXPECT_DOUBLE_EQ(run.source_obs.data_bytes, run.record.total_bytes);
  EXPECT_GT(run.source_obs.avg_bandwidth, 1e6);
  EXPECT_DOUBLE_EQ(run.source_obs.idle_power_watts, 433.0);
}

TEST(Runner, FeatureTraceCoversWholeRun) {
  ExperimentRunner runner(testbed_m(), RunnerOptions{}, 17);
  runner.set_idle_power_reference(433.0);
  const ScenarioConfig sc = memload_vm_scenarios().front();  // 5%, live
  const RunResult run = runner.run(sc, 0);

  // One feature sample per meter tick, spanning pre- and post-migration.
  EXPECT_EQ(run.features.size(), run.source_trace.size());
  EXPECT_LT(run.features[0].time, run.record.times.ms);
  EXPECT_GT(run.features[run.features.size() - 1].time, run.record.times.me);

  // Phase labels agree with the record's timestamps.
  bool saw_normal = false;
  int transfer_samples = 0;
  double transfer_bandwidth = 0.0;
  double transfer_cpu_source = 0.0;
  for (const auto& f : run.features.samples()) {
    EXPECT_EQ(f.phase, run.record.times.phase_at(f.time));
    saw_normal |= f.phase == MigrationPhase::kNormal;
    if (f.phase == MigrationPhase::kTransfer) {
      ++transfer_samples;
      transfer_bandwidth += f.bandwidth;
      transfer_cpu_source += f.cpu_source;
    }
  }
  EXPECT_TRUE(saw_normal);
  ASSERT_GT(transfer_samples, 0);

  // Transfer-phase means carry the migration signal.
  EXPECT_GT(transfer_bandwidth / transfer_samples, 1e6);
  EXPECT_GT(transfer_cpu_source / transfer_samples, 0.5);
}

TEST(Runner, DeterministicInSeedAndRunIndex) {
  ScenarioConfig sc = cpuload_source_scenarios()[1];
  ExperimentRunner r1(testbed_m(), RunnerOptions{}, 21);
  ExperimentRunner r2(testbed_m(), RunnerOptions{}, 21);
  const RunResult a = r1.run(sc, 3);
  const RunResult b = r2.run(sc, 3);
  EXPECT_DOUBLE_EQ(a.source_obs.observed_energy(), b.source_obs.observed_energy());
  EXPECT_DOUBLE_EQ(a.record.times.te, b.record.times.te);

  const RunResult c = r1.run(sc, 4);  // different run index -> different jitter
  EXPECT_NE(a.source_obs.observed_energy(), c.source_obs.observed_energy());
}

TEST(Campaign, AssemblesDatasetWithBothRoles) {
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  EXPECT_EQ(campaign.testbed_name, "m01-m02");
  EXPECT_GT(campaign.dataset.size(), 0u);
  // Two observations (source+target) per run.
  std::size_t total_runs = 0;
  for (const auto& s : campaign.summaries) total_runs += s.runs;
  EXPECT_EQ(campaign.dataset.size(), 2 * total_runs);
  EXPECT_EQ(campaign.representative.size(), campaign.summaries.size());
  EXPECT_NEAR(campaign.measured_idle_power, 433.0, 4.0);
}

TEST(Campaign, QualitativeShapesMatchPaper) {
  // Use the full paper campaign shapes via the fast campaign's extreme
  // points: more load -> more energy; multiplexing -> longer transfer;
  // higher DR -> longer transfer and larger downtime.
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  const auto find = [&](const std::string& name) -> const ScenarioSummary& {
    for (const auto& s : campaign.summaries)
      if (s.config.name == name) return s;
    throw std::runtime_error("missing summary " + name);
  };

  const auto& src0 = find("CPULOAD-SOURCE/0vm/non-live");
  const auto& src8 = find("CPULOAD-SOURCE/8vm/non-live");
  EXPECT_GT(src8.mean_source_energy, 1.5 * src0.mean_source_energy);
  EXPECT_GT(src8.mean_transfer_duration, 1.3 * src0.mean_transfer_duration);

  const auto& tgt8 = find("CPULOAD-TARGET/8vm/live");
  const auto& tgt0 = find("CPULOAD-TARGET/0vm/live");
  EXPECT_GT(tgt8.mean_target_energy, 1.5 * tgt0.mean_target_energy);

  const auto& mem5 = find("MEMLOAD-VM/5%/live");
  const auto& mem95 = find("MEMLOAD-VM/95%/live");
  EXPECT_GT(mem95.mean_transfer_duration, 1.5 * mem5.mean_transfer_duration);
  EXPECT_GT(mem95.mean_downtime, 2.0 * mem5.mean_downtime);
  EXPECT_GT(mem95.mean_total_bytes, mem5.mean_total_bytes);
}

TEST(Campaign, PhaseEnergiesSumToTotal) {
  // SV-B's four metrics: initiation + transfer + activation must add up
  // to the total migration energy (up to phase-boundary intervals).
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  for (const auto& s : campaign.summaries) {
    const double sum = s.mean_source_phase_energy[0] + s.mean_source_phase_energy[1] +
                       s.mean_source_phase_energy[2];
    EXPECT_NEAR(sum, s.mean_source_energy, 3.0 * 0.5 * 900.0)
        << s.config.name;
    // Transfer dominates every migration in the design.
    EXPECT_GT(s.mean_source_phase_energy[1], s.mean_source_phase_energy[0]);
    EXPECT_GT(s.mean_source_phase_energy[1], s.mean_source_phase_energy[2]);
  }
  const std::string table = render_phase_energy_table(campaign);
  EXPECT_NE(table.find("E_transfer"), std::string::npos);
}

TEST(Campaign, RepetitionProtocolHonoursMinRuns) {
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  for (const auto& s : campaign.summaries) {
    EXPECT_GE(s.runs, 3u);  // fast options: min 3
    EXPECT_LE(s.runs, 3u);
  }
}

TEST(Figures, PowerFigureHasOneSeriesPerLevel) {
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  const FigurePanel panel = make_power_figure(campaign, Family::kCpuLoadSource,
                                              MigrationType::kNonLive, HostRole::kSource);
  EXPECT_EQ(panel.series.size(), 2u);  // fast campaign: 0vm and 8vm
  EXPECT_EQ(panel.series.front().name, "0 VM");
  EXPECT_EQ(panel.series.back().name, "8 VM");
  for (const auto& s : panel.series) EXPECT_GT(s.x.size(), 50u);
  const std::string chart = render_figure(panel);
  EXPECT_NE(chart.find("POWER [W]"), std::string::npos);
  EXPECT_NE(chart.find("legend:"), std::string::npos);
}

TEST(Figures, PhaseAnatomyMarksAllFourInstants) {
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  const RunResult& run = campaign.representative.begin()->second;
  const FigurePanel panel = make_phase_anatomy_figure(run, HostRole::kSource);
  EXPECT_EQ(panel.series.size(), 5u);  // power + ms/ts/te/me markers
  EXPECT_EQ(panel.series[1].name, "ms");
  EXPECT_EQ(panel.series[4].name, "me");
}

TEST(Figures, CsvExportRoundTrips) {
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  const FigurePanel panel = make_power_figure(campaign, Family::kMemLoadVm,
                                              MigrationType::kLive, HostRole::kTarget);
  const std::string path = ::testing::TempDir() + "/wavm3_fig.csv";
  ASSERT_TRUE(export_figure_csv(panel, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[256] = {0};
  ASSERT_NE(std::fgets(header, sizeof(header), f), nullptr);
  std::fclose(f);
  EXPECT_NE(std::string(header).find("time_s"), std::string::npos);
  EXPECT_NE(std::string(header).find("_watts"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tables, StaticTablesRender) {
  const std::string t1 = render_table1_workload_impact();
  EXPECT_NE(t1.find("CPU-intensive"), std::string::npos);
  const std::string t2 = render_table2_setup(testbed_m(), testbed_o());
  EXPECT_NE(t2.find("migrating-mem"), std::string::npos);
  EXPECT_NE(t2.find("m01/m02"), std::string::npos);
  EXPECT_NE(t2.find("pagedirtier"), std::string::npos);
}

TEST(Tables, ModelTablesRender) {
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  const auto [train, test] = campaign.dataset.split_stratified(0.2, 99);
  core::Wavm3Model wavm3;
  wavm3.fit(train);
  models::HuangModel huang;
  huang.fit(train);
  models::LiuModel liu;
  liu.fit(train);
  models::StrunkModel strunk;
  strunk.fit(train);

  const std::string t34 = render_coefficients_table(
      wavm3, MigrationType::kLive, campaign.measured_idle_power, 167.0, "Table IV");
  EXPECT_NE(t34.find("g(t)"), std::string::npos);
  EXPECT_NE(t34.find("Source"), std::string::npos);

  const std::string t3 = render_coefficients_table(
      wavm3, MigrationType::kNonLive, campaign.measured_idle_power, 167.0, "Table III");
  EXPECT_EQ(t3.find("g(t)"), std::string::npos);  // non-live has no DR column

  const std::string t6 = render_table6_baselines(huang, liu, strunk);
  EXPECT_NE(t6.find("STRUNK"), std::string::npos);

  const auto rows = models::evaluate_models({&wavm3, &huang, &liu, &strunk}, test);
  const std::string t7 = render_table7_comparison(rows);
  EXPECT_NE(t7.find("WAVM3"), std::string::npos);
  EXPECT_NE(t7.find("NRMSE (live)"), std::string::npos);

  const std::string t5 = render_table5_nrmse(rows, rows);
  EXPECT_NE(t5.find("Table V"), std::string::npos);

  const std::string summary = render_campaign_summary(campaign);
  EXPECT_NE(summary.find("Campaign summary"), std::string::npos);
}

TEST(Traces, NonLiveSourceDropsAtSuspension) {
  // Fig. 3a behaviour at 0 load: suspending the migrating VM at ms
  // drops the source draw versus the pre-migration plateau.
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  const auto it = campaign.representative.find("CPULOAD-SOURCE/0vm/non-live");
  ASSERT_NE(it, campaign.representative.end());
  const RunResult& run = it->second;
  const double before =
      run.source_trace.mean_power_between(run.record.times.ms - 8.0, run.record.times.ms - 1.0);
  const double during = run.source_trace.mean_power_between(run.record.times.ms + 0.5,
                                                            run.record.times.ts);
  EXPECT_LT(during, before - 10.0);
}

TEST(Traces, TargetRisesAfterMigration) {
  // Fig. 4b behaviour: once the VM runs on the target its draw stays up.
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  const auto it = campaign.representative.find("CPULOAD-TARGET/0vm/live");
  ASSERT_NE(it, campaign.representative.end());
  const RunResult& run = it->second;
  const double before =
      run.target_trace.mean_power_between(run.record.times.ms - 8.0, run.record.times.ms - 1.0);
  const double after = run.target_trace.mean_power_between(run.record.times.me + 2.0,
                                                           run.record.times.me + 10.0);
  EXPECT_GT(after, before + 20.0);
}

TEST(Traces, MultiplexedSourceStaysFlat) {
  // Fig. 3a, 8-VM case: the saturated source's draw barely moves when
  // the migrating VM is suspended.
  const CampaignResult& campaign = wavm3::testing::fast_campaign_m();
  const auto it = campaign.representative.find("CPULOAD-SOURCE/8vm/non-live");
  ASSERT_NE(it, campaign.representative.end());
  const RunResult& run = it->second;
  const double before =
      run.source_trace.mean_power_between(run.record.times.ms - 8.0, run.record.times.ms - 1.0);
  const double during = run.source_trace.mean_power_between(run.record.times.ts + 2.0,
                                                            run.record.times.te - 2.0);
  EXPECT_NEAR(during, before, 35.0);  // flat-ish, vs a ~60 W drop when idle
}

}  // namespace
}  // namespace wavm3::exp
