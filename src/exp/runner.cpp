#include "exp/runner.hpp"

#include <cmath>

#include "cloud/instances.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads/matrixmult.hpp"

namespace wavm3::exp {

namespace {

using migration::MigrationPhase;
using migration::MigrationType;

/// Raw per-tick instrumentation before phase labelling.
struct RawSample {
  double time = 0.0;
  double cpu_source = 0.0;
  double cpu_target = 0.0;
  double vm_cpu_on_source = 0.0;
  double vm_cpu_on_target = 0.0;
  double dirty_ratio = 0.0;
  double bandwidth = 0.0;
};

constexpr const char* kMigratingVmId = "migrating-vm";

}  // namespace

ExperimentRunner::ExperimentRunner(Testbed testbed, RunnerOptions options, std::uint64_t seed)
    : testbed_(std::move(testbed)), options_(options), rng_(seed) {
  WAVM3_REQUIRE(options_.min_warmup > 0.0, "warmup must be positive");
  WAVM3_REQUIRE(options_.max_sim_time > options_.forced_issue_time,
                "watchdog must exceed the forced issue time");
}

double ExperimentRunner::measure_idle_power(double duration) {
  WAVM3_REQUIRE(duration >= 2.0, "idle measurement needs a couple of seconds");
  sim::Simulator sim;
  cloud::DataCenter dc;
  cloud::Host& host = dc.add_host(testbed_.host_a);
  const power::HostPowerModel power_model(testbed_.power);

  power::PowerMeter meter(
      testbed_.host_a.name + "/idle", options_.meter,
      [&](double t) {
        power::HostActivity a;
        a.cpu_used_vcpus = host.cpu_used(t);
        return power_model.true_power(a);
      },
      rng_.stream("idle-meter/" + testbed_.name));
  meter.start(sim, 0.0);
  sim.run_until(duration);
  meter.stop();
  sim.run_to_completion();

  const auto& trace = meter.trace();
  WAVM3_ASSERT(!trace.empty(), "idle measurement produced no samples");
  return trace.mean_power_between(trace.start_time(), trace.end_time());
}

RunResult ExperimentRunner::run(const ScenarioConfig& scenario, int run_index) {
  const std::string run_key =
      testbed_.name + "/" + scenario.name + "/run" + std::to_string(run_index);
  util::RngStream env_rng = rng_.stream("env/" + run_key);

  // --- Per-run environment jitter (SV-B repeats runs precisely because
  // real runs differ like this). ---
  migration::RunJitter jitter;
  jitter.bandwidth_factor = 1.0 + env_rng.uniform(-options_.bandwidth_jitter,
                                                  options_.bandwidth_jitter);
  jitter.initiation_factor = 1.0 + env_rng.uniform(-options_.initiation_jitter,
                                                   options_.initiation_jitter);
  jitter.activation_factor = 1.0 + env_rng.uniform(-options_.activation_jitter,
                                                   options_.activation_jitter);
  jitter.dirty_rate_factor = 1.0 + env_rng.uniform(-options_.dirty_rate_jitter,
                                                   options_.dirty_rate_jitter);
  const double ambient_src =
      env_rng.uniform(-options_.ambient_jitter_watts, options_.ambient_jitter_watts);
  const double ambient_tgt =
      env_rng.uniform(-options_.ambient_jitter_watts, options_.ambient_jitter_watts);

  // --- Build the two-host testbed. ---
  sim::Simulator sim;
  cloud::DataCenter dc;
  cloud::Host& source = dc.add_host(testbed_.host_a);
  cloud::Host& target = dc.add_host(testbed_.host_b);
  dc.network().connect(source.name(), target.name(), testbed_.link);

  const auto add_load_vms = [&](cloud::Host& host, int count, const char* prefix) {
    for (int i = 0; i < count; ++i) {
      auto vm = cloud::make_load_cpu_vm(util::format("%s-load-%d", prefix, i));
      // Real load VMs never run at exactly nominal speed.
      workloads::MatrixMultParams p;
      p.threads = 4;
      p.efficiency = 1.0 - env_rng.uniform(0.0, options_.load_efficiency_jitter);
      vm->set_workload(std::make_shared<workloads::MatrixMultWorkload>(p));
      host.add_vm(std::move(vm));
    }
  };
  add_load_vms(source, scenario.source_load_vms, "src");
  add_load_vms(target, scenario.target_load_vms, "tgt");

  cloud::VmPtr migrating;
  switch (scenario.migrating) {
    case MigratingKind::kCpu:
      migrating = cloud::make_migrating_cpu_vm(kMigratingVmId);
      break;
    case MigratingKind::kMem:
      migrating = cloud::make_migrating_mem_vm(kMigratingVmId, scenario.mem_fraction);
      break;
    case MigratingKind::kNet:
      migrating = cloud::make_migrating_net_vm(kMigratingVmId, scenario.net_rate);
      break;
  }
  source.add_vm(migrating);

  // --- Instrumentation. ---
  // Per-run, per-host ground-truth drift (thermal state, PSU efficiency
  // point): unobservable to the models, like on the real machines.
  const auto drifted_params = [&](const char* which) {
    util::RngStream drift = rng_.stream(std::string("drift/") + which + "/" + run_key);
    power::HostPowerParams p = testbed_.power;
    p.idle_watts *= 1.0 + drift.uniform(-options_.idle_drift, options_.idle_drift);
    p.watts_per_vcpu *=
        1.0 + drift.uniform(-options_.cpu_power_drift, options_.cpu_power_drift);
    p.fan_watts_full *=
        1.0 + drift.uniform(-options_.fan_gain_jitter, options_.fan_gain_jitter);
    return p;
  };
  const power::HostPowerModel power_model_src(drifted_params("src"));
  const power::HostPowerModel power_model_tgt(drifted_params("tgt"));
  util::RngStream feature_rng = rng_.stream("features/" + run_key);
  // ifstat-style calibration error: fixed within a run.
  const double bw_gain =
      1.0 + feature_rng.uniform(-options_.bw_reading_noise, options_.bw_reading_noise);
  migration::MigrationEngine engine(sim, dc, net::BandwidthModel(testbed_.bandwidth),
                                    options_.migration);

  power::PowerMeter meter_src(
      source.name(), options_.meter,
      [&](double) {
        return power_model_src.true_power(engine.activity_of(source)) + ambient_src;
      },
      rng_.stream("meter-src/" + run_key));
  power::PowerMeter meter_tgt(
      target.name(), options_.meter,
      [&](double) {
        return power_model_tgt.true_power(engine.activity_of(target)) + ambient_tgt;
      },
      rng_.stream("meter-tgt/" + run_key));

  std::vector<RawSample> raw;
  bool issued = false;
  bool finished = false;
  double completed_at = -1.0;
  migration::MigrationRecord record;

  sim::Simulator::PeriodicHandle sampler;
  sampler = sim.schedule_periodic(0.0, options_.meter.sample_period, [&] {
    const double t = sim.now();
    meter_src.sample(t);
    meter_tgt.sample(t);

    // dstat-style CPU readings carry per-sample noise.
    const auto cpu_noise = [&] {
      return 1.0 + feature_rng.uniform(-options_.cpu_reading_noise,
                                       options_.cpu_reading_noise);
    };
    RawSample s;
    s.time = t;
    s.cpu_source = source.cpu_used(t) * cpu_noise();
    s.cpu_target = target.cpu_used(t) * cpu_noise();
    if (const auto vm = source.vm(kMigratingVmId);
        vm && vm->state() == cloud::VmState::kRunning) {
      s.vm_cpu_on_source = source.cpu_granted_to(kMigratingVmId, t) * cpu_noise();
    }
    if (const auto vm = target.vm(kMigratingVmId);
        vm && vm->state() == cloud::VmState::kRunning) {
      s.vm_cpu_on_target = target.cpu_granted_to(kMigratingVmId, t) * cpu_noise();
    }
    s.dirty_ratio = engine.current_dirty_ratio();
    s.bandwidth = engine.current_bandwidth() * bw_gain;
    raw.push_back(s);

    const bool stable = power::is_stabilized(meter_src.trace(), options_.stabilization) &&
                        power::is_stabilized(meter_tgt.trace(), options_.stabilization);

    if (!issued && ((t >= options_.min_warmup && stable) || t >= options_.forced_issue_time)) {
      issued = true;
      engine.migrate(kMigratingVmId, source.name(), target.name(), scenario.type, jitter,
                     [&](const migration::MigrationRecord& r) {
                       record = r;
                       completed_at = sim.now();
                     });
    }

    if (completed_at >= 0.0 && !finished &&
        ((t >= completed_at + options_.post_margin && stable) ||
         t >= options_.max_sim_time)) {
      finished = true;
      sampler.cancel();
    }
    WAVM3_REQUIRE(t <= options_.max_sim_time + 1.0, "run watchdog expired: " + run_key);
  });

  sim.run_to_completion();
  WAVM3_REQUIRE(completed_at >= 0.0 &&
                    record.outcome == migration::MigrationOutcome::kCompleted,
                "migration did not complete: " + run_key);

  // --- Assemble the result. ---
  RunResult result;
  result.scenario = scenario;
  result.run_index = run_index;
  result.record = record;
  result.jitter = jitter;
  result.source_trace = meter_src.trace();
  result.target_trace = meter_tgt.trace();
  result.features = migration::FeatureTrace(run_key);
  for (const RawSample& r : raw) {
    migration::FeatureSample fs;
    fs.time = r.time;
    fs.cpu_source = r.cpu_source;
    fs.cpu_target = r.cpu_target;
    fs.cpu_vm = r.vm_cpu_on_source + r.vm_cpu_on_target;
    fs.dirty_ratio = r.dirty_ratio;
    fs.bandwidth = r.bandwidth;
    fs.phase = record.times.phase_at(r.time);
    result.features.add(fs);
  }

  const auto build_obs = [&](models::HostRole role) {
    models::MigrationObservation obs;
    obs.experiment = scenario.name;
    obs.run = run_index;
    obs.testbed = testbed_.name;
    obs.type = scenario.type;
    obs.role = role;
    obs.times = record.times;
    obs.mem_bytes = migrating->spec().ram_bytes;
    obs.data_bytes = record.total_bytes;
    const double transfer = record.times.transfer_duration();
    obs.avg_bandwidth = transfer > 0.0 ? record.total_bytes / transfer : 0.0;
    obs.idle_power_watts = idle_power_reference_;

    const power::PowerTrace& trace =
        role == models::HostRole::kSource ? result.source_trace : result.target_trace;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const RawSample& r = raw[i];
      const MigrationPhase phase = record.times.phase_at(r.time);
      if (phase == MigrationPhase::kNormal) continue;
      models::MigrationSample s;
      s.time = r.time;
      s.power_watts = trace[i].watts;
      s.phase = phase;
      s.bandwidth = r.bandwidth;
      if (role == models::HostRole::kSource) {
        s.cpu_host = r.cpu_source;
        s.cpu_vm = r.vm_cpu_on_source;
        // DR(v,t) is tracked on the source during a live transfer; the
        // paper sets it to 0 when evaluating the target (SIV-C.2).
        s.dirty_ratio = r.dirty_ratio;
      } else {
        s.cpu_host = r.cpu_target;
        s.cpu_vm = r.vm_cpu_on_target;
        s.dirty_ratio = 0.0;
      }
      obs.samples.push_back(s);
    }
    return obs;
  };

  result.source_obs = build_obs(models::HostRole::kSource);
  result.target_obs = build_obs(models::HostRole::kTarget);
  WAVM3_ASSERT(result.source_obs.samples.size() >= 4, "too few in-migration samples");
  return result;
}

}  // namespace wavm3::exp
