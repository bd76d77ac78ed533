#include "dcsim/simulation.hpp"

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "chaos/closed_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/strategy.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wavm3::dcsim {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kNoConsolidation: return "no-consolidation";
    case Strategy::kCostBlind: return "cost-blind";
    case Strategy::kCostAware: return "cost-aware";
  }
  return "?";
}

namespace {

/// The planner's view of the simulated fleet: its policy, the
/// machine class's power estimate, and the default link's payload rate
/// between every host pair.
plan::PlannerConfig planner_config(const DcSimConfig& cfg) {
  plan::PlannerConfig pc;
  pc.policy = cfg.policy;
  pc.host_power.idle_watts = cfg.power.idle_watts;
  pc.host_power.watts_per_vcpu = cfg.power.watts_per_vcpu;
  pc.migration = cfg.migration;
  pc.bandwidth = cfg.bandwidth;
  pc.intra_group_payload_rate = net::Link(cfg.link).max_payload_rate();
  pc.inter_group_payload_rate = pc.intra_group_payload_rate;
  return pc;
}

}  // namespace

/// All mutable simulation state; lives only inside run().
struct DataCenterSimulation::Runtime {
  const DcSimConfig& cfg;

  sim::Simulator sim;
  cloud::DataCenter dc;
  power::HostPowerModel power_model;
  std::unique_ptr<migration::MigrationEngine> engine;
  std::unique_ptr<plan::MigrationPlanner> planner;
  std::unique_ptr<chaos::ClosedLoop> loop;  ///< relief, retry, ledger and audit rules
  const plan::BeamSearchStrategy beam;

  std::set<std::string> powered_off;

  // The open wave: its snapshot (kept in step with the moves that land),
  // counters, ledger ids still to run and the attempts run so far.
  plan::Fleet fleet;
  chaos::WaveOutcome wave;
  int next_wave = 0;  ///< waves opened so far; the last one is open
  std::deque<int> queue;
  std::vector<chaos::ExecutedInterval> intervals;

  // Trapezoidal energy accounting.
  std::map<std::string, double> energy;
  std::map<std::string, double> last_power;
  double last_sample_time = 0.0;
  double performance_sum = 0.0;  ///< accumulates vm_mean_performance
  double last_controller_tick = 0.0;  ///< start of the current control round

  DcSimReport report;

  /// Controller rounds by strategy, in the global obs registry.
  obs::Counter& rounds_counter;

  explicit Runtime(const DcSimConfig& config)
      : cfg(config), power_model(config.power),
        rounds_counter(obs::registry().counter("dcsim_controller_rounds_total",
                                               "Fleet controller ticks executed",
                                               {{"strategy", to_string(config.strategy)}})) {}

  double host_true_power(const cloud::Host& host) const {
    if (powered_off.count(host.name()) != 0) return cfg.standby_watts;
    return power_model.true_power(engine->activity_of(host));
  }

  void sample_power() {
    const double t = sim.now();
    const double dt = t - last_sample_time;
    for (const cloud::Host* h : std::as_const(dc).hosts()) {
      const double p = host_true_power(*h);
      if (dt > 0.0) energy[h->name()] += 0.5 * (last_power[h->name()] + p) * dt;
      last_power[h->name()] = p;
    }
    last_sample_time = t;
  }

  /// Ground-truth bookkeeping of one finished migration.
  void account_migration(const migration::MigrationRecord& r) {
    if (r.outcome == migration::MigrationOutcome::kCompleted) {
      ++report.migrations_executed;
      performance_sum += r.vm_mean_performance;
    } else {
      ++report.migrations_failed;
      report.wasted_migration_bytes += r.wasted_bytes;
      const char* cause =
          r.outcome == migration::MigrationOutcome::kVmLost ? "vm-lost" : "rolled-back";
      ++report.migration_failures_by_cause[cause];
      obs::registry()
          .counter("dcsim_migration_failures_total", "Failed fleet migrations by cause",
                   {{"strategy", to_string(cfg.strategy)}, {"cause", cause}})
          .inc();
    }
    report.total_migration_downtime += r.downtime;
  }

  /// Powers a donor off once its last VM has left.
  void power_off_if_empty(int h) {
    const std::string& name = fleet.host(h).spec.name;
    const cloud::Host* host = dc.host(name);
    if (host != nullptr && host->vm_count() == 0 && powered_off.insert(name).second) {
      fleet.set_powered(h, false);
      ++report.power_off_events;
    }
  }

  /// Starts the next queued attempt of the open wave. Its completion
  /// resolves the ledger entry and starts the one after: one migration
  /// at a time.
  void execute_next_migration() {
    while (!queue.empty()) {
      const int id = queue.front();
      queue.pop_front();
      if (!loop->revalidate(fleet, id, wave)) continue;
      const plan::ScheduledMove move = loop->entry(id).move;
      const double start = sim.now();
      loop->start_attempt(id, wave);
      try {
        engine->migrate(fleet.vm(move.vm).id, fleet.host(move.source).spec.name,
                        fleet.host(move.target).spec.name, cfg.policy.migration_type, {},
                        [this, id, move, start](const migration::MigrationRecord& r) {
                          account_migration(r);
                          intervals.push_back({move.source, start, sim.now()});
                          intervals.push_back({move.target, start, sim.now()});
                          loop->resolve(fleet, id, r.outcome, chaos::wasted_fraction(r), wave);
                          if (!loop->entry(id).relief) power_off_if_empty(move.source);
                          execute_next_migration();
                        });
        return;  // one at a time; continue from the completion callback
      } catch (const util::ContractError& e) {
        util::log_warn(std::string("dcsim: dropping planned migration: ") + e.what());
        loop->refund(id, wave.invalidated);
      }
    }
  }

  /// The planner's snapshot of the live data centre: every host with
  /// its spec and power state, every VM as plan::fleet_vm sees it (no
  /// history, so no cycle scheduling).
  plan::Fleet snapshot(double now) const {
    plan::Fleet snap;
    for (const cloud::Host* h : dc.hosts()) {
      const int host = snap.add_host(h->spec());
      snap.set_powered(host, powered_off.count(h->name()) == 0);
      for (const cloud::VmPtr& vm : h->vms()) snap.add_vm(plan::fleet_vm(*vm, now), host);
    }
    return snap;
  }

  /// One what-if consolidation wave on `f`. Cost-aware drops every
  /// donor whose moves cost at least what vacating it saves.
  std::vector<plan::ScheduledMove> consolidation_moves(plan::Fleet& f, double now) {
    plan::WavePlan wp = planner->plan_wave(f, beam, now, /*commit=*/false);
    if (cfg.strategy != Strategy::kCostAware) return std::move(wp.moves);
    std::map<int, double> donor_cost;  ///< kept for the rejected donors only
    for (const plan::ScheduledMove& m : wp.moves) donor_cost[m.source] += m.energy_j;
    const double saving = plan::donor_saving_j(planner->config());
    std::erase_if(donor_cost, [saving](const auto& dc) { return dc.second < saving; });
    report.plans_rejected_by_cost += static_cast<int>(donor_cost.size());
    std::erase_if(wp.moves, [&](const plan::ScheduledMove& m) {
      return donor_cost.count(m.source) != 0;
    });
    return std::move(wp.moves);
  }

  /// Closes the open wave on a fresh snapshot, then opens the next one
  /// on it and starts running it: relief, due retries and the
  /// consolidation moves, or only the due retries when not `consolidate`
  /// (no wave at all when none is pending). Returns whether one opened.
  bool roll_wave(double now, bool consolidate) {
    if (loop == nullptr) return false;
    plan::Fleet next = snapshot(now);
    if (next_wave > 0) close_wave(next);
    if (!consolidate && loop->pending().empty()) return false;
    fleet = std::move(next);
    wave = chaos::WaveOutcome{};
    wave.wave = next_wave;
    wave.started_at_s = now;
    intervals.clear();
    const std::vector<int> attempts = loop->open_wave(
        fleet, next_wave++, now, /*relief=*/consolidate,
        [this, now, consolidate](plan::Fleet& f) {
          return consolidate ? consolidation_moves(f, now) : std::vector<plan::ScheduledMove>{};
        },
        wave);
    // Relief powers a standby host on when no running host fits a VM.
    for (const plan::FleetHost& h : fleet.hosts()) {
      if (h.powered_on && powered_off.erase(h.spec.name) != 0) ++report.power_on_events;
    }
    queue.assign(attempts.begin(), attempts.end());
    execute_next_migration();
    return true;
  }

  /// Closes the open wave on `next`: the ledger follows its VMs to their
  /// indices there, the loop audits both, and the wave's retries, sheds
  /// and violations land in the report.
  void close_wave(const plan::Fleet& next) {
    std::unordered_map<std::string, int> index_of;
    for (std::size_t v = 0; v < next.vm_count(); ++v) {
      index_of.emplace(next.vm(static_cast<int>(v)).id, static_cast<int>(v));
    }
    std::vector<int> new_index;
    for (const plan::FleetVm& vm : fleet.vms()) new_index.push_back(index_of.at(vm.id));
    loop->reindex_vms(new_index);
    loop->close_wave(next, intervals, wave);

    report.migrations_retried += wave.retries_attempted;
    report.migration_retries_exhausted += wave.shed;
    report.invariant_violations += static_cast<int>(wave.violations.size());
    obs::MetricRegistry& r = obs::registry();
    const obs::Labels labels = {{"strategy", to_string(cfg.strategy)}};
    r.counter("dcsim_migration_retries_total", "Rolled-back fleet migrations re-attempted", labels)
        .inc(static_cast<std::uint64_t>(wave.retries_attempted));
    r.counter("dcsim_migration_retries_exhausted_total", "Moves shed at the retry budget", labels)
        .inc(static_cast<std::uint64_t>(wave.shed));
  }

  /// Past the horizon: lets the open wave finish, then runs retry-only
  /// waves until no move awaits a retry, so every accepted move
  /// resolves before the final audit.
  void drain() {
    do {
      sim.run_to_completion();
    } while (roll_wave(sim.now(), /*consolidate=*/false));
  }

  void controller_tick() {
    if (cfg.strategy == Strategy::kNoConsolidation) return;
    const double now = sim.now();
    obs::Tracer& tr = obs::tracer();
    if (tr.enabled()) {
      const std::uint64_t start = obs::sim_ns(last_controller_tick);
      tr.emit_complete("dcsim", "controller_round", start, obs::sim_ns(now) - start,
                       {{"queued_moves", static_cast<double>(queue.size())},
                        {"powered_off_hosts", static_cast<double>(powered_off.size())},
                        {"migration_active", engine->migration_active() ? 1.0 : 0.0}},
                       "strategy", to_string(cfg.strategy), obs::kSimPid);
    }
    last_controller_tick = now;
    rounds_counter.inc();
    if (engine->migration_active() || !queue.empty()) return;
    roll_wave(now, /*consolidate=*/true);
  }
};

DataCenterSimulation::DataCenterSimulation(DcSimConfig config, const core::Wavm3Model* model)
    : config_(std::move(config)), model_(model) {
  WAVM3_REQUIRE(config_.hosts.size() >= 2, "need at least two hosts");
  WAVM3_REQUIRE(config_.duration > 0.0, "duration must be positive");
  WAVM3_REQUIRE(config_.controller_interval > 0.0, "controller interval must be positive");
  WAVM3_REQUIRE(config_.power_sample_period > 0.0, "sample period must be positive");
  WAVM3_REQUIRE(config_.strategy == Strategy::kNoConsolidation || model_ != nullptr,
                "consolidating strategies need a model");
}

DcSimReport DataCenterSimulation::run() {
  WAVM3_REQUIRE(!ran_, "a DataCenterSimulation is single-use");
  ran_ = true;

  Runtime rt(config_);
  rt.report.strategy = config_.strategy;
  rt.report.duration = config_.duration;

  // Build the fleet. Every host pair is reachable through the default
  // link, materialised lazily per pair on first use — O(pairs that
  // actually migrate) links instead of an eager O(hosts^2) mesh.
  for (const auto& spec : config_.hosts) rt.dc.add_host(spec);
  rt.dc.network().set_default_link(config_.link);
  for (const auto& placement : config_.vms) {
    cloud::Host* host = rt.dc.host(placement.host);
    WAVM3_REQUIRE(host != nullptr, "placement names unknown host: " + placement.host);
    auto vm = std::make_shared<cloud::Vm>(placement.vm_id, placement.spec);
    vm->set_workload(std::make_shared<workloads::TracedWorkload>(placement.workload));
    vm->start();
    host->add_vm(std::move(vm));
  }

  rt.engine = std::make_unique<migration::MigrationEngine>(
      rt.sim, rt.dc, net::BandwidthModel(config_.bandwidth), config_.migration);
  if (config_.faults != nullptr) {
    rt.engine->set_fault_plan(config_.faults);
    faults::emit_fault_instants(*config_.faults);
  }
  if (model_ != nullptr) {
    rt.planner = std::make_unique<plan::MigrationPlanner>(*model_, planner_config(config_));
    rt.loop = std::make_unique<chaos::ClosedLoop>(*model_, planner_config(config_));
  }

  // Initial power sample, then periodic accounting and control.
  rt.sample_power();
  auto sampler = rt.sim.schedule_periodic(config_.power_sample_period,
                                          config_.power_sample_period,
                                          [&rt] { rt.sample_power(); });
  auto controller = rt.sim.schedule_periodic(config_.controller_interval,
                                             config_.controller_interval,
                                             [&rt] { rt.controller_tick(); });

  rt.sim.run_until(config_.duration);
  sampler.cancel();
  controller.cancel();
  // Let the open wave and its retries finish so engine state unwinds
  // cleanly, but account energy only up to `duration`.
  rt.drain();

  rt.report.host_energy = rt.energy;
  for (const auto& [name, joules] : rt.energy) rt.report.total_energy_joules += joules;
  rt.report.final_powered_on_hosts =
      static_cast<double>(config_.hosts.size() - rt.powered_off.size());
  for (const cloud::Host* h : std::as_const(rt.dc).hosts()) {
    double& load = rt.report.final_host_load[h->name()];
    for (const cloud::VmPtr& vm : h->vms()) load += vm->cpu_demand(config_.duration);
  }
  if (rt.report.migrations_executed > 0) {
    rt.report.mean_migration_performance =
        rt.performance_sum / rt.report.migrations_executed;
  }
  obs::registry()
      .counter("dcsim_runs_total", "Fleet simulations executed",
               {{"strategy", to_string(config_.strategy)}})
      .inc();
  obs::registry()
      .gauge("dcsim_last_run_energy_joules", "Total fleet energy of the latest run",
             {{"strategy", to_string(config_.strategy)}})
      .set(rt.report.total_energy_joules);
  return rt.report;
}

DcSimConfig make_fleet_scenario(int n_hosts, int n_vms, std::uint64_t seed) {
  WAVM3_REQUIRE(n_hosts >= 2 && n_vms >= 1, "need >= 2 hosts and >= 1 VM");
  util::RngFactory rng_factory(seed);
  util::RngStream rng = rng_factory.stream("fleet");

  DcSimConfig cfg;
  for (int i = 0; i < n_hosts; ++i) {
    cloud::HostSpec h;
    h.name = util::format("host%02d", i);
    h.vcpus = 32;
    h.ram_bytes = util::gib(32);
    // Fleet fields: 16-host racks, GbE NICs, one migration at a time
    // per host (the planner's wave scheduler works under these caps).
    h.group = util::format("rack%02d", i / 16);
    h.nic_rate = util::gbit_per_s(1);
    h.max_concurrent_migrations = 1;
    cfg.hosts.push_back(h);
  }
  // m-class ground truth (same machines as the paper's m01-m02 pair).
  cfg.power.machine_class = "m-class (Opteron 8356)";
  cfg.power.idle_watts = 430.0;
  cfg.power.vcpus = 32.0;
  cfg.power.watts_per_vcpu = 11.0;
  cfg.power.cpu_convexity_watts = 60.0;
  cfg.power.fan_watts_full = 50.0;
  cfg.link.name = "fleet GbE";
  cfg.link.wire_rate = util::gbit_per_s(1);

  for (int i = 0; i < n_vms; ++i) {
    VmPlacement p;
    p.vm_id = util::format("vm%03d", i);
    p.host = cfg.hosts[static_cast<std::size_t>(i) % cfg.hosts.size()].name;
    p.spec.instance_type = "fleet-vm";
    p.spec.vcpus = static_cast<int>(rng.uniform_int(1, 4));
    p.spec.ram_bytes = util::gib(static_cast<double>(rng.uniform_int(1, 4)));
    p.spec.storage_bytes = util::gib(6);
    // Staggered diurnal profiles: load peaks at different times, so
    // consolidation opportunities open and close over the day.
    const double low = rng.uniform(0.05, 0.25);
    const double high = rng.uniform(0.5, 1.0);
    const double phase = rng.uniform(0.0, 86400.0);
    p.workload.profile = workloads::LoadProfile::diurnal(low, high, 86400.0, phase);
    p.workload.vcpus = p.spec.vcpus;
    p.workload.dirty_pages_per_s_full = rng.uniform(500.0, 20000.0);
    p.workload.working_set_pages = static_cast<std::uint64_t>(
        rng.uniform(0.05, 0.5) * p.spec.ram_bytes / util::kPageSize);
    cfg.vms.push_back(std::move(p));
  }
  return cfg;
}

}  // namespace wavm3::dcsim
