#include "dcsim/simulation.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

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

std::uint64_t sim_ns(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

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

void emit_fault_instants(const faults::FaultPlan& plan) {
  obs::Tracer& tr = obs::tracer();
  if (!tr.enabled()) return;
  for (const faults::LinkDegradation& d : plan.degradations()) {
    tr.emit_instant("faults", "link_degradation", sim_ns(d.start),
                    {{"duration_s", d.end - d.start}, {"factor", d.factor}}, nullptr, nullptr,
                    obs::kSimPid);
  }
  for (const faults::LinkFlap& f : plan.flaps()) {
    tr.emit_instant("faults", "link_flap", sim_ns(f.start),
                    {{"duration_s", f.end - f.start},
                     {"down_factor", f.down_factor},
                     {"period_s", f.up_duration + f.down_duration}},
                    nullptr, nullptr, obs::kSimPid);
  }
  for (const faults::TransferStall& s : plan.stalls()) {
    tr.emit_instant("faults", "transfer_stall", sim_ns(s.at), {{"duration_s", s.duration}},
                    nullptr, nullptr, obs::kSimPid);
  }
  for (const faults::HostOverload& o : plan.overloads()) {
    tr.emit_instant("faults", "host_overload", sim_ns(o.start),
                    {{"duration_s", o.end - o.start}, {"extra_vcpus", o.extra_vcpus}}, nullptr,
                    nullptr, obs::kSimPid);
  }
  for (const faults::ConnectionLoss& l : plan.connection_losses()) {
    // Phase-bound losses have no absolute time until a migration runs;
    // stamp them at 0 with their in-phase offset as an annotation.
    const bool absolute = l.phase == faults::FaultPhase::kAny;
    tr.emit_instant("faults", "connection_loss", absolute ? sim_ns(l.at) : 0,
                    {{"offset_s", l.at}}, "phase", faults::to_string(l.phase), obs::kSimPid);
  }
}

/// All mutable simulation state; lives only inside run().
struct DataCenterSimulation::Runtime {
  const DcSimConfig& cfg;

  sim::Simulator sim;
  cloud::DataCenter dc;
  power::HostPowerModel power_model;
  std::unique_ptr<migration::MigrationEngine> engine;
  std::unique_ptr<plan::MigrationPlanner> planner;
  const plan::BeamSearchStrategy beam;

  std::set<std::string> powered_off;
  /// One queued move of the wave being executed, with its retry count.
  struct PendingMove {
    std::string vm;
    std::string source;
    std::string target;
    int attempts = 0;
  };
  std::deque<PendingMove> pending;  ///< wave being executed

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

  /// Outcome bookkeeping shared by plan and overload-relief moves.
  void account_migration(const migration::MigrationRecord& r) {
    if (r.completed) {
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
  void power_off_if_empty(const std::string& host_name) {
    const cloud::Host* host = dc.host(host_name);
    if (host != nullptr && host->vm_count() == 0 && powered_off.insert(host_name).second) {
      ++report.power_off_events;
    }
  }

  /// Starts the next queued migration of the active wave.
  void execute_next_migration() {
    while (!pending.empty()) {
      const PendingMove move = pending.front();
      pending.pop_front();
      cloud::Host* source = dc.host(move.source);
      if (source == nullptr || !source->has_vm(move.vm)) continue;
      try {
        engine->migrate(move.vm, move.source, move.target, cfg.policy.migration_type, {},
                        [this, move](const migration::MigrationRecord& r) {
                          account_migration(r);
                          // A rolled-back move left the world as it was:
                          // re-attempt in place, up to the policy's
                          // bound. kVmLost must NEVER retry: the engine
                          // already restarted the VM on the target, so
                          // a re-attempt would migrate a VM that is no
                          // longer on the source. Past the bound the
                          // wave continues without this move; the next
                          // controller tick replans around it.
                          if (r.outcome == migration::MigrationOutcome::kRolledBack) {
                            if (move.attempts < cfg.max_retries) {
                              ++report.migrations_retried;
                              obs::registry()
                                  .counter("dcsim_migration_retries_total",
                                           "Rolled-back fleet migrations re-attempted",
                                           {{"strategy", to_string(cfg.strategy)}})
                                  .inc();
                              PendingMove retry = move;
                              ++retry.attempts;
                              pending.push_front(retry);
                            } else {
                              ++report.migration_retries_exhausted;
                              obs::registry()
                                  .counter("dcsim_migration_retries_exhausted_total",
                                           "Rolled-back migrations dropped at the retry cap",
                                           {{"strategy", to_string(cfg.strategy)}})
                                  .inc();
                            }
                          }
                          power_off_if_empty(move.source);
                          execute_next_migration();
                        });
        return;  // one at a time; continue from the completion callback
      } catch (const util::ContractError& e) {
        util::log_warn(std::string("dcsim: dropping planned migration: ") + e.what());
      }
    }
  }

  /// Moves one VM off an overloaded host, powering a standby host on
  /// when no powered-on target has room.
  void relieve_overload(double now) {
    for (cloud::Host* h : dc.hosts()) {
      if (powered_off.count(h->name()) != 0) continue;
      if (h->cpu_utilisation(now) <= cfg.policy.overload_fraction) continue;
      const auto vms = h->vms();
      if (vms.size() < 2) continue;  // nothing sensible to shed

      // Shed the smallest VM (cheapest move).
      const cloud::VmPtr vm = *std::min_element(
          vms.begin(), vms.end(), [now](const cloud::VmPtr& a, const cloud::VmPtr& b) {
            return a->cpu_demand(now) < b->cpu_demand(now);
          });

      // Least-loaded powered-on target with CPU and RAM room.
      cloud::Host* best = nullptr;
      for (cloud::Host* t : dc.hosts()) {
        if (t == h || powered_off.count(t->name()) != 0) continue;
        if (!t->can_fit(vm->spec())) continue;
        const double after = t->cpu_used(now) + vm->cpu_demand(now);
        if (after > cfg.policy.overload_fraction * t->cpu_capacity()) continue;
        if (best == nullptr || t->cpu_utilisation(now) < best->cpu_utilisation(now)) best = t;
      }
      if (best == nullptr) {
        // Wake a standby machine.
        for (cloud::Host* t : dc.hosts()) {
          if (powered_off.count(t->name()) != 0 && t->can_fit(vm->spec())) {
            powered_off.erase(t->name());
            ++report.power_on_events;
            best = t;
            break;
          }
        }
      }
      if (best == nullptr) continue;

      try {
        // Relief moves are not retried on failure: the next controller
        // tick reassesses the (possibly changed) overload picture.
        engine->migrate(vm->id(), h->name(), best->name(), cfg.policy.migration_type, {},
                        [this](const migration::MigrationRecord& r) { account_migration(r); });
      } catch (const util::ContractError& e) {
        util::log_warn(std::string("dcsim: overload relief failed: ") + e.what());
      }
      return;  // at most one relief migration per tick
    }
  }

  /// The planner's snapshot of the live data centre: every host with
  /// its spec and power state, every VM as plan::fleet_vm sees it (no
  /// history, so no cycle scheduling).
  plan::Fleet snapshot(double now) const {
    plan::Fleet fleet;
    for (const cloud::Host* h : dc.hosts()) {
      const int host = fleet.add_host(h->spec());
      fleet.set_powered(host, powered_off.count(h->name()) == 0);
      for (const cloud::VmPtr& vm : h->vms()) fleet.add_vm(plan::fleet_vm(*vm, now), host);
    }
    return fleet;
  }

  /// Plans one what-if wave and queues its moves. Cost-aware drops
  /// every donor whose moves cost at least what vacating it saves.
  void try_consolidate(double now) {
    plan::Fleet fleet = snapshot(now);
    const plan::WavePlan wave = planner->plan_wave(fleet, beam, now, /*commit=*/false);
    std::map<int, double> donor_cost;
    for (const plan::ScheduledMove& m : wave.moves) donor_cost[m.source] += m.energy_j;
    std::set<int> rejected;
    if (cfg.strategy == Strategy::kCostAware) {
      const double saving = plan::donor_saving_j(planner->config());
      for (const auto& [donor, cost] : donor_cost) {
        if (cost >= saving) rejected.insert(donor);
      }
      report.plans_rejected_by_cost += static_cast<int>(rejected.size());
    }
    for (const plan::ScheduledMove& m : wave.moves) {
      if (rejected.count(m.source) != 0) continue;
      pending.push_back(PendingMove{fleet.vm(m.vm).id, fleet.host(m.source).spec.name,
                                    fleet.host(m.target).spec.name});
    }
    execute_next_migration();
  }

  void controller_tick() {
    if (cfg.strategy == Strategy::kNoConsolidation) return;
    const double now = sim.now();
    obs::Tracer& tr = obs::tracer();
    if (tr.enabled()) {
      const std::uint64_t start = sim_ns(last_controller_tick);
      tr.emit_complete("dcsim", "controller_round", start, sim_ns(now) - start,
                       {{"queued_moves", static_cast<double>(pending.size())},
                        {"powered_off_hosts", static_cast<double>(powered_off.size())},
                        {"migration_active", engine->migration_active() ? 1.0 : 0.0}},
                       "strategy", to_string(cfg.strategy), obs::kSimPid);
    }
    last_controller_tick = now;
    rounds_counter.inc();
    if (engine->migration_active() || !pending.empty()) return;
    relieve_overload(now);
    if (engine->migration_active()) return;
    try_consolidate(now);
  }
};

DataCenterSimulation::DataCenterSimulation(DcSimConfig config, const core::Wavm3Model* model)
    : config_(std::move(config)), model_(model) {
  WAVM3_REQUIRE(config_.hosts.size() >= 2, "need at least two hosts");
  WAVM3_REQUIRE(config_.duration > 0.0, "duration must be positive");
  WAVM3_REQUIRE(config_.controller_interval > 0.0, "controller interval must be positive");
  WAVM3_REQUIRE(config_.power_sample_period > 0.0, "sample period must be positive");
  WAVM3_REQUIRE(config_.max_retries >= 0, "retry bound must be non-negative");
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
    vm->set_workload(std::make_shared<TracedWorkload>(placement.workload));
    vm->start();
    host->add_vm(std::move(vm));
  }

  rt.engine = std::make_unique<migration::MigrationEngine>(
      rt.sim, rt.dc, net::BandwidthModel(config_.bandwidth), config_.migration);
  if (config_.faults != nullptr) {
    rt.engine->set_fault_plan(config_.faults);
    emit_fault_instants(*config_.faults);
  }
  if (model_ != nullptr) {
    rt.planner = std::make_unique<plan::MigrationPlanner>(*model_, planner_config(config_));
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
  // Let any in-flight migration finish so engine state unwinds cleanly,
  // but account energy only up to `duration`.
  rt.sim.run_to_completion();

  rt.report.host_energy = rt.energy;
  for (const auto& [name, joules] : rt.energy) rt.report.total_energy_joules += joules;
  rt.report.final_powered_on_hosts =
      static_cast<double>(config_.hosts.size() - rt.powered_off.size());
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
    p.workload.profile = LoadProfile::diurnal(low, high, 86400.0, phase);
    p.workload.vcpus = p.spec.vcpus;
    p.workload.dirty_pages_per_s_full = rng.uniform(500.0, 20000.0);
    p.workload.working_set_pages = static_cast<std::uint64_t>(
        rng.uniform(0.05, 0.5) * p.spec.ram_bytes / util::kPageSize);
    cfg.vms.push_back(std::move(p));
  }
  return cfg;
}

}  // namespace wavm3::dcsim
