#include "chaos/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cloud/datacenter.hpp"
#include "dcsim/traced_workload.hpp"
#include "migration/engine.hpp"
#include "net/bandwidth_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace wavm3::chaos {

namespace {

/// Wave metric family, labeled by strategy like the plan_* family so
/// chaos runs of different strategies stay distinguishable.
struct ChaosMetrics {
  obs::Counter& waves;
  obs::Counter& attempts;
  obs::Counter& completed;
  obs::Counter& rolled_back;
  obs::Counter& vm_lost;
  obs::Counter& retries;
  obs::Counter& sheds;
  obs::Counter& deferred;
  obs::Counter& superseded;
  obs::Counter& live_aborts;
  obs::Counter& relief_moves;
  obs::Counter& relief_unplaced;
  obs::Counter& invariant_violations;
  obs::Gauge& planned_j;
  obs::Gauge& committed_j;
  obs::Gauge& refunded_j;
  obs::Gauge& wasted_j;
  obs::Gauge& degraded;
  obs::Histogram& wave_seconds;
};

ChaosMetrics chaos_metrics(const char* strategy) {
  obs::MetricRegistry& r = obs::registry();
  const obs::Labels labels = {{"strategy", strategy}};
  return ChaosMetrics{
      r.counter("chaos_waves_total", "Closed-loop waves executed", labels),
      r.counter("chaos_attempts_total", "Migration attempts executed", labels),
      r.counter("chaos_completed_total", "Attempts that completed", labels),
      r.counter("chaos_rolled_back_total", "Attempts rolled back by faults", labels),
      r.counter("chaos_vm_lost_total", "Post-copy attempts that lost the VM", labels),
      r.counter("chaos_retries_total", "Carried moves re-attempted", labels),
      r.counter("chaos_shed_total", "Moves abandoned after exhausting retries", labels),
      r.counter("chaos_deferred_total", "Moves refunded at the wave deadline", labels),
      r.counter("chaos_superseded_total", "Planner moves dropped: VM already tracked",
                labels),
      r.counter("chaos_live_aborts_total",
                "Attempts refunded by a stream degeneration abort", labels),
      r.counter("chaos_relief_moves_total", "Emergency overload-relief moves accepted",
                labels),
      r.counter("chaos_relief_unplaced_total",
                "Overloaded VMs with no feasible relief receiver", labels),
      r.counter("chaos_invariant_violations_total", "Fleet invariant checks failed", labels),
      r.gauge("chaos_ledger_planned_joules", "Predicted energy of accepted moves", labels),
      r.gauge("chaos_ledger_committed_joules", "Predicted energy of placed moves", labels),
      r.gauge("chaos_ledger_refunded_joules", "Predicted energy refunded to the planner",
              labels),
      r.gauge("chaos_ledger_wasted_joules", "Energy burnt by failed attempts", labels),
      r.gauge("chaos_degraded_mode", "1 while the replan policy is degraded", labels),
      r.exponential_histogram("chaos_wave_seconds", "Wall time of one closed-loop wave",
                              1e-4, 2.0, 22, labels),
  };
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Actual (post-execution) migration intervals per host; mirrors the
/// planner's scheduler but against realised durations, so the executor
/// re-serialises when a storm stretched an earlier attempt.
///
/// Attempts are placed in time order per host: none starts before the
/// latest start already placed on either endpoint. The slot check can
/// only use the *planned* duration of the attempt being placed, so
/// slotting it into a gap before a later placement would let a storm
/// stretch it into that placement; placed in order, every later
/// attempt sees its realised end instead.
struct BusyIntervals {
  std::unordered_map<int, std::vector<std::pair<double, double>>> by_host;
  std::unordered_map<int, double> last_start;

  int overlap(int host, double t0, double t1) const {
    const auto it = by_host.find(host);
    if (it == by_host.end()) return 0;
    int n = 0;
    for (const auto& [s, e] : it->second) {
      if (s < t1 && e > t0) ++n;
    }
    return n;
  }

  void add(int host, double t0, double t1) {
    by_host[host].emplace_back(t0, t1);
    last_start[host] = t0;  // earliest_start never returns an earlier one
  }

  /// Earliest start >= t_min, and no earlier than any start already
  /// placed on either endpoint, with a free slot on both endpoints.
  double earliest_start(const plan::Fleet& fleet, int source, int target, double duration,
                        double t_min) const {
    const int cap_src = std::max(1, fleet.host(source).spec.max_concurrent_migrations);
    const int cap_dst = std::max(1, fleet.host(target).spec.max_concurrent_migrations);
    for (const int h : {source, target}) {
      const auto it = last_start.find(h);
      if (it != last_start.end()) t_min = std::max(t_min, it->second);
    }
    std::vector<double> starts{t_min};
    for (const int h : {source, target}) {
      const auto it = by_host.find(h);
      if (it == by_host.end()) continue;
      for (const auto& [s, e] : it->second) {
        if (e > t_min) starts.push_back(e);
      }
    }
    std::sort(starts.begin(), starts.end());
    for (const double t : starts) {
      if (overlap(source, t, t + duration) < cap_src &&
          overlap(target, t, t + duration) < cap_dst) {
        return t;
      }
    }
    return starts.back();
  }
};

/// Outcome of one executed attempt.
struct ExecResult {
  bool started = false;  ///< engine accepted the migration
  migration::MigrationOutcome outcome = migration::MigrationOutcome::kRolledBack;
  double end_s = 0.0;           ///< sim time the endpoints freed up
  double wasted_fraction = 0.0; ///< wasted_bytes / total_bytes of the attempt
  std::string reason;
};

/// Runs one attempt in its own two-host simulation cell: source and
/// target hosts with the migrating VM plus one aggregate background
/// VM per endpoint (so CPU-coupled bandwidth sees realistic headroom),
/// the pair's link, and an engine fed the wave's storm. The cell clock
/// is wave-absolute: the migrate call fires at `start_s`, so storm
/// events at absolute time T hit exactly the attempts in flight at T.
ExecResult execute_attempt(const plan::Fleet& fleet, const plan::PlannerConfig& pcfg,
                           const plan::ScheduledMove& move, double start_s,
                           std::shared_ptr<const faults::FaultPlan> storm) {
  const plan::FleetHost& src = fleet.host(move.source);
  const plan::FleetHost& dst = fleet.host(move.target);
  const plan::FleetVm& fv = fleet.vm(move.vm);

  sim::Simulator sim;
  cloud::DataCenter dc;
  cloud::Host& source = dc.add_host(src.spec);
  cloud::Host& target = dc.add_host(dst.spec);

  net::LinkSpec link;
  link.name = src.spec.name + "<->" + dst.spec.name;
  link.protocol_efficiency = pcfg.nic_protocol_efficiency;
  link.wire_rate = plan::link_payload_rate(pcfg, src.spec, dst.spec) / link.protocol_efficiency;
  dc.network().set_default_link(link);

  const auto add_background = [](cloud::Host& host, double load, const char* id) {
    if (load <= 1e-9) return;
    cloud::VmSpec spec;
    spec.instance_type = "chaos-background";
    spec.vcpus = host.spec().vcpus;
    spec.ram_bytes = 4096.0;  // aggregate CPU stand-in; nominal RAM footprint
    auto vm = std::make_shared<cloud::Vm>(id, spec);
    dcsim::TracedWorkloadParams params;
    params.vcpus = spec.vcpus;
    params.profile = dcsim::LoadProfile::constant(
        std::clamp(load / std::max(1.0, static_cast<double>(spec.vcpus)), 0.0, 1.0));
    params.dirty_pages_per_s_full = 0.0;
    params.working_set_pages = 0;
    vm->set_workload(std::make_shared<dcsim::TracedWorkload>(params));
    vm->start();
    host.add_vm(std::move(vm));
  };
  add_background(source, std::max(0.0, src.cpu_load - fv.cpu_now), "chaos-bg-source");
  add_background(target, dst.cpu_load, "chaos-bg-target");

  {
    cloud::VmSpec spec;
    spec.instance_type = "chaos-migrating";
    spec.vcpus = std::max(1, static_cast<int>(std::ceil(fv.vcpus)));
    spec.ram_bytes = fv.ram_bytes;
    auto vm = std::make_shared<cloud::Vm>(fv.id, spec);
    dcsim::TracedWorkloadParams params;
    params.vcpus = spec.vcpus;
    const double fraction =
        std::clamp(fv.cpu_now / static_cast<double>(spec.vcpus), 0.0, 1.0);
    params.profile = dcsim::LoadProfile::constant(fraction);
    params.dirty_pages_per_s_full = fraction > 1e-9 ? fv.dirty_now / fraction : 0.0;
    params.working_set_pages = fv.working_set_pages;
    // The planner priced the full RAM allocation; move the same bytes.
    params.memory_used_fraction = 1.0;
    vm->set_workload(std::make_shared<dcsim::TracedWorkload>(params));
    vm->start();
    source.add_vm(std::move(vm));
  }

  migration::MigrationEngine engine(sim, dc, net::BandwidthModel(pcfg.bandwidth),
                                    pcfg.migration);
  if (storm != nullptr) engine.set_fault_plan(std::move(storm));

  ExecResult result;
  sim.schedule_at(start_s, [&] {
    try {
      engine.migrate(fv.id, src.spec.name, dst.spec.name, pcfg.policy.migration_type, {},
                     [&](const migration::MigrationRecord& r) {
                       result.started = true;
                       result.outcome = r.outcome;
                       result.end_s = sim.now();
                       result.wasted_fraction =
                           r.total_bytes > 0.0
                               ? std::clamp(r.wasted_bytes / r.total_bytes, 0.0, 1.0)
                               : 0.0;
                       result.reason = r.failure_reason;
                     });
    } catch (const util::ContractError& e) {
      result.started = false;
      result.reason = e.what();
    }
  });
  sim.run_to_completion();
  if (result.end_s <= start_s) result.end_s = std::max(start_s, sim.now());
  return result;
}

}  // namespace

faults::FaultPlan make_storm(const StormOptions& options, std::uint64_t seed, int wave,
                             double wave_start_s, double horizon_s) {
  WAVM3_REQUIRE(horizon_s > 0.0, "storm horizon must be positive");
  faults::FaultPlan storm;
  if (options.level <= 0) return storm;

  // One derived seed per wave: replaying a run re-creates every wave's
  // storm, while distinct waves see independent weather.
  const std::uint64_t wave_seed =
      seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(wave + 1);

  faults::FaultPlanOptions base;
  base.horizon = horizon_s;
  base.degradations = options.degradations_per_level * options.level;
  base.stalls = options.stalls_per_level * options.level;
  base.flaps = options.flaps_per_level * options.level;
  base.connection_loss_probability = 0.0;
  const faults::FaultPlan raw = faults::FaultPlan::random(base, wave_seed);

  // Shift the generated events into the wave's absolute window.
  for (const faults::LinkDegradation& d : raw.degradations()) {
    storm.add(faults::LinkDegradation{wave_start_s + d.start, wave_start_s + d.end, d.factor});
  }
  for (const faults::LinkFlap& f : raw.flaps()) {
    storm.add(faults::LinkFlap{wave_start_s + f.start, wave_start_s + f.end, f.up_duration,
                               f.down_duration, f.down_factor});
  }
  for (const faults::TransferStall& s : raw.stalls()) {
    storm.add(faults::TransferStall{wave_start_s + s.at, s.duration});
  }

  // Absolute-time connection losses on top; each aborts whatever is in
  // flight when it fires (phase-bound losses would re-arm per attempt
  // and abort everything, so storms never use them).
  const util::RngFactory factory(wave_seed);
  util::RngStream rng = factory.stream("chaos/losses");
  for (int i = 0; i < options.losses_per_level * options.level; ++i) {
    storm.add(faults::ConnectionLoss{faults::FaultPhase::kAny,
                                     wave_start_s + rng.uniform(0.0, horizon_s)});
  }
  return storm;
}

WaveExecutor::WaveExecutor(const core::Wavm3Model& model, ChaosConfig config)
    : forecaster_(model), config_(std::move(config)), planner_(model, config_.planner),
      policy_(config_.replan) {
  WAVM3_REQUIRE(config_.wave_gap_s > 0.0, "wave gap must be positive");
  WAVM3_REQUIRE(config_.max_waves >= 1, "need at least one wave");
  WAVM3_REQUIRE(config_.max_relief_moves_per_wave >= 0,
                "relief cap must be non-negative");
}

WaveOutcome WaveExecutor::run_wave(plan::Fleet& fleet, const plan::PlacementStrategy& strategy,
                                   int wave, double now) {
  const auto wall_start = std::chrono::steady_clock::now();
  WAVM3_OBS_SPAN(span, "chaos", "wave");
  span.note("strategy", strategy.name());
  span.arg("wave", static_cast<double>(wave));
  ChaosMetrics metrics = chaos_metrics(strategy.name());

  WaveOutcome out;
  out.wave = wave;
  out.started_at_s = now;

  const double deadline = now + config_.replan.wave_deadline_s;
  std::shared_ptr<const faults::FaultPlan> storm;
  if (config_.faults_enabled && config_.storm.level > 0) {
    storm = std::make_shared<faults::FaultPlan>(
        make_storm(config_.storm, config_.storm_seed, wave, now,
                   config_.replan.wave_deadline_s));
  }

  fleet.refresh_loads(now, config_.planner.load_window_s);
  const double overload_fraction = config_.planner.policy.overload_fraction;

  std::vector<int> attempts;  ///< ledger ids to execute this wave
  const auto accept = [&](plan::ScheduledMove move, bool relief) {
    TrackedMove tm;
    tm.id = static_cast<int>(ledger_.size());
    tm.move = move;
    tm.relief = relief;
    tm.planned_wave = wave;
    tm.eligible_wave = wave;
    totals_.planned_j += move.energy_j;
    attempts.push_back(tm.id);
    ledger_.push_back(std::move(tm));
  };
  const auto refund = [&](TrackedMove& mv) {
    mv.resolution = MoveResolution::kReplanned;
    mv.resolved_wave = wave;
    totals_.refunded_j += mv.move.energy_j;
  };

  // VMs owned by a tracked pending move (eligible this wave or backing
  // off) are off limits to relief picks and fresh planner moves.
  std::unordered_set<int> owned;
  for (const int id : pending_) {
    owned.insert(ledger_[static_cast<std::size_t>(id)].move.vm);
  }

  // --- 1. Emergency overload relief, each move priced by the planner's
  // closed-form forecast.
  if (config_.relief_enabled) {
    WAVM3_OBS_SPAN(relief_span, "chaos", "relief");
    std::vector<int> overloaded;
    for (std::size_t h = 0; h < fleet.host_count(); ++h) {
      const plan::FleetHost& host = fleet.host(static_cast<int>(h));
      if (!host.powered_on || host.spec.vcpus <= 0) continue;
      // Raw demand, not the capped host_utilisation(): a host at 1.3x
      // capacity must shed more than one at 1.01x.
      if (host.cpu_load / host.spec.vcpus > overload_fraction) {
        overloaded.push_back(static_cast<int>(h));
      }
    }
    std::sort(overloaded.begin(), overloaded.end(), [&](int a, int b) {
      const double ua = fleet.host(a).cpu_load / fleet.host(a).spec.vcpus;
      const double ub = fleet.host(b).cpu_load / fleet.host(b).spec.vcpus;
      return ua != ub ? ua > ub : a < b;
    });
    out.overloaded_hosts = static_cast<int>(overloaded.size());

    std::unordered_map<int, double> extra_cpu;
    std::unordered_map<int, double> extra_ram;
    const std::unordered_set<int> overloaded_set(overloaded.begin(), overloaded.end());

    for (const int h : overloaded) {
      const plan::FleetHost& host = fleet.host(h);
      double load = host.cpu_load;
      const double cap = static_cast<double>(host.spec.vcpus);
      std::vector<int> vms(host.vms);
      // Smallest CPU first: shed the cheapest VMs that get under the line.
      std::sort(vms.begin(), vms.end(), [&](int a, int b) {
        const double ca = fleet.vm(a).cpu_now;
        const double cb = fleet.vm(b).cpu_now;
        return ca != cb ? ca < cb : a < b;
      });
      for (const int v : vms) {
        if (load <= overload_fraction * cap) break;
        if (out.relief_moves >= config_.max_relief_moves_per_wave) break;
        if (owned.count(v) != 0) continue;
        const plan::FleetVm& vm = fleet.vm(v);
        if (vm.cpu_now <= 0.0) break;  // sorted ascending: nothing left to shed
        int best = -1;
        double best_load = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < fleet.host_count(); ++r) {
          const int ri = static_cast<int>(r);
          if (ri == h || overloaded_set.count(ri) != 0) continue;
          const plan::FleetHost& recv = fleet.host(ri);
          if (!recv.powered_on || recv.spec.vcpus <= 0) continue;
          const double r_cpu = recv.cpu_load + extra_cpu[ri];
          const double r_ram = recv.ram_committed + extra_ram[ri];
          if (r_ram + vm.ram_bytes > recv.spec.ram_bytes) continue;
          if (r_cpu + vm.cpu_now > overload_fraction * recv.spec.vcpus) continue;
          if (r_cpu < best_load) {
            best = ri;
            best_load = r_cpu;
          }
        }
        if (best < 0) {
          metrics.relief_unplaced.inc();
          continue;
        }
        const core::MigrationForecast fc =
            forecaster_.forecast(plan::move_scenario(fleet, v, h, best, config_.planner));
        plan::ScheduledMove move;
        move.vm = v;
        move.source = h;
        move.target = best;
        move.start_s = now;
        move.end_s = now + fc.times.me;
        move.energy_j = fc.total_energy();
        move.downtime_s = fc.downtime;
        accept(move, /*relief=*/true);
        ++out.relief_moves;
        extra_cpu[best] += vm.cpu_now;
        extra_ram[best] += vm.ram_bytes;
        owned.insert(v);
        load -= vm.cpu_now;
      }
    }
    relief_span.arg("overloaded", static_cast<double>(overloaded.size()));
    relief_span.arg("moves", static_cast<double>(out.relief_moves));
  }

  // --- 2. Carried retries that reached their eligible wave.
  for (const int id : pending_) {
    TrackedMove& mv = ledger_[static_cast<std::size_t>(id)];
    if (mv.eligible_wave > wave) continue;
    const plan::FleetVm& vm = fleet.vm(mv.move.vm);
    const plan::FleetHost& target = fleet.host(mv.move.target);
    const bool valid = vm.host == mv.move.source && target.powered_on &&
                       fleet.fits(mv.move.target, vm) &&
                       target.cpu_load + vm.cpu_now <=
                           overload_fraction * static_cast<double>(target.spec.vcpus);
    if (!valid) {
      // The fleet drifted under the retry; hand the move back to the
      // planner instead of forcing a stale placement.
      refund(mv);
      ++out.invalidated;
      owned.erase(mv.move.vm);
      continue;
    }
    attempts.push_back(id);
    ++out.retries_attempted;
  }

  // --- 3. Fresh wave from the planner (what-if: commit happens per
  // completed attempt, not up front).
  {
    plan::WavePlan wp = planner_.plan_wave(fleet, strategy, now, /*commit=*/false);
    const std::size_t width = policy_.admitted_width(wp.moves.size());
    std::size_t accepted = 0;
    for (const plan::ScheduledMove& move : wp.moves) {
      if (owned.count(move.vm) != 0) {
        ++out.superseded;
        continue;
      }
      if (accepted >= width) {
        ++out.dropped_degraded;
        continue;
      }
      accept(move, /*relief=*/false);
      owned.insert(move.vm);
      ++accepted;
      ++out.planned_moves;
    }
  }

  // --- 4. Execute, re-serialising per host on realised durations.
  // Live-abort flags raised since the last wave (stream degeneration
  // alerts, possibly from serve worker threads) are consumed exactly
  // once, here at the wave boundary — mid-wave arrivals hit the next
  // wave, keeping execution deterministic for a given flag set.
  std::unordered_set<int> aborted_vms;
  {
    std::lock_guard<std::mutex> lock(abort_mutex_);
    aborted_vms.swap(live_abort_vms_);
  }
  std::vector<ExecutedInterval> intervals;
  {
    WAVM3_OBS_SPAN(exec_span, "chaos", "execute");
    std::sort(attempts.begin(), attempts.end(), [&](int a, int b) {
      const double sa = ledger_[static_cast<std::size_t>(a)].move.start_s;
      const double sb = ledger_[static_cast<std::size_t>(b)].move.start_s;
      return sa != sb ? sa < sb : a < b;
    });
    BusyIntervals busy;
    for (const int id : attempts) {
      TrackedMove& mv = ledger_[static_cast<std::size_t>(id)];
      if (aborted_vms.count(mv.move.vm) != 0) {
        // The live forecast said this migration is degenerating:
        // refund instead of executing; next wave's planner re-prices.
        refund(mv);
        ++out.live_aborted;
        continue;
      }
      const plan::FleetVm& vm = fleet.vm(mv.move.vm);
      // Earlier attempts this wave may have filled the target.
      if (vm.host != mv.move.source || !fleet.host(mv.move.target).powered_on ||
          !fleet.fits(mv.move.target, vm)) {
        refund(mv);
        ++out.invalidated;
        continue;
      }
      const double duration = std::max(1e-3, mv.move.end_s - mv.move.start_s);
      const double start = busy.earliest_start(fleet, mv.move.source, mv.move.target,
                                               duration, std::max(now, mv.move.start_s));
      if (start > deadline) {
        // Too late to run inside this wave: refund and let the next
        // wave's planner re-price it against the fleet it will find.
        refund(mv);
        ++out.deferred;
        continue;
      }

      ++mv.attempts;
      ++out.executed;
      WAVM3_OBS_SPAN(move_span, "chaos", "execute_move");
      move_span.arg("vm", static_cast<double>(mv.move.vm));
      move_span.arg("attempt", static_cast<double>(mv.attempts));
      ExecResult res = execute_attempt(fleet, config_.planner, mv.move, start, storm);
      if (!res.started) {
        // The engine rejected the request outright (no bytes moved).
        util::log_warn("chaos: dropping unexecutable move: " + res.reason);
        refund(mv);
        ++out.invalidated;
        continue;
      }
      move_span.note("outcome", to_string(res.outcome));
      busy.add(mv.move.source, start, res.end_s);
      busy.add(mv.move.target, start, res.end_s);
      intervals.push_back({mv.move.source, start, res.end_s});
      intervals.push_back({mv.move.target, start, res.end_s});

      switch (res.outcome) {
        case migration::MigrationOutcome::kCompleted:
          fleet.move_vm(mv.move.vm, mv.move.target);
          mv.resolution = MoveResolution::kCompleted;
          mv.resolved_wave = wave;
          totals_.committed_j += mv.move.energy_j;
          ++out.completed;
          policy_.record_execution(true);
          break;
        case migration::MigrationOutcome::kVmLost:
          // Post-copy durability hazard: the engine restarts the VM on
          // the *target*, so the placement lands (and is charged) even
          // though the attempt counts as a failure for the policy and
          // the pushed bytes were wasted (the restart re-reads state).
          fleet.move_vm(mv.move.vm, mv.move.target);
          mv.resolution = MoveResolution::kVmLost;
          mv.resolved_wave = wave;
          totals_.committed_j += mv.move.energy_j;
          totals_.wasted_j += mv.move.energy_j * res.wasted_fraction;
          ++out.vm_lost;
          policy_.record_execution(false);
          break;
        case migration::MigrationOutcome::kRolledBack:
          // The VM never left the source; the pushed bytes are waste.
          totals_.wasted_j += mv.move.energy_j * res.wasted_fraction;
          ++out.rolled_back;
          policy_.record_execution(false);
          if (!policy_.arm_retry(mv, wave)) {
            mv.resolution = MoveResolution::kShed;
            mv.resolved_wave = wave;
            totals_.refunded_j += mv.move.energy_j;
            ++out.shed;
          }
          break;
      }
    }
    exec_span.arg("attempts", static_cast<double>(out.executed));
    exec_span.arg("completed", static_cast<double>(out.completed));
  }

  // --- 5. Power off sources this wave fully vacated (the planner's
  // all-or-nothing donors empty exactly when every move landed).
  {
    std::unordered_set<int> sources;
    for (const int id : attempts) {
      const TrackedMove& mv = ledger_[static_cast<std::size_t>(id)];
      if (is_placed(mv.resolution) && mv.resolved_wave == wave && !mv.relief) {
        sources.insert(mv.move.source);
      }
    }
    for (const int h : sources) {
      if (fleet.host(h).powered_on && fleet.host(h).vms.empty()) {
        fleet.set_powered(h, false);
        ++out.hosts_powered_off;
      }
    }
  }

  // --- 6. Rebuild the retry queue and audit the wave.
  pending_.clear();
  totals_.outstanding_j = 0.0;
  for (const TrackedMove& mv : ledger_) {
    if (mv.resolution == MoveResolution::kPending) {
      pending_.push_back(mv.id);
      totals_.outstanding_j += mv.move.energy_j;
    }
  }
  out.degraded = policy_.degraded();
  out.ledger = totals_;
  {
    WAVM3_OBS_SPAN(check_span, "chaos", "invariants");
    out.violations = checker_.check(fleet, ledger_, intervals, totals_);
    check_span.arg("violations", static_cast<double>(out.violations.size()));
  }
  for (const InvariantViolation& v : out.violations) {
    util::log_warn("chaos: invariant violated [" + v.check + "]: " + v.detail);
  }

  out.wave_seconds = seconds_since(wall_start);
  metrics.waves.inc();
  metrics.attempts.inc(static_cast<std::uint64_t>(out.executed));
  metrics.completed.inc(static_cast<std::uint64_t>(out.completed));
  metrics.rolled_back.inc(static_cast<std::uint64_t>(out.rolled_back));
  metrics.vm_lost.inc(static_cast<std::uint64_t>(out.vm_lost));
  metrics.retries.inc(static_cast<std::uint64_t>(out.retries_attempted));
  metrics.sheds.inc(static_cast<std::uint64_t>(out.shed));
  metrics.deferred.inc(static_cast<std::uint64_t>(out.deferred));
  metrics.superseded.inc(static_cast<std::uint64_t>(out.superseded));
  metrics.live_aborts.inc(static_cast<std::uint64_t>(out.live_aborted));
  metrics.relief_moves.inc(static_cast<std::uint64_t>(out.relief_moves));
  metrics.invariant_violations.inc(static_cast<std::uint64_t>(out.violations.size()));
  metrics.planned_j.set(totals_.planned_j);
  metrics.committed_j.set(totals_.committed_j);
  metrics.refunded_j.set(totals_.refunded_j);
  metrics.wasted_j.set(totals_.wasted_j);
  metrics.degraded.set(out.degraded ? 1.0 : 0.0);
  metrics.wave_seconds.observe(out.wave_seconds);
  span.arg("planned", static_cast<double>(out.planned_moves));
  span.arg("executed", static_cast<double>(out.executed));
  span.arg("completed", static_cast<double>(out.completed));
  span.arg("violations", static_cast<double>(out.violations.size()));
  return out;
}

ChaosReport WaveExecutor::run(plan::Fleet& fleet, const plan::PlacementStrategy& strategy,
                              double start_now) {
  ChaosReport report;
  for (int wave = 0; wave < config_.max_waves; ++wave) {
    const double now = start_now + static_cast<double>(wave) * config_.wave_gap_s;
    WaveOutcome out = run_wave(fleet, strategy, wave, now);
    const bool quiescent = out.planned_moves == 0 && out.relief_moves == 0 &&
                           out.retries_attempted == 0 && out.executed == 0 &&
                           out.deferred == 0 && out.invalidated == 0 &&
                           out.live_aborted == 0 && pending_.empty();
    report.invariant_violations += static_cast<int>(out.violations.size());
    report.waves.push_back(std::move(out));
    if (quiescent) {
      report.terminal = true;
      break;
    }
  }

  report.moves_planned = static_cast<int>(ledger_.size());
  for (const TrackedMove& mv : ledger_) {
    switch (mv.resolution) {
      case MoveResolution::kCompleted:
      case MoveResolution::kVmLost: ++report.resolved_placed; break;
      case MoveResolution::kReplanned: ++report.resolved_replanned; break;
      case MoveResolution::kShed:
      case MoveResolution::kPending: ++report.unresolved; break;
    }
  }
  if (report.moves_planned > 0) {
    report.resolution_fraction =
        static_cast<double>(report.resolved_placed + report.resolved_replanned) /
        static_cast<double>(report.moves_planned);
  }
  report.ledger = totals_;
  report.wasted_attempts_j = totals_.wasted_j;
  return report;
}

void WaveExecutor::request_live_abort(int vm) {
  std::lock_guard<std::mutex> lock(abort_mutex_);
  live_abort_vms_.insert(vm);
  ++live_abort_requests_;
}

std::uint64_t WaveExecutor::live_abort_requests() const {
  std::lock_guard<std::mutex> lock(abort_mutex_);
  return live_abort_requests_;
}

stream::DegenerationCallback make_live_abort_hook(WaveExecutor& executor) {
  return [&executor](const stream::DegenerationAlert& alert) {
    if (alert.plan_vm >= 0) executor.request_live_abort(alert.plan_vm);
  };
}

}  // namespace wavm3::chaos
