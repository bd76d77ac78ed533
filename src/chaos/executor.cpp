#include "chaos/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cloud/datacenter.hpp"
#include "workloads/traced_workload.hpp"
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
  link.wire_rate = plan::link_payload_rate(pcfg, src, dst) / link.protocol_efficiency;
  dc.network().set_default_link(link);

  // A VM holding `params` (with its profile at fraction `load` /
  // vcpus) for the whole cell.
  const auto add_vm = [](cloud::Host& host, const std::string& id, const char* type,
                         double ram_bytes, double load, workloads::TracedWorkloadParams params) {
    const cloud::VmSpec spec{type, params.vcpus, ram_bytes};
    params.profile = workloads::LoadProfile::constant(
        std::clamp(load / std::max(1.0, static_cast<double>(params.vcpus)), 0.0, 1.0));
    auto vm = std::make_shared<cloud::Vm>(id, spec);
    vm->set_workload(std::make_shared<workloads::TracedWorkload>(std::move(params)));
    vm->start();
    host.add_vm(std::move(vm));
  };
  // One aggregate CPU stand-in per endpoint, with a nominal RAM footprint.
  const auto add_background = [&](cloud::Host& host, double load, const char* id) {
    if (load <= 1e-9) return;
    add_vm(host, id, "chaos-background", 4096.0, load,
           {.vcpus = host.spec().vcpus, .dirty_pages_per_s_full = 0.0, .working_set_pages = 0});
  };
  add_background(source, std::max(0.0, src.cpu_load - fv.cpu_now), "chaos-bg-source");
  add_background(target, dst.cpu_load, "chaos-bg-target");

  // The planner priced the full RAM allocation; move the same bytes.
  const int vcpus = std::max(1, static_cast<int>(std::ceil(fv.vcpus)));
  const double fraction = std::clamp(fv.cpu_now / static_cast<double>(vcpus), 0.0, 1.0);
  add_vm(source, fv.id, "chaos-migrating", fv.ram_bytes, fv.cpu_now,
         {.vcpus = vcpus,
          .dirty_pages_per_s_full = fraction > 1e-9 ? fv.dirty_now / fraction : 0.0,
          .working_set_pages = fv.working_set_pages,
          .memory_used_fraction = 1.0});

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
                       result.wasted_fraction = wasted_fraction(r);
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
    : config_(std::move(config)), planner_(model, config_.planner),
      loop_(model, config_.planner, config_.replan) {
  WAVM3_REQUIRE(config_.wave_gap_s > 0.0, "wave gap must be positive");
  WAVM3_REQUIRE(config_.max_waves >= 1, "need at least one wave");
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

  // --- 1. Open the wave: relief, due retries, fresh planner moves
  // (what-if: commit happens per completed attempt, not up front).
  fleet.refresh_loads(now, config_.planner.load_window_s);
  const std::vector<int> attempts = loop_.open_wave(
      fleet, wave, now, config_.relief_enabled,
      [&](plan::Fleet& f) {
        return planner_.plan_wave(f, strategy, now, /*commit=*/false).moves;
      },
      out);

  // --- 2. Execute, re-serialising per host on realised durations.
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
    // Attempts are placed in time order per host: none starts before
    // the latest start placed on either endpoint. The slot check only
    // knows the planned duration of the attempt being placed, so a gap
    // before a later placement could let a storm stretch it into that
    // placement; placed in order, every attempt sees realised ends.
    plan::BusyIntervals busy;
    std::unordered_map<int, double> last_start;
    for (const int id : attempts) {
      const plan::ScheduledMove& move = loop_.entry(id).move;
      if (aborted_vms.count(move.vm) != 0) {
        // The live forecast said this migration is degenerating:
        // refund instead of executing; next wave's planner re-prices.
        loop_.refund(id, out.live_aborted);
        continue;
      }
      if (!loop_.revalidate(fleet, id, out)) continue;
      double t_min = std::max(now, move.start_s);
      for (const int h : {move.source, move.target}) {
        if (const auto it = last_start.find(h); it != last_start.end()) {
          t_min = std::max(t_min, it->second);
        }
      }
      const double start = busy.earliest_start(
          fleet, move.source, move.target, std::max(1e-3, move.end_s - move.start_s), t_min);
      if (start > deadline) {
        // Too late to run inside this wave: refund and let the next
        // wave's planner re-price it against the fleet it will find.
        loop_.refund(id, out.deferred);
        continue;
      }

      loop_.start_attempt(id, out);
      WAVM3_OBS_SPAN(move_span, "chaos", "execute_move");
      move_span.arg("vm", static_cast<double>(move.vm));
      move_span.arg("attempt", static_cast<double>(loop_.entry(id).attempts));
      ExecResult res = execute_attempt(fleet, config_.planner, move, start, storm);
      if (!res.started) {
        // The engine rejected the request outright (no bytes moved).
        util::log_warn("chaos: dropping unexecutable move: " + res.reason);
        loop_.refund(id, out.invalidated);
        continue;
      }
      move_span.note("outcome", to_string(res.outcome));
      for (const int h : {move.source, move.target}) {
        busy.add(h, start, res.end_s);
        last_start[h] = start;
        intervals.push_back({h, start, res.end_s});
      }
      loop_.resolve(fleet, id, res.outcome, res.wasted_fraction, out);
    }
    exec_span.arg("attempts", static_cast<double>(out.executed));
    exec_span.arg("completed", static_cast<double>(out.completed));
  }

  // --- 3. Power off sources this wave fully vacated (the planner's
  // all-or-nothing donors empty exactly when every move landed).
  for (const int id : attempts) {
    const TrackedMove& mv = loop_.entry(id);
    const plan::FleetHost& source = fleet.host(mv.move.source);
    if (is_placed(mv.resolution) && mv.resolved_wave == wave && !mv.relief &&
        source.powered_on && source.vms.empty()) {
      fleet.set_powered(mv.move.source, false);
      ++out.hosts_powered_off;
    }
  }

  // --- 4. Rebuild the retry queue and audit the wave.
  loop_.close_wave(fleet, intervals, out);

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
  metrics.relief_unplaced.inc(static_cast<std::uint64_t>(out.relief_unplaced));
  metrics.invariant_violations.inc(static_cast<std::uint64_t>(out.violations.size()));
  metrics.planned_j.set(out.ledger.planned_j);
  metrics.committed_j.set(out.ledger.committed_j);
  metrics.refunded_j.set(out.ledger.refunded_j);
  metrics.wasted_j.set(out.ledger.wasted_j);
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
                           out.live_aborted == 0 && loop_.pending().empty();
    report.invariant_violations += static_cast<int>(out.violations.size());
    report.waves.push_back(std::move(out));
    if (quiescent) {
      report.terminal = true;
      break;
    }
  }

  report.moves_planned = static_cast<int>(loop_.ledger().size());
  for (const TrackedMove& mv : loop_.ledger()) {
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
  report.ledger = report.waves.back().ledger;  // max_waves >= 1
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
