#include "plan/planner.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace wavm3::plan {

namespace {

/// The wave's metric family, labeled by strategy so first-fit and beam
/// runs stay distinguishable in one registry.
struct PlanMetrics {
  obs::Counter& waves;
  obs::Counter& candidates;
  obs::Counter& moves;
  obs::Counter& donors_vacated;
  obs::Counter& cycle_aligned;
  obs::Counter& cycle_analyses;
  obs::Counter& timing_forecasts;
  obs::Histogram& wave_seconds;
  obs::Histogram& score_seconds;
  obs::Gauge& last_wave_energy;
};

PlanMetrics plan_metrics(const char* strategy) {
  obs::MetricRegistry& r = obs::registry();
  const obs::Labels labels = {{"strategy", strategy}};
  return PlanMetrics{
      r.counter("plan_waves_total", "Consolidation waves planned", labels),
      r.counter("plan_candidates_scored_total", "Candidate (VM, target) moves priced", labels),
      r.counter("plan_moves_committed_total", "Migrations emitted by wave plans", labels),
      r.counter("plan_donors_vacated_total", "Donor hosts fully vacated by wave plans", labels),
      r.counter("plan_cycle_aligned_moves_total",
                "Moves scheduled into a workload-cycle low-dirtying window", labels),
      r.counter("plan_cycle_analyses_total",
                "Workload-cycle analyses run (cycle memo misses, not hits)", labels),
      r.counter("plan_timing_forecasts_total",
                "Pre-copy timing recursions run pricing moves (one per VM run and distinct "
                "transfer bandwidth and link rate for the blind candidates, plus one per "
                "chosen move of a periodic VM for its aligned variant)",
                labels),
      r.exponential_histogram("plan_wave_seconds", "Wall time of one planning wave", 1e-4, 2.0,
                              22, labels),
      r.exponential_histogram("plan_score_seconds", "Wall time pricing wave candidates",
                              1e-5, 2.0, 22, labels),
      r.gauge("plan_last_wave_energy_joules",
              "Predicted migration energy of the last planned wave", labels),
  };
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int BusyIntervals::overlap(int host, double t0, double t1) const {
  const auto it = by_host.find(host);
  if (it == by_host.end()) return 0;
  int n = 0;
  for (const auto& [s, e] : it->second) {
    if (s < t1 && e > t0) ++n;
  }
  return n;
}

double BusyIntervals::earliest_start(const Fleet& fleet, int source, int target,
                                     double duration, double t_min) const {
  const int cap_src = std::max(1, fleet.host(source).spec.max_concurrent_migrations);
  const int cap_dst = std::max(1, fleet.host(target).spec.max_concurrent_migrations);
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

double link_payload_rate(const PlannerConfig& config, const cloud::HostSpec& source,
                         const cloud::HostSpec& target) {
  const auto nic_payload = [&](double nic_rate) {
    return nic_rate > 0.0 ? nic_rate * config.nic_protocol_efficiency
                          : std::numeric_limits<double>::infinity();
  };
  const double group_rate = source.group == target.group ? config.intra_group_payload_rate
                                                         : config.inter_group_payload_rate;
  return std::min({group_rate, nic_payload(source.nic_rate), nic_payload(target.nic_rate)});
}

double donor_saving_j(const PlannerConfig& config) {
  return config.host_power.power(0.0) * config.policy.horizon_seconds;
}

core::MigrationScenario move_scenario(const Fleet& fleet, int vm, int source, int target,
                                      const PlannerConfig& config) {
  const FleetVm& v = fleet.vm(vm);
  const FleetHost& src = fleet.host(source);
  core::MigrationScenario sc;
  sc.type = config.policy.migration_type;
  sc.vm_mem_bytes = v.ram_bytes;
  sc.vm_cpu_vcpus = v.cpu_now;
  sc.vm_dirty_pages_per_s = v.dirty_now;
  sc.vm_working_set_pages = static_cast<double>(v.working_set_pages);
  sc.source_cpu_load = std::max(0.0, src.cpu_load - v.cpu_now);
  sc.source_cpu_capacity = static_cast<double>(src.spec.vcpus);
  const core::TargetSide side = move_target(fleet, source, target, config);
  sc.target_cpu_load = side.cpu_load;
  sc.target_cpu_capacity = side.cpu_capacity;
  sc.link_payload_rate = side.link_payload_rate;
  sc.migration = config.migration;
  sc.bandwidth = config.bandwidth;
  return sc;
}

core::TargetSide move_target(const Fleet& fleet, int source, int target,
                             const PlannerConfig& config) {
  const FleetHost& dst = fleet.host(target);
  return core::TargetSide{dst.cpu_load, static_cast<double>(dst.spec.vcpus),
                          link_payload_rate(config, fleet.host(source).spec, dst.spec)};
}

MigrationPlanner::MigrationPlanner(const core::Wavm3Model& model, PlannerConfig config)
    : forecaster_(model), config_(std::move(config)) {
  const ConsolidationPolicy& policy = config_.policy;
  WAVM3_REQUIRE(policy.underload_fraction > 0.0 && policy.underload_fraction < 1.0,
                "underload fraction must be in (0,1)");
  WAVM3_REQUIRE(policy.overload_fraction > policy.underload_fraction &&
                    policy.overload_fraction <= 1.0,
                "overload fraction must exceed the underload fraction and be at most 1");
  WAVM3_REQUIRE(policy.horizon_seconds > 0.0, "horizon must be positive");
  WAVM3_REQUIRE(config_.candidate_targets > 0, "planner needs at least one candidate target");
  WAVM3_REQUIRE(config_.load_window_s > 0.0 && config_.wave_horizon_s > 0.0,
                "planner windows must be positive");
}

namespace {

static_assert(sizeof(ScoredMove) <= 128, "ScoredMove must stay a lean record");

/// The hosts of one wave: donors to vacate and three receiver orderings.
struct WaveHosts {
  std::vector<int> donors;     ///< emptiest first
  std::vector<int> receivers;  ///< host-index order, for first-fit semantics
  std::unordered_map<std::string, std::vector<int>> receivers_by_group;  ///< rack-local
  std::vector<int> receivers_by_load;  ///< most loaded first, for tight packing
};

int count_overloaded(const Fleet& fleet, const PlannerConfig& config) {
  int n = 0;
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const int hi = static_cast<int>(h);
    if (fleet.host(hi).powered_on &&
        fleet.host_utilisation(hi) > config.policy.overload_fraction) {
      ++n;
    }
  }
  return n;
}

/// VM `v`'s memoised cycle when it is periodic; nullptr when planning
/// is cycle-blind (`detector` null), the VM has no history, or it
/// shows no cycle.
const CycleEstimate* periodic_cycle(Fleet& fleet, const CycleDetector* detector, int v) {
  if (detector == nullptr || fleet.vm(v).history.empty()) return nullptr;
  const CycleEstimate& estimate = fleet.cycle(v, *detector);
  return estimate.periodic ? &estimate : nullptr;
}

/// Stage 1: refreshes loads and picks the wave's donors and receivers.
WaveHosts select_hosts(Fleet& fleet, const PlannerConfig& config, double now, WavePlan& plan) {
  WAVM3_OBS_SPAN(span, "plan", "select");
  fleet.refresh_loads(now, config.load_window_s);
  plan.overloaded_hosts_before = count_overloaded(fleet, config);

  // Donors: powered, populated, below the underload threshold;
  // emptiest first so the cheapest vacates go first when capped.
  WaveHosts hosts;
  std::vector<int>& donors = hosts.donors;
  std::size_t powered = 0;
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const int hi = static_cast<int>(h);
    const FleetHost& host = fleet.host(hi);
    if (!host.powered_on) continue;
    ++powered;
    if (host.vms.empty()) continue;
    if (fleet.host_utilisation(hi) < config.policy.underload_fraction) donors.push_back(hi);
  }
  std::sort(donors.begin(), donors.end(), [&](int a, int b) {
    const double ua = fleet.host_utilisation(a);
    const double ub = fleet.host_utilisation(b);
    return ua != ub ? ua < ub : a < b;
  });
  // At most half the powered fleet donates per wave: when (nearly)
  // every host is underloaded, the fuller half must stay as the
  // receiving side — rolling waves converge over repeated calls.
  if (donors.size() > powered / 2) donors.resize(powered / 2);
  if (config.max_donors_per_wave > 0 &&
      donors.size() > static_cast<std::size_t>(config.max_donors_per_wave)) {
    donors.resize(static_cast<std::size_t>(config.max_donors_per_wave));
  }
  plan.donors_considered = static_cast<int>(donors.size());
  const std::unordered_set<int> donor_set(donors.begin(), donors.end());

  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const int hi = static_cast<int>(h);
    if (!fleet.host(hi).powered_on || donor_set.count(hi) != 0) continue;
    hosts.receivers.push_back(hi);
    hosts.receivers_by_group[fleet.host(hi).spec.group].push_back(hi);
  }
  hosts.receivers_by_load = hosts.receivers;
  std::sort(hosts.receivers_by_load.begin(), hosts.receivers_by_load.end(), [&](int a, int b) {
    const double ua = fleet.host_utilisation(a);
    const double ub = fleet.host_utilisation(b);
    return ua != ub ? ua > ub : a < b;
  });
  span.arg("donors", static_cast<double>(donors.size()));
  span.arg("receivers", static_cast<double>(hosts.receivers.size()));
  return hosts;
}

/// Stage 2: fills the fleet's cycle memo for every donor VM with a
/// history. Only memo misses run an analysis; `analyses` counts them.
void detect_cycles(Fleet& fleet, const std::vector<int>& donors, const CycleDetector& detector,
                   obs::Counter& analyses) {
  WAVM3_OBS_SPAN(span, "plan", "cycle_detect");
  const std::size_t analyses_before = fleet.cycle_analyses();
  std::size_t lookups = 0;
  std::size_t periodic = 0;
  for (const int h : donors) {
    for (const int v : fleet.host(h).vms) {
      if (fleet.vm(v).history.empty()) continue;
      ++lookups;
      if (fleet.cycle(v, detector).periodic) ++periodic;
    }
  }
  const std::size_t ran = fleet.cycle_analyses() - analyses_before;
  analyses.inc(ran);
  span.arg("traces", static_cast<double>(ran));
  span.arg("memo_hits", static_cast<double>(lookups - ran));
  span.arg("periodic", static_cast<double>(periodic));
}

/// Stage 3a: per donor VM, up to candidate_targets destinations drawn
/// from the three receiver orderings (deduplicated). A move of a
/// periodic VM is marked has_aligned. First drops from the orderings
/// every receiver that cannot take even the wave's smallest donor VM.
CandidateSet generate_candidates(Fleet& fleet, WaveHosts& hosts, const PlannerConfig& config,
                                 const CycleDetector* detector) {
  WAVM3_OBS_SPAN(span, "plan", "candidates");
  const auto receiver_ok = [&](int h, const FleetVm& vm) {
    if (!fleet.fits(h, vm)) return false;
    const FleetHost& host = fleet.host(h);
    const double capacity = static_cast<double>(host.spec.vcpus);
    return host.cpu_load + vm.cpu_now <= config.policy.overload_fraction * capacity;
  };

  // Both receiver_ok checks are sums monotone in the VM's RAM and CPU,
  // so a host that fails them for the least RAM and the least CPU of
  // any donor VM fails them for every donor VM. Dropping such hosts
  // is exact, and it keeps each VM's scans off the full hosts that
  // lead the first-fit and most-loaded orders after earlier waves.
  FleetVm smallest;
  smallest.ram_bytes = std::numeric_limits<double>::infinity();
  smallest.cpu_now = std::numeric_limits<double>::infinity();
  for (const int h : hosts.donors) {
    for (const int v : fleet.host(h).vms) {
      smallest.ram_bytes = std::min(smallest.ram_bytes, fleet.vm(v).ram_bytes);
      smallest.cpu_now = std::min(smallest.cpu_now, fleet.vm(v).cpu_now);
    }
  }
  const auto cannot_receive = [&](int h) { return !receiver_ok(h, smallest); };
  std::erase_if(hosts.receivers, cannot_receive);
  for (auto& [group, order] : hosts.receivers_by_group) std::erase_if(order, cannot_receive);
  std::erase_if(hosts.receivers_by_load, cannot_receive);

  const int k_total = config.candidate_targets;
  const int k_ff = std::max(1, k_total / 3);
  const int k_group = std::max(1, k_total / 3);

  CandidateSet candidates;
  std::size_t donor_vms_total = 0;
  for (const int h : hosts.donors) donor_vms_total += fleet.host(h).vms.size();
  candidates.moves.reserve(donor_vms_total * static_cast<std::size_t>(k_total));
  candidates.donors.reserve(hosts.donors.size());

  std::vector<int> targets;
  for (const int donor_host : hosts.donors) {
    DonorCandidates donor;
    donor.host = donor_host;
    std::vector<int> donor_vms(fleet.host(donor_host).vms);
    // First-fit-decreasing order: big RAM first.
    std::sort(donor_vms.begin(), donor_vms.end(), [&](int a, int b) {
      const double ra = fleet.vm(a).ram_bytes;
      const double rb = fleet.vm(b).ram_bytes;
      return ra != rb ? ra > rb : a < b;
    });

    for (const int v : donor_vms) {
      const FleetVm& vm = fleet.vm(v);
      targets.clear();
      const auto take = [&](const std::vector<int>& order, int limit) {
        int taken = 0;
        for (const int h : order) {
          if (taken >= limit || static_cast<int>(targets.size()) >= k_total) break;
          if (h == donor_host || !receiver_ok(h, vm) ||
              std::find(targets.begin(), targets.end(), h) != targets.end()) {
            continue;
          }
          targets.push_back(h);
          ++taken;
        }
      };
      take(hosts.receivers, k_ff);
      const auto group_it = hosts.receivers_by_group.find(fleet.host(donor_host).spec.group);
      if (group_it != hosts.receivers_by_group.end()) take(group_it->second, k_group);
      take(hosts.receivers_by_load, k_total - static_cast<int>(targets.size()));

      VmCandidates vc;
      vc.vm = v;
      vc.begin = static_cast<int>(candidates.moves.size());
      const bool has_aligned = periodic_cycle(fleet, detector, v) != nullptr;
      for (const int target : targets) {
        ScoredMove move;
        move.vm = v;
        move.source = donor_host;
        move.target = target;
        move.has_aligned = has_aligned;
        candidates.moves.push_back(move);
      }
      vc.end = static_cast<int>(candidates.moves.size());
      if (vc.end > vc.begin) donor.vms.push_back(vc);
    }

    // All-or-nothing donors: a VM with no candidates sinks the donor.
    if (donor.vms.size() == fleet.host(donor_host).vms.size()) {
      candidates.donors.push_back(std::move(donor));
    }
  }
  span.arg("receivers", static_cast<double>(hosts.receivers.size()));
  span.arg("moves", static_cast<double>(candidates.moves.size()));
  return candidates;
}

/// The lean record of one forecast.
MoveVariant variant_of(const core::MigrationForecast& fc) {
  return MoveVariant{fc.total_energy(), fc.times.me, fc.downtime};
}

/// Stage 3b: prices every candidate's blind variant through the
/// closed-form forecast (timings, then paper Eq. 4 over the forecast
/// phases). One VM's moves are contiguous, so each run of equal (vm,
/// source) is priced by one forecast_targets call; `timing_forecasts`
/// counts the recursions those calls run. Aligned variants are priced
/// by schedule_moves, for chosen moves only. Returns the wall time
/// spent. The span keeps its historical name: traces and perfbench's
/// plan.score_batch_s key on it.
double price_candidates(const Fleet& fleet, CandidateSet& candidates,
                        const core::MigrationPlanner& forecaster, const PlannerConfig& config,
                        obs::Counter& timing_forecasts) {
  WAVM3_OBS_SPAN(span, "plan", "score_batch");
  const auto start = std::chrono::steady_clock::now();
  std::vector<ScoredMove>& moves = candidates.moves;
  std::vector<core::TargetSide> targets;
  std::vector<core::MigrationForecast> forecasts;
  std::size_t priced = 0;
  std::size_t timings = 0;
  for (std::size_t begin = 0, end = 0; begin < moves.size(); begin = end) {
    const ScoredMove& first = moves[begin];
    targets.clear();
    for (end = begin; end < moves.size() && moves[end].vm == first.vm &&
                      moves[end].source == first.source;
         ++end) {
      targets.push_back(move_target(fleet, first.source, moves[end].target, config));
    }
    forecasts.resize(targets.size());
    const core::MigrationScenario scenario =
        move_scenario(fleet, first.vm, first.source, first.target, config);
    timings += forecaster.forecast_targets(scenario, targets, forecasts);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      moves[begin + i].blind = variant_of(forecasts[i]);
    }
    priced += targets.size();
  }
  timing_forecasts.inc(timings);
  span.arg("scenarios", static_cast<double>(priced));
  span.arg("timings", static_cast<double>(timings));
  return seconds_since(start);
}

/// Stage 4: the strategy picks one candidate per donor VM.
std::vector<int> choose_moves(const Fleet& fleet, const PlacementStrategy& strategy,
                              const CandidateSet& candidates, const PlannerConfig& config) {
  WAVM3_OBS_SPAN(span, "plan", "strategy");
  std::vector<int> chosen = strategy.choose(fleet, candidates, config);
  span.arg("chosen", static_cast<double>(chosen.size()));
  return chosen;
}

/// Stage 5: schedules the chosen moves under per-host concurrency
/// caps. A chosen move of a periodic VM is priced here at the cycle's
/// low-window dirtying rate — the aligned variant, the same move with
/// the same CPU signature (conservative: only the dirtying benefit of
/// the window is claimed) — through the same forecast as the blind
/// candidates, and counted in `timing_forecasts`. It snaps into the
/// next low-dirtying window inside the horizon when that variant is no
/// dearer; everything else starts as early as slots allow.
void schedule_moves(Fleet& fleet, const CandidateSet& candidates, const std::vector<int>& chosen,
                    const core::MigrationPlanner& forecaster, const PlannerConfig& config,
                    const CycleDetector* detector, double now, obs::Counter& timing_forecasts,
                    WavePlan& plan) {
  WAVM3_OBS_SPAN(span, "plan", "schedule");
  BusyIntervals busy;
  plan.moves.reserve(chosen.size());
  std::size_t priced = 0;
  for (const int m : chosen) {
    const ScoredMove& move = candidates.moves[static_cast<std::size_t>(m)];
    bool aligned = false;
    double start = 0.0;
    const CycleEstimate* cycle =
        move.has_aligned ? periodic_cycle(fleet, detector, move.vm) : nullptr;
    MoveVariant low;
    if (cycle != nullptr) {
      core::MigrationScenario scenario =
          move_scenario(fleet, move.vm, move.source, move.target, config);
      scenario.vm_dirty_pages_per_s = cycle->low_mean;
      low = variant_of(forecaster.forecast(scenario));
      ++priced;
      if (low.energy_j <= move.blind.energy_j) {
        for (double w = CycleDetector::next_low_window_start(*cycle, now);
             w <= now + config.wave_horizon_s; w += cycle->period_s) {
          const double t =
              busy.earliest_start(fleet, move.source, move.target, low.duration_s, w);
          if (t <= w + cycle->low_duration_s) {
            start = t;
            aligned = true;
            break;
          }
        }
      }
    }
    if (!aligned) {
      start = busy.earliest_start(fleet, move.source, move.target, move.blind.duration_s, now);
    }
    const MoveVariant& variant = aligned ? low : move.blind;
    busy.add(move.source, start, start + variant.duration_s);
    busy.add(move.target, start, start + variant.duration_s);

    ScheduledMove scheduled;
    scheduled.vm = move.vm;
    scheduled.source = move.source;
    scheduled.target = move.target;
    scheduled.start_s = start;
    scheduled.end_s = start + variant.duration_s;
    scheduled.cycle_aligned = aligned;
    scheduled.energy_j = variant.energy_j;
    scheduled.downtime_s = variant.downtime_s;
    plan.moves.push_back(scheduled);

    plan.total_migration_energy_j += scheduled.energy_j;
    plan.total_downtime_s += scheduled.downtime_s;
    if (aligned) ++plan.moves_cycle_aligned;
  }
  std::sort(plan.moves.begin(), plan.moves.end(),
            [](const ScheduledMove& a, const ScheduledMove& b) {
              return a.start_s != b.start_s ? a.start_s < b.start_s : a.vm < b.vm;
            });
  timing_forecasts.inc(priced);
  span.arg("moves", static_cast<double>(plan.moves.size()));
  span.arg("aligned_priced", static_cast<double>(priced));
  span.arg("aligned", static_cast<double>(plan.moves_cycle_aligned));
}

/// Stage 6: books the vacated donors' saving and, when `commit`,
/// applies the plan — placements move and vacated donors power off.
/// Donors are all-or-nothing, so every source in the schedule is fully
/// vacated.
void commit_wave(Fleet& fleet, const PlannerConfig& config, bool commit, WavePlan& plan) {
  WAVM3_OBS_SPAN(span, "plan", "commit");
  std::unordered_set<int> vacated;
  for (const ScheduledMove& scheduled : plan.moves) vacated.insert(scheduled.source);
  plan.donors_vacated = static_cast<int>(vacated.size());
  plan.steady_saving_j = plan.donors_vacated * donor_saving_j(config);
  if (commit) {
    for (const ScheduledMove& scheduled : plan.moves) {
      fleet.move_vm(scheduled.vm, scheduled.target);
    }
    for (const int h : vacated) fleet.set_powered(h, false);
    plan.overloaded_hosts_after = count_overloaded(fleet, config);
  } else {
    plan.overloaded_hosts_after = plan.overloaded_hosts_before;
  }
  span.arg("vacated", static_cast<double>(plan.donors_vacated));
}

}  // namespace

WavePlan MigrationPlanner::plan_wave(Fleet& fleet, const PlacementStrategy& strategy,
                                     double now, bool commit) {
  const auto wall_start = std::chrono::steady_clock::now();
  WAVM3_OBS_SPAN(span, "plan", "wave");
  span.note("strategy", strategy.name());
  PlanMetrics metrics = plan_metrics(strategy.name());
  WavePlan plan;
  std::optional<CycleDetector> cycle_detector;
  if (config_.cycle_aware) cycle_detector.emplace(config_.cycles);
  const CycleDetector* detector = cycle_detector ? &*cycle_detector : nullptr;

  WaveHosts hosts = select_hosts(fleet, config_, now, plan);
  if (detector != nullptr) detect_cycles(fleet, hosts.donors, *detector, metrics.cycle_analyses);
  CandidateSet candidates = generate_candidates(fleet, hosts, config_, detector);
  plan.candidates_scored = candidates.moves.size();
  plan.scoring_seconds =
      price_candidates(fleet, candidates, forecaster_, config_, metrics.timing_forecasts);
  metrics.candidates.inc(plan.candidates_scored);
  metrics.score_seconds.observe(plan.scoring_seconds);
  const std::vector<int> chosen = choose_moves(fleet, strategy, candidates, config_);
  schedule_moves(fleet, candidates, chosen, forecaster_, config_, detector, now,
                 metrics.timing_forecasts, plan);
  commit_wave(fleet, config_, commit, plan);

  plan.wave_seconds = seconds_since(wall_start);
  metrics.waves.inc();
  metrics.moves.inc(plan.moves.size());
  metrics.donors_vacated.inc(static_cast<std::uint64_t>(plan.donors_vacated));
  metrics.cycle_aligned.inc(static_cast<std::uint64_t>(plan.moves_cycle_aligned));
  metrics.wave_seconds.observe(plan.wave_seconds);
  metrics.last_wave_energy.set(plan.total_migration_energy_j);
  span.arg("donors", static_cast<double>(plan.donors_considered));
  span.arg("moves", static_cast<double>(plan.moves.size()));
  span.arg("energy_j", plan.total_migration_energy_j);
  return plan;
}

ReliefPlan relief_moves(Fleet& fleet, const PlannerConfig& config,
                        const core::Wavm3Model& model, double now,
                        const std::unordered_set<int>& owned) {
  const double line = config.policy.overload_fraction;
  const std::size_t n_hosts = fleet.host_count();
  // Raw demand, not the capped host_utilisation(): a host at 1.3x
  // capacity must shed more than one at 1.01x.
  const auto demand = [&](int h) { return fleet.host(h).cpu_load / fleet.host(h).spec.vcpus; };

  ReliefPlan relief;
  std::vector<int> overloaded;
  std::vector<bool> is_overloaded(n_hosts, false);
  for (std::size_t h = 0; h < n_hosts; ++h) {
    const FleetHost& host = fleet.host(static_cast<int>(h));
    if (host.powered_on && host.spec.vcpus > 0 && demand(static_cast<int>(h)) > line) {
      overloaded.push_back(static_cast<int>(h));
      is_overloaded[h] = true;
    }
  }
  std::sort(overloaded.begin(), overloaded.end(), [&](int a, int b) {
    return demand(a) != demand(b) ? demand(a) > demand(b) : a < b;
  });
  relief.overloaded_hosts = static_cast<int>(overloaded.size());
  if (overloaded.empty()) return relief;

  const core::MigrationPlanner forecaster(model);
  std::vector<double> extra_cpu(n_hosts, 0.0);  ///< planned arrivals per receiver
  std::vector<double> extra_ram(n_hosts, 0.0);
  const auto has_room = [&](std::size_t r, const FleetVm& vm) {
    const FleetHost& recv = fleet.host(static_cast<int>(r));
    return !is_overloaded[r] && recv.spec.vcpus > 0 &&
           recv.ram_committed + extra_ram[r] + vm.ram_bytes <= recv.spec.ram_bytes &&
           recv.cpu_load + extra_cpu[r] + vm.cpu_now <= line * recv.spec.vcpus;
  };

  for (const int h : overloaded) {
    double load = fleet.host(h).cpu_load;
    const double cap = static_cast<double>(fleet.host(h).spec.vcpus);
    std::vector<int> vms(fleet.host(h).vms);
    std::sort(vms.begin(), vms.end(), [&](int a, int b) {
      const double ca = fleet.vm(a).cpu_now;
      const double cb = fleet.vm(b).cpu_now;
      return ca != cb ? ca < cb : a < b;
    });
    for (const int v : vms) {
      if (load <= line * cap) break;
      if (static_cast<int>(relief.moves.size()) >= kMaxReliefMoves) break;
      if (owned.count(v) != 0) continue;
      const FleetVm& vm = fleet.vm(v);
      if (vm.cpu_now <= 0.0) break;  // sorted ascending: nothing left to shed
      int best = -1;
      double best_load = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < n_hosts; ++r) {
        if (!fleet.host(static_cast<int>(r)).powered_on || !has_room(r, vm)) continue;
        const double r_cpu = fleet.host(static_cast<int>(r)).cpu_load + extra_cpu[r];
        if (r_cpu < best_load) {
          best = static_cast<int>(r);
          best_load = r_cpu;
        }
      }
      // No running host fits: wake the first standby host that does.
      for (std::size_t r = 0; r < n_hosts && best < 0; ++r) {
        if (fleet.host(static_cast<int>(r)).powered_on || !has_room(r, vm)) continue;
        best = static_cast<int>(r);
        fleet.set_powered(best, true);
      }
      if (best < 0) {
        ++relief.unplaced;
        continue;
      }
      const core::MigrationForecast fc =
          forecaster.forecast(move_scenario(fleet, v, h, best, config));
      relief.moves.push_back(ScheduledMove{v, h, best, now, now + fc.times.me, false,
                                           fc.total_energy(), fc.downtime});
      extra_cpu[static_cast<std::size_t>(best)] += vm.cpu_now;
      extra_ram[static_cast<std::size_t>(best)] += vm.ram_bytes;
      load -= vm.cpu_now;
    }
  }
  return relief;
}

}  // namespace wavm3::plan
