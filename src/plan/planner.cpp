#include "plan/planner.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
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

/// Per-host scheduled migration intervals; feasibility is conservative
/// (an interval overlapping the window anywhere occupies one slot for
/// the whole window).
struct BusyIntervals {
  std::unordered_map<int, std::vector<std::pair<double, double>>> by_host;

  int overlap(int host, double t0, double t1) const {
    const auto it = by_host.find(host);
    if (it == by_host.end()) return 0;
    int n = 0;
    for (const auto& [s, e] : it->second) {
      if (s < t1 && e > t0) ++n;
    }
    return n;
  }

  void add(int host, double t0, double t1) { by_host[host].emplace_back(t0, t1); }
};

/// Earliest start >= t_min at which both endpoints have a free
/// migration slot for `duration`. Candidate instants are t_min and the
/// ends of already-scheduled intervals; past the last end both hosts
/// are idle, so the scan always succeeds.
double earliest_feasible_start(const Fleet& fleet, const BusyIntervals& busy, int source,
                               int target, double duration, double t_min) {
  const int cap_src = std::max(1, fleet.host(source).spec.max_concurrent_migrations);
  const int cap_dst = std::max(1, fleet.host(target).spec.max_concurrent_migrations);
  std::vector<double> starts{t_min};
  for (const int h : {source, target}) {
    const auto it = busy.by_host.find(h);
    if (it == busy.by_host.end()) continue;
    for (const auto& [s, e] : it->second) {
      if (e > t_min) starts.push_back(e);
    }
  }
  std::sort(starts.begin(), starts.end());
  for (const double t : starts) {
    if (busy.overlap(source, t, t + duration) < cap_src &&
        busy.overlap(target, t, t + duration) < cap_dst) {
      return t;
    }
  }
  return starts.back();
}

}  // namespace

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
  const FleetHost& dst = fleet.host(target);
  core::MigrationScenario sc;
  sc.type = config.policy.migration_type;
  sc.vm_mem_bytes = v.ram_bytes;
  sc.vm_cpu_vcpus = v.cpu_now;
  sc.vm_dirty_pages_per_s = v.dirty_now;
  sc.vm_working_set_pages = static_cast<double>(v.working_set_pages);
  sc.source_cpu_load = std::max(0.0, src.cpu_load - v.cpu_now);
  sc.source_cpu_capacity = static_cast<double>(src.spec.vcpus);
  sc.target_cpu_load = dst.cpu_load;
  sc.target_cpu_capacity = static_cast<double>(dst.spec.vcpus);
  sc.link_payload_rate = link_payload_rate(config, src.spec, dst.spec);
  sc.migration = config.migration;
  sc.bandwidth = config.bandwidth;
  return sc;
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

WavePlan MigrationPlanner::plan_wave(Fleet& fleet, const PlacementStrategy& strategy,
                                     double now, bool commit) {
  const auto wall_start = std::chrono::steady_clock::now();
  WAVM3_OBS_SPAN(span, "plan", "wave");
  span.note("strategy", strategy.name());
  PlanMetrics metrics = plan_metrics(strategy.name());
  WavePlan plan;

  fleet.refresh_loads(now, config_.load_window_s);
  const auto count_overloaded = [&] {
    int n = 0;
    for (std::size_t h = 0; h < fleet.host_count(); ++h) {
      const int hi = static_cast<int>(h);
      if (fleet.host(hi).powered_on &&
          fleet.host_utilisation(hi) > config_.policy.overload_fraction) {
        ++n;
      }
    }
    return n;
  };
  plan.overloaded_hosts_before = count_overloaded();

  // Donors: powered, populated, below the underload threshold;
  // emptiest first so the cheapest vacates go first when capped.
  std::vector<int> donors;
  std::size_t powered = 0;
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const int hi = static_cast<int>(h);
    const FleetHost& host = fleet.host(hi);
    if (!host.powered_on) continue;
    ++powered;
    if (host.vms.empty()) continue;
    if (fleet.host_utilisation(hi) < config_.policy.underload_fraction) donors.push_back(hi);
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
  if (config_.max_donors_per_wave > 0 &&
      donors.size() > static_cast<std::size_t>(config_.max_donors_per_wave)) {
    donors.resize(static_cast<std::size_t>(config_.max_donors_per_wave));
  }
  plan.donors_considered = static_cast<int>(donors.size());
  const std::unordered_set<int> donor_set(donors.begin(), donors.end());

  // Receiver orderings: natural (host-index) order for first-fit
  // semantics, per-group lists for rack-local targets, and a
  // most-loaded ordering for tight packing.
  std::vector<int> receivers;
  std::unordered_map<std::string, std::vector<int>> receivers_by_group;
  for (std::size_t h = 0; h < fleet.host_count(); ++h) {
    const int hi = static_cast<int>(h);
    if (!fleet.host(hi).powered_on || donor_set.count(hi) != 0) continue;
    receivers.push_back(hi);
    receivers_by_group[fleet.host(hi).spec.group].push_back(hi);
  }
  std::vector<int> receivers_by_load = receivers;
  std::sort(receivers_by_load.begin(), receivers_by_load.end(), [&](int a, int b) {
    const double ua = fleet.host_utilisation(a);
    const double ub = fleet.host_utilisation(b);
    return ua != ub ? ua > ub : a < b;
  });

  // Workload cycles of the donor VMs' dirtying histories.
  std::unordered_map<int, CycleEstimate> cycles;
  if (config_.cycle_aware) {
    WAVM3_OBS_SPAN(cycle_span, "plan", "cycle_detect");
    const CycleDetector detector(config_.cycles);
    std::size_t analyzed = 0;
    for (const int h : donors) {
      for (const int v : fleet.host(h).vms) {
        const VmHistory& hist = fleet.vm(v).history;
        if (hist.empty()) continue;
        ++analyzed;
        CycleEstimate estimate = detector.analyze(hist.t, hist.dirty);
        if (estimate.periodic) cycles.emplace(v, estimate);
      }
    }
    cycle_span.arg("traces", static_cast<double>(analyzed));
    cycle_span.arg("periodic", static_cast<double>(cycles.size()));
  }

  // Candidate generation: per donor VM, up to candidate_targets
  // destinations drawn from the three orderings (deduplicated), each
  // expanded into a blind — and for periodic VMs an aligned — scenario.
  CandidateSet candidates;
  const auto receiver_ok = [&](int h, const FleetVm& vm) {
    if (!fleet.fits(h, vm)) return false;
    const FleetHost& host = fleet.host(h);
    const double capacity = static_cast<double>(host.spec.vcpus);
    return host.cpu_load + vm.cpu_now <= config_.policy.overload_fraction * capacity;
  };

  const int k_total = config_.candidate_targets;
  const int k_ff = std::max(1, k_total / 3);
  const int k_group = std::max(1, k_total / 3);

  for (const int donor_host : donors) {
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
      std::vector<int> targets;
      std::unordered_set<int> seen;
      const auto take = [&](const std::vector<int>& order, int limit) {
        int taken = 0;
        for (const int h : order) {
          if (taken >= limit || static_cast<int>(targets.size()) >= k_total) break;
          if (h == donor_host || seen.count(h) != 0 || !receiver_ok(h, vm)) continue;
          seen.insert(h);
          targets.push_back(h);
          ++taken;
        }
      };
      take(receivers, k_ff);
      const auto group_it = receivers_by_group.find(fleet.host(donor_host).spec.group);
      if (group_it != receivers_by_group.end()) take(group_it->second, k_group);
      take(receivers_by_load, k_total - static_cast<int>(targets.size()));

      VmCandidates vc;
      vc.vm = v;
      vc.begin = static_cast<int>(candidates.moves.size());
      const auto cycle_it = cycles.find(v);
      for (const int target : targets) {
        ScoredMove move;
        move.vm = v;
        move.source = donor_host;
        move.target = target;
        move.blind.scenario = move_scenario(fleet, v, donor_host, target, config_);

        if (cycle_it != cycles.end()) {
          move.has_aligned = true;
          move.cycle = cycle_it->second;
          // Same move priced at the low-window dirtying rate; the CPU
          // signature is kept (conservative — only the dirtying
          // benefit of the window is claimed).
          move.aligned.scenario = move.blind.scenario;
          move.aligned.scenario.vm_dirty_pages_per_s = move.cycle.low_mean;
        }
        candidates.moves.push_back(std::move(move));
      }
      vc.end = static_cast<int>(candidates.moves.size());
      if (vc.end > vc.begin) donor.vms.push_back(vc);
    }

    // All-or-nothing donors: a VM with no candidates sinks the donor.
    if (donor.vms.size() == fleet.host(donor_host).vms.size()) {
      candidates.donors.push_back(std::move(donor));
    }
  }
  plan.candidates_scored = candidates.moves.size();

  // Price every variant: closed-form timings, then paper Eq. 4 over the
  // forecast phases (core::attach_energy). The span keeps its historical
  // name: traces and perfbench's plan.score_batch_s key on it.
  {
    WAVM3_OBS_SPAN(score_span, "plan", "score_batch");
    const auto score_start = std::chrono::steady_clock::now();
    std::size_t priced = 0;
    const auto price = [&](MoveVariant& variant) {
      variant.forecast = forecaster_.forecast(variant.scenario);
      variant.energy_j = variant.forecast.total_energy();
      ++priced;
    };
    for (ScoredMove& move : candidates.moves) {
      price(move.blind);
      if (move.has_aligned) price(move.aligned);
    }
    plan.scoring_seconds = seconds_since(score_start);
    score_span.arg("scenarios", static_cast<double>(priced));
  }
  metrics.candidates.inc(plan.candidates_scored);
  metrics.score_seconds.observe(plan.scoring_seconds);

  // Target selection.
  std::vector<int> chosen;
  {
    WAVM3_OBS_SPAN(strategy_span, "plan", "strategy");
    chosen = strategy.choose(fleet, candidates, config_);
    strategy_span.arg("chosen", static_cast<double>(chosen.size()));
  }

  // Scheduling under per-host concurrency caps. Periodic VMs snap into
  // the next low-dirtying window inside the horizon when the aligned
  // variant is no dearer; everything else starts as early as slots
  // allow.
  {
    WAVM3_OBS_SPAN(schedule_span, "plan", "schedule");
    BusyIntervals busy;
    for (const int m : chosen) {
      const ScoredMove& move = candidates.moves[static_cast<std::size_t>(m)];
      bool aligned = false;
      double start = 0.0;
      if (move.has_aligned && move.aligned.energy_j <= move.blind.energy_j) {
        const double duration = move.aligned.forecast.times.me;
        for (double w = CycleDetector::next_low_window_start(move.cycle, now);
             w <= now + config_.wave_horizon_s; w += move.cycle.period_s) {
          const double t =
              earliest_feasible_start(fleet, busy, move.source, move.target, duration, w);
          if (t <= w + move.cycle.low_duration_s) {
            start = t;
            aligned = true;
            break;
          }
        }
      }
      if (!aligned) {
        start = earliest_feasible_start(fleet, busy, move.source, move.target,
                                        move.blind.forecast.times.me, now);
      }
      const MoveVariant& variant = aligned ? move.aligned : move.blind;
      const double duration = variant.forecast.times.me;
      busy.add(move.source, start, start + duration);
      busy.add(move.target, start, start + duration);

      ScheduledMove scheduled;
      scheduled.vm = move.vm;
      scheduled.source = move.source;
      scheduled.target = move.target;
      scheduled.start_s = start;
      scheduled.end_s = start + duration;
      scheduled.cycle_aligned = aligned;
      scheduled.energy_j = variant.energy_j;
      scheduled.downtime_s = variant.forecast.downtime;
      plan.moves.push_back(scheduled);

      plan.total_migration_energy_j += scheduled.energy_j;
      plan.total_downtime_s += scheduled.downtime_s;
      if (aligned) ++plan.moves_cycle_aligned;
    }
    std::sort(plan.moves.begin(), plan.moves.end(),
              [](const ScheduledMove& a, const ScheduledMove& b) {
                return a.start_s != b.start_s ? a.start_s < b.start_s : a.vm < b.vm;
              });
    schedule_span.arg("moves", static_cast<double>(plan.moves.size()));
    schedule_span.arg("aligned", static_cast<double>(plan.moves_cycle_aligned));
  }

  // Commit: placements move; donors are all-or-nothing, so every
  // source that appears in the schedule is fully vacated.
  {
    WAVM3_OBS_SPAN(commit_span, "plan", "commit");
    std::unordered_set<int> vacated;
    for (const ScheduledMove& scheduled : plan.moves) vacated.insert(scheduled.source);
    plan.donors_vacated = static_cast<int>(vacated.size());
    plan.steady_saving_j = plan.donors_vacated * donor_saving_j(config_);
    if (commit) {
      for (const ScheduledMove& scheduled : plan.moves) {
        fleet.move_vm(scheduled.vm, scheduled.target);
      }
      for (const int h : vacated) fleet.set_powered(h, false);
      plan.overloaded_hosts_after = count_overloaded();
    } else {
      plan.overloaded_hosts_after = plan.overloaded_hosts_before;
    }
    commit_span.arg("vacated", static_cast<double>(plan.donors_vacated));
  }

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

}  // namespace wavm3::plan
