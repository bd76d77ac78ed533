#include "migration/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::migration {

namespace {
constexpr double kMinRoundSeconds = 1e-3;   // zero-byte rounds still take an instant
constexpr double kMinBandwidth = 1e5;       // 100 kB/s floor; keeps durations finite

using obs::sim_ns;

/// One complete trace event per migration phase on the simulated-time
/// track, each annotated with the paper's regressor values (DR, BW,
/// CPU), plus the outcome as a string note — the Perfetto view of
/// Eq. 3's phase decomposition. Emitted once, when the record closes
/// (the timestamps are only final then). `vcpus` is the migrating VM's
/// CPU regressor, `dirty_bytes_per_s` the jitter-adjusted DR, `mean_bw`
/// the achieved transfer bandwidth.
void emit_phase_spans(const MigrationRecord& r, double vcpus, double dirty_bytes_per_s,
                      double mean_bw) {
  obs::Tracer& tr = obs::tracer();
  if (!tr.enabled()) return;
  const char* outcome = to_string(r.outcome);
  const std::initializer_list<obs::TraceArg> args = {
      {"DR_bytes_per_s", dirty_bytes_per_s},
      {"BW_bytes_per_s", mean_bw},
      {"CPU_vcpus", vcpus},
      {"rounds", static_cast<double>(r.precopy_rounds)}};
  const std::uint64_t ms = sim_ns(r.times.ms);
  const std::uint64_t ts = sim_ns(r.times.ts);
  const std::uint64_t te = sim_ns(r.times.te);
  const std::uint64_t me = sim_ns(r.times.me);
  tr.emit_complete("migration", "initiation", ms, ts >= ms ? ts - ms : 0, args, "outcome",
                   outcome, obs::kSimPid);
  tr.emit_complete("migration", "transfer", ts, te >= ts ? te - ts : 0, args, "outcome",
                   outcome, obs::kSimPid);
  tr.emit_complete("migration", "activation", te, me >= te ? me - te : 0, args, "outcome",
                   outcome, obs::kSimPid);
  if (r.outcome != MigrationOutcome::kCompleted) {
    tr.emit_instant("migration", "migration_failed", me, {}, "reason",
                    // failure_reason is a std::string; the event stores
                    // only pointers, so annotate the stable phase name.
                    to_string(r.failure_phase), obs::kSimPid);
  }
}

/// Registers the migration counters in the global registry once and
/// bumps them per completed record.
void count_migration(const MigrationRecord& r) {
  obs::MetricRegistry& reg = obs::registry();
  reg.counter("migration_total", "Migrations finished, by outcome",
              {{"outcome", to_string(r.outcome)}})
      .inc();
  reg.gauge("migration_bytes_total", "Payload bytes moved by finished migrations")
      .add(r.total_bytes);
  reg.gauge("migration_wasted_bytes_total", "Bytes discarded by failed migrations")
      .add(r.wasted_bytes);
  reg.gauge("migration_downtime_seconds_total", "Accumulated VM downtime").add(r.downtime);
  if (r.degenerated_to_nonlive) {
    reg.counter("migration_degenerated_total", "Live migrations degenerated to non-live")
        .inc();
  }
}
}  // namespace

const char* to_string(MigrationType t) {
  switch (t) {
    case MigrationType::kNonLive: return "non-live";
    case MigrationType::kLive: return "live";
    case MigrationType::kPostCopy: return "post-copy";
  }
  return "?";
}

const char* to_string(MigrationOutcome o) {
  switch (o) {
    case MigrationOutcome::kCompleted: return "completed";
    case MigrationOutcome::kRolledBack: return "rolled-back";
    case MigrationOutcome::kVmLost: return "vm-lost";
  }
  return "?";
}

MigrationEngine::MigrationEngine(sim::Simulator& simulator, cloud::DataCenter& datacenter,
                                 net::BandwidthModel bandwidth_model, MigrationConfig config)
    : sim_(simulator), dc_(datacenter), bandwidth_model_(bandwidth_model), config_(config) {
  WAVM3_REQUIRE(config_.initiation_duration > 0.0, "initiation duration must be positive");
  WAVM3_REQUIRE(config_.max_precopy_rounds >= 1, "need at least one pre-copy round");
  WAVM3_REQUIRE(config_.max_transfer_factor >= 1.0, "transfer factor must allow one full pass");
  WAVM3_REQUIRE(config_.resume_point_fraction > 0.0 && config_.resume_point_fraction < 1.0,
                "resume point must fall inside the activation phase");
  WAVM3_REQUIRE(config_.postcopy_restart_duration > 0.0,
                "post-copy restart duration must be positive");
}

void MigrationEngine::migrate(const std::string& vm_id, const std::string& source_host,
                              const std::string& target_host, MigrationType type,
                              RunJitter jitter, CompletionFn on_complete) {
  WAVM3_REQUIRE(!active_, "a migration is already in flight");
  WAVM3_REQUIRE(source_host != target_host, "source and target must differ");
  WAVM3_REQUIRE(jitter.bandwidth_factor > 0.0 && jitter.initiation_factor > 0.0 &&
                    jitter.activation_factor > 0.0 && jitter.dirty_rate_factor >= 0.0,
                "jitter factors must be positive");

  cloud::Host* source = dc_.host(source_host);
  cloud::Host* target = dc_.host(target_host);
  WAVM3_REQUIRE(source != nullptr, "unknown source host: " + source_host);
  WAVM3_REQUIRE(target != nullptr, "unknown target host: " + target_host);

  // Xen cannot migrate between incompatible architectures (paper SI):
  // only homogeneous pairs are legal.
  WAVM3_REQUIRE(source->spec().cpu_architecture == target->spec().cpu_architecture,
                "incompatible host architectures: " + source->spec().cpu_architecture +
                    " vs " + target->spec().cpu_architecture);

  cloud::VmPtr vm = source->vm(vm_id);
  WAVM3_REQUIRE(vm != nullptr, "VM not on source host: " + vm_id);
  WAVM3_REQUIRE(vm->state() == cloud::VmState::kRunning, "can only migrate a running VM");
  WAVM3_REQUIRE(target->can_fit(vm->spec()), "VM does not fit on target host");

  net::Link* link = dc_.network().link_between(source_host, target_host);
  WAVM3_REQUIRE(link != nullptr, "hosts are not connected");

  const double now = sim_.now();
  ActiveState st;
  st.record.vm_id = vm_id;
  st.record.source = source_host;
  st.record.target = target_host;
  st.record.type = type;
  st.record.times.ms = now;
  st.jitter = jitter;
  st.on_complete = std::move(on_complete);
  st.source = source;
  st.target = target;
  st.vm = vm;
  st.link = link;
  st.mem_pages = static_cast<double>(vm->ram_pages());
  st.working_set_pages = static_cast<double>(vm->working_set_pages());
  st.dirty_rate_pages = vm->dirty_page_rate(now) * jitter.dirty_rate_factor;

  // Initiation: connection setup, target resource checks. Non-live
  // migration suspends the VM right at the start (SIII-D b), which is
  // the power drop Fig. 3a shows.
  st.source_lifecycle = true;
  st.target_lifecycle = true;
  st.perf_last_time = now;
  active_ = std::move(st);

  if (type == MigrationType::kNonLive) {
    active_->vm->suspend();
    active_->suspended_at = now;
  }
  active_->source->set_migration_cpu_demand(config_.initiation_cpu);
  active_->target->set_migration_cpu_demand(config_.initiation_cpu);

  const double init_duration = config_.initiation_duration * jitter.initiation_factor;
  active_->pending_phase_event = sim_.schedule_in(init_duration, [this] { on_initiation_end(); });

  // Arm the fault plan's connection losses: phase-bound initiation
  // losses now, absolute-time losses at their scheduled instant (both
  // self-ignore if the migration has moved on; see request_abort).
  if (fault_plan_ != nullptr) {
    if (std::optional<double> at = fault_plan_->next_loss_at_or_after(now)) {
      active_->fault_events.push_back(sim_.schedule_at(
          *at, [this] { request_abort(faults::FaultPhase::kAny, "connection lost"); }));
    }
    arm_phase_loss(faults::FaultPhase::kInitiation);
  }
}

void MigrationEngine::arm_phase_loss(faults::FaultPhase phase) {
  if (fault_plan_ == nullptr || !active_) return;
  const std::optional<double> offset = fault_plan_->loss_offset_in(phase);
  if (!offset) return;
  active_->fault_events.push_back(sim_.schedule_in(*offset, [this, phase] {
    request_abort(phase, std::string("connection lost during ") + faults::to_string(phase));
  }));
}

void MigrationEngine::request_abort(faults::FaultPhase expected, const std::string& reason) {
  if (!active_) return;
  const MigrationPhase phase = current_phase();
  // After te the target holds the complete VM state and finishes the
  // activation unilaterally: a lost migration connection no longer
  // matters, so losses landing there (or stale phase-bound events) are
  // ignored.
  if (phase != MigrationPhase::kInitiation && phase != MigrationPhase::kTransfer) return;
  if (expected == faults::FaultPhase::kInitiation && phase != MigrationPhase::kInitiation)
    return;
  if (expected == faults::FaultPhase::kTransfer && phase != MigrationPhase::kTransfer) return;
  abort_active(reason);
}

void MigrationEngine::cancel_fault_events() {
  if (!active_) return;
  for (const sim::EventId id : active_->fault_events) sim_.cancel(id);
  active_->fault_events.clear();
}

void MigrationEngine::abort_active(const std::string& reason) {
  WAVM3_ASSERT(active_.has_value(), "abort without active migration");
  ActiveState& st = *active_;
  const double now = sim_.now();
  const MigrationPhase phase = current_phase();
  WAVM3_ASSERT(phase == MigrationPhase::kInitiation || phase == MigrationPhase::kTransfer,
               "can only abort during initiation or transfer");
  accrue_vm_performance();
  sim_.cancel(st.pending_phase_event);
  cancel_fault_events();

  // Partial-round accounting: a round's bytes are booked up-front at
  // round start, so the in-flight round keeps only what actually made
  // it across before the connection died.
  if (phase == MigrationPhase::kTransfer && !st.record.rounds.empty()) {
    RoundInfo& round = st.record.rounds.back();
    if (round.duration == 0.0) {  // still in flight
      const double elapsed = now - round.start;
      const double sent = std::min(round.bytes, st.round_bandwidth * elapsed);
      const double unsent = round.bytes - sent;
      round.bytes = sent;
      round.duration = elapsed;
      st.record.total_bytes -= unsent;
      st.link->refund_transfer(unsent);
    }
  }

  MigrationOutcome outcome = MigrationOutcome::kRolledBack;
  if (st.in_postcopy_pull) {
    // Post-copy pull failure: the VM already executes on the target
    // but most of its memory is stranded on the source — it cannot
    // make progress. Documented semantics (see MigrationOutcome): the
    // VM is lost and reboots from persistent state on the target.
    outcome = MigrationOutcome::kVmLost;
    st.vm->stop();
    const cloud::VmPtr vm = st.vm;
    sim_.schedule_in(config_.postcopy_restart_duration, [vm] {
      if (vm->state() == cloud::VmState::kStopped) vm->start();
    });
    st.record.downtime += config_.postcopy_restart_duration;
  } else {
    // Pre-copy (and non-live, and the post-copy handoff): memory moves
    // ahead of the VM, so the VM never left the source. Roll back: a
    // suspended VM resumes on the spot, a running one never noticed.
    if (st.vm->state() == cloud::VmState::kSuspended) {
      st.vm->resume();
      if (st.suspended_at >= 0.0) st.record.downtime = now - st.suspended_at;
    }
  }
  st.in_postcopy_handoff = false;
  st.in_postcopy_pull = false;
  st.in_stop_and_copy = false;

  // Close the record with what actually happened. te/me collapse onto
  // the abort instant (rollback cleanup is treated as instantaneous);
  // everything pushed was discarded, so it is all waste.
  if (phase == MigrationPhase::kInitiation) st.record.times.ts = now;
  st.record.times.te = now;
  st.record.times.me = now;
  st.record.wasted_bytes = st.record.total_bytes;
  st.record.outcome = outcome;
  st.record.failure_phase = phase;
  st.record.failure_reason = reason;
  const double span = st.record.times.total_duration();
  st.record.vm_mean_performance = span > 0.0 ? st.perf_integral / span : 1.0;
  st.source_lifecycle = false;
  st.target_lifecycle = false;
  clear_migration_demands();

  WAVM3_ASSERT(st.record.times.well_formed(), "phase timestamps out of order");
  {
    const double transfer_s = st.record.times.te - st.record.times.ts;
    emit_phase_spans(st.record, static_cast<double>(st.vm->spec().vcpus),
                     st.dirty_rate_pages * static_cast<double>(util::kPageSize),
                     transfer_s > 0.0 ? st.record.total_bytes / transfer_s : 0.0);
    count_migration(st.record);
  }
  completed_.push_back(st.record);
  CompletionFn cb = std::move(st.on_complete);
  active_.reset();
  if (cb) cb(completed_.back());
  start_next_queued();
}

double MigrationEngine::current_vm_performance() const {
  const ActiveState& st = *active_;
  if (st.vm->state() != cloud::VmState::kRunning) return 0.0;
  const double t = sim_.now();
  const double demand = st.vm->cpu_demand(t);
  if (demand <= 0.0) return 1.0;
  const cloud::Host* host =
      st.source->has_vm(st.vm->id()) ? st.source
                                     : (st.target->has_vm(st.vm->id()) ? st.target : nullptr);
  if (host == nullptr) return 0.0;
  return std::clamp(host->cpu_granted_to(st.vm->id(), t) / demand, 0.0, 1.0);
}

void MigrationEngine::accrue_vm_performance() {
  ActiveState& st = *active_;
  const double now = sim_.now();
  if (now > st.perf_last_time) {
    st.perf_integral += current_vm_performance() * (now - st.perf_last_time);
    st.perf_last_time = now;
  }
}

void MigrationEngine::on_initiation_end() {
  WAVM3_ASSERT(active_.has_value(), "phase event without active migration");
  ActiveState& st = *active_;
  accrue_vm_performance();
  st.record.times.ts = sim_.now();
  st.source_lifecycle = false;
  st.target_lifecycle = false;
  arm_phase_loss(faults::FaultPhase::kTransfer);

  const double full_image = st.mem_pages * static_cast<double>(util::kPageSize);
  if (st.record.type == MigrationType::kPostCopy) {
    // Post-copy: suspend now, hand the minimal state bundle over, and
    // resume on the target as soon as it arrives; memory follows.
    accrue_vm_performance();
    st.vm->suspend();
    st.suspended_at = sim_.now();
    st.in_postcopy_handoff = true;
    begin_round(0, std::min(config_.postcopy_state_bytes, full_image), false);
    return;
  }
  // Round 0 pushes the VM's entire memory image. Non-live migration is
  // a single suspended copy (its VM is already suspended), which is
  // exactly a stop-and-copy of the full image.
  begin_round(0, full_image, st.record.type == MigrationType::kNonLive);
}

double MigrationEngine::compute_bandwidth(double window_end) const {
  WAVM3_ASSERT(active_.has_value(), "bandwidth query without active migration");
  const ActiveState& st = *active_;
  const double t = sim_.now();
  double source_headroom = st.source->headroom_excluding_migration(t);
  double target_headroom = st.target->headroom_excluding_migration(t);
  // An injected overload spike steals headroom from the migration
  // helper; a degraded/flapping/stalling link caps the wire itself
  // (averaged over the round's window so mid-round faults count).
  double link_factor = 1.0;
  if (fault_plan_ != nullptr) {
    source_headroom =
        std::max(0.0, source_headroom - fault_plan_->host_overload(st.record.source, t));
    target_headroom =
        std::max(0.0, target_headroom - fault_plan_->host_overload(st.record.target, t));
    link_factor = std::clamp(window_end > t ? fault_plan_->average_link_factor(t, window_end)
                                            : fault_plan_->link_factor(t),
                             0.0, 1.0);
  }
  const double bw =
      bandwidth_model_.achievable_bandwidth(*st.link, source_headroom, target_headroom) *
      link_factor;
  // Network-intensive guests contend with the migration stream for the
  // NIC, but dom0's bulk sender largely outcompetes guest TCP flows:
  // only `guest_traffic_claim` of the guest demand is actually lost to
  // the migration (SIII-B: guest traffic only matters near saturation).
  const double guest_traffic = std::max(st.source->guest_network_demand(t),
                                        st.target->guest_network_demand(t));
  const double floor = config_.contention_floor * st.link->max_payload_rate() * link_factor;
  const double after_contention =
      std::max(floor, bw - config_.guest_traffic_claim * guest_traffic);
  const double jittered = after_contention * st.jitter.bandwidth_factor;
  return std::max(kMinBandwidth, std::min(jittered, st.link->max_payload_rate()));
}

void MigrationEngine::apply_migration_demands(double bandwidth_fraction) {
  ActiveState& st = *active_;
  st.source->set_migration_cpu_demand(config_.sender_cpu_base +
                                      config_.sender_cpu_per_rate * bandwidth_fraction);
  st.target->set_migration_cpu_demand(config_.receiver_cpu_base +
                                      config_.receiver_cpu_per_rate * bandwidth_fraction);
}

void MigrationEngine::clear_migration_demands() {
  ActiveState& st = *active_;
  st.source->set_migration_cpu_demand(0.0);
  st.target->set_migration_cpu_demand(0.0);
}

void MigrationEngine::begin_round(int index, double bytes, bool stop_and_copy) {
  accrue_vm_performance();
  ActiveState& st = *active_;
  st.round_index = index;
  st.round_start = sim_.now();
  st.round_bytes = bytes;
  st.in_stop_and_copy = stop_and_copy;

  // Optional wire compression: fewer bytes cross the link, the sender
  // burns extra CPU squeezing them.
  const double wire_bytes = bytes / std::max(1.0, config_.compression_ratio);

  // Bandwidth is computed from headroom *before* the helper's own
  // demand, then the helper demand is applied for the power model.
  // With a fault plan, a first instantaneous estimate sizes the
  // round's window, then one refinement averages the link factor over
  // that window so stalls/flaps landing mid-round slow it down.
  st.round_bandwidth = compute_bandwidth(st.round_start);
  if (fault_plan_ != nullptr && fault_plan_->has_link_faults()) {
    const double estimated =
        std::max(kMinRoundSeconds, wire_bytes / st.round_bandwidth);
    st.round_bandwidth = compute_bandwidth(st.round_start + estimated);
  }
  // Dynamic rate limiting (Clark et al.): pre-copy rounds are throttled
  // to bound the interference with the running VM; the stop-and-copy
  // burst is not.
  if (config_.adaptive_rate_limit && st.record.type == MigrationType::kLive &&
      !stop_and_copy) {
    const double limit =
        index == 0 ? config_.min_rate_bytes
                   : st.observed_dirty_bytes_per_s + config_.rate_increment_bytes;
    st.round_bandwidth = std::clamp(limit, kMinBandwidth, st.round_bandwidth);
  }
  apply_migration_demands(st.round_bandwidth / st.link->max_payload_rate());
  if (config_.compression_ratio > 1.0) {
    st.source->set_migration_cpu_demand(st.source->migration_cpu_demand() +
                                        config_.compression_cpu);
  }

  st.link->account_transfer(wire_bytes);
  st.record.total_bytes += wire_bytes;

  RoundInfo info;
  info.index = index;
  info.start = st.round_start;
  info.bytes = wire_bytes;
  info.bandwidth = st.round_bandwidth;
  info.stop_and_copy = stop_and_copy;
  st.record.rounds.push_back(info);

  const double duration = std::max(kMinRoundSeconds, wire_bytes / st.round_bandwidth);
  st.pending_phase_event = sim_.schedule_in(duration, [this] { on_round_end(); });
}

double MigrationEngine::fresh_dirty_pages(double tau) const {
  const ActiveState& st = *active_;
  if (st.vm->state() != cloud::VmState::kRunning) return 0.0;
  const double w = st.working_set_pages;
  if (w <= 0.0 || st.dirty_rate_pages <= 0.0 || tau <= 0.0) return 0.0;
  // The dirtier is slowed down when the hypervisor grants it less CPU
  // than it demands (multiplexing).
  const double t = sim_.now();
  const double demand = st.vm->cpu_demand(t);
  double grant_fraction = 1.0;
  if (demand > 0.0) {
    grant_fraction = st.source->cpu_granted_to(st.vm->id(), t) / demand;
  }
  const double rate = st.dirty_rate_pages * std::clamp(grant_fraction, 0.0, 1.0);
  if (rate <= 0.0) return 0.0;
  return w * (1.0 - std::exp(-rate * tau / w));
}

void MigrationEngine::on_round_end() {
  WAVM3_ASSERT(active_.has_value(), "round event without active migration");
  ActiveState& st = *active_;
  const double now = sim_.now();
  st.record.rounds.back().duration = now - st.record.rounds.back().start;

  if (st.in_postcopy_handoff) {
    // The minimal state bundle arrived: the VM moves and resumes on the
    // target immediately; the rest of its memory is pulled afterwards.
    st.in_postcopy_handoff = false;
    accrue_vm_performance();
    cloud::VmPtr vm = st.source->remove_vm(st.vm->id());
    st.target->add_vm(vm);
    vm->resume();
    st.record.downtime = now - st.suspended_at;
    st.in_postcopy_pull = true;
    const double remaining =
        st.mem_pages * static_cast<double>(util::kPageSize) - st.round_bytes;
    begin_round(st.round_index + 1, std::max(remaining, 1.0), false);
    return;
  }

  if (st.in_postcopy_pull) {
    st.in_postcopy_pull = false;
    on_transfer_end();
    return;
  }

  if (st.in_stop_and_copy) {
    on_transfer_end();
    return;
  }

  // A live pre-copy round finished while the VM kept running: decide
  // whether to iterate or to suspend and finish (SIII-A step 3).
  const double tau = st.record.rounds.back().duration;
  const double fresh_pages = fresh_dirty_pages(tau);
  const double fresh_bytes = fresh_pages * static_cast<double>(util::kPageSize);
  if (tau > 0.0) st.observed_dirty_bytes_per_s = fresh_bytes / tau;
  const double mem_bytes = st.mem_pages * static_cast<double>(util::kPageSize);

  st.record.precopy_rounds = st.round_index + 1;

  const bool converged = fresh_bytes <= config_.stop_threshold_bytes;
  const bool round_cap = st.round_index + 1 >= config_.max_precopy_rounds;
  const bool traffic_cap =
      st.record.total_bytes + fresh_bytes > config_.max_transfer_factor * mem_bytes;
  const bool not_shrinking = st.round_index >= 1 && fresh_bytes >= st.round_bytes;

  if (converged) {
    begin_stop_and_copy(fresh_bytes);
  } else if (round_cap || traffic_cap || not_shrinking) {
    // Pre-copy cannot converge (high dirtying ratio): the live
    // migration degenerates into a non-live one, the effect the paper
    // reports in SVI-D.
    st.record.degenerated_to_nonlive = true;
    begin_stop_and_copy(fresh_bytes);
  } else {
    begin_round(st.round_index + 1, fresh_bytes, false);
  }
}

void MigrationEngine::begin_stop_and_copy(double bytes) {
  ActiveState& st = *active_;
  if (st.vm->state() == cloud::VmState::kRunning) {
    accrue_vm_performance();
    st.vm->suspend();
    st.suspended_at = sim_.now();
  }
  begin_round(st.round_index + 1, std::max(bytes, 1.0), true);
}

void MigrationEngine::on_transfer_end() {
  ActiveState& st = *active_;
  const double now = sim_.now();
  st.record.times.te = now;

  accrue_vm_performance();
  // Move the (suspended) VM to the target host. Post-copy already moved
  // and resumed it at the end of the handoff round.
  if (!st.target->has_vm(st.vm->id())) {
    cloud::VmPtr vm = st.source->remove_vm(st.vm->id());
    st.target->add_vm(vm);
  }

  st.source->set_migration_cpu_demand(config_.activation_cpu);
  st.target->set_migration_cpu_demand(config_.activation_cpu);
  st.source_lifecycle = true;
  st.target_lifecycle = true;

  const double activation_duration =
      std::max(config_.source_cleanup_duration, config_.target_resume_duration) *
      st.jitter.activation_factor;
  const double resume_delay = activation_duration * config_.resume_point_fraction;
  const double cleanup_duration =
      std::min(activation_duration, config_.source_cleanup_duration * st.jitter.activation_factor);

  sim_.schedule_in(resume_delay, [this] {
    if (!active_) return;
    ActiveState& s = *active_;
    if (s.vm->state() != cloud::VmState::kSuspended) return;  // post-copy: already running
    accrue_vm_performance();
    s.vm->resume();
    if (s.suspended_at >= 0.0) s.record.downtime = sim_.now() - s.suspended_at;
  });
  sim_.schedule_in(cleanup_duration, [this] {
    if (!active_) return;
    active_->source_lifecycle = false;
    active_->source->set_migration_cpu_demand(0.0);
  });
  sim_.schedule_in(activation_duration, [this] { on_activation_end(); });
}

void MigrationEngine::enqueue_migrate(const std::string& vm_id, const std::string& source_host,
                                      const std::string& target_host, MigrationType type,
                                      RunJitter jitter, CompletionFn on_complete) {
  if (!active_) {
    migrate(vm_id, source_host, target_host, type, jitter, std::move(on_complete));
    return;
  }
  queue_.push_back(
      QueuedRequest{vm_id, source_host, target_host, type, jitter, std::move(on_complete)});
}

void MigrationEngine::start_next_queued() {
  while (!queue_.empty() && !active_) {
    QueuedRequest req = std::move(queue_.front());
    queue_.erase(queue_.begin());
    try {
      migrate(req.vm_id, req.source, req.target, req.type, req.jitter,
              std::move(req.on_complete));
    } catch (const util::ContractError&) {
      // The world changed while queued (VM moved/stopped): skip it.
    }
  }
}

void MigrationEngine::on_activation_end() {
  WAVM3_ASSERT(active_.has_value(), "activation event without active migration");
  ActiveState& st = *active_;
  accrue_vm_performance();
  st.record.times.me = sim_.now();
  const double span = st.record.times.total_duration();
  st.record.vm_mean_performance = span > 0.0 ? st.perf_integral / span : 1.0;
  st.record.outcome = MigrationOutcome::kCompleted;
  cancel_fault_events();
  st.source_lifecycle = false;
  st.target_lifecycle = false;
  clear_migration_demands();

  WAVM3_ASSERT(st.record.times.well_formed(), "phase timestamps out of order");
  {
    const double transfer_s = st.record.times.te - st.record.times.ts;
    emit_phase_spans(st.record, static_cast<double>(st.vm->spec().vcpus),
                     st.dirty_rate_pages * static_cast<double>(util::kPageSize),
                     transfer_s > 0.0 ? st.record.total_bytes / transfer_s : 0.0);
    count_migration(st.record);
  }
  completed_.push_back(st.record);
  CompletionFn cb = std::move(st.on_complete);
  active_.reset();
  if (cb) cb(completed_.back());
  start_next_queued();
}

MigrationPhase MigrationEngine::current_phase() const {
  if (!active_) return MigrationPhase::kNormal;
  const ActiveState& st = *active_;
  const double t = sim_.now();
  if (st.record.times.ts == 0.0 || t < st.record.times.ts) return MigrationPhase::kInitiation;
  if (st.record.times.te == 0.0 || t < st.record.times.te) return MigrationPhase::kTransfer;
  return MigrationPhase::kActivation;
}

double MigrationEngine::current_bandwidth() const {
  if (!active_ || current_phase() != MigrationPhase::kTransfer) return 0.0;
  return active_->round_bandwidth;
}

double MigrationEngine::current_dirty_ratio() const {
  if (!active_) return 0.0;
  const ActiveState& st = *active_;
  if (st.record.type != MigrationType::kLive) return 0.0;
  if (current_phase() != MigrationPhase::kTransfer) return 0.0;
  if (st.vm->state() != cloud::VmState::kRunning) return 0.0;
  const double tau = sim_.now() - st.round_start;
  const double fresh = fresh_dirty_pages(tau);
  return st.mem_pages > 0.0 ? std::min(1.0, fresh / st.mem_pages) : 0.0;
}

power::HostActivity MigrationEngine::activity_of(const cloud::Host& host) const {
  const double t = sim_.now();
  power::HostActivity a;
  a.cpu_used_vcpus = host.cpu_used(t);

  // Memory write traffic of every running guest, scaled by its granted
  // CPU share (a throttled dirtier writes proportionally more slowly).
  double dirty_bytes = 0.0;
  for (const auto& vm : host.vms()) {
    const double rate = vm->dirty_page_rate(t);
    if (rate <= 0.0) continue;
    const double demand = vm->cpu_demand(t);
    const double grant_fraction =
        demand > 0.0 ? std::clamp(host.cpu_granted_to(vm->id(), t) / demand, 0.0, 1.0) : 1.0;
    dirty_bytes += rate * grant_fraction * static_cast<double>(util::kPageSize);
  }
  a.mem_dirty_bytes_per_s = dirty_bytes;

  // Guest network traffic draws NIC power whether or not a migration is
  // running (the paper's network-intensive future-work case).
  const double guest_net = host.guest_network_demand(t);
  a.nic_bytes_per_s += guest_net;

  if (active_) {
    const ActiveState& st = *active_;
    const bool is_source = host.name() == st.record.source;
    const bool is_target = host.name() == st.record.target;
    if (is_source || is_target) {
      if (current_phase() == MigrationPhase::kTransfer) {
        a.transfer_active = true;
        a.nic_bytes_per_s += st.round_bandwidth;
        if (is_source && st.record.type == MigrationType::kLive) {
          a.tracking_dirty_ratio = current_dirty_ratio();
        }
      }
      if (is_source && st.source_lifecycle) a.vm_lifecycle_active = true;
      if (is_target && st.target_lifecycle) a.vm_lifecycle_active = true;
    }
  }
  return a;
}

}  // namespace wavm3::migration
