// The migration engine: an event-driven implementation of Xen-style
// non-live (suspend/resume) and live (iterative pre-copy) VM migration
// (SIII-A), producing the phase timestamps, byte counters, and
// per-instant activity the power model and the regression pipeline
// consume.
//
// Live migration follows the pre-copy algorithm of Clark et al.
// (NSDI'05), which Xen 4.2.5 implements: round 0 pushes all memory
// while the VM runs; each later round pushes the pages dirtied during
// the previous round; when the dirty set is small enough (or the round
// cap / total-traffic cap trips, the non-convergence case the paper
// observes at high dirtying ratios), the VM is suspended and the final
// dirty set is copied (stop-and-copy), then resumed on the target.
//
// Fresh-dirty-page dynamics: a workload writing uniformly at nominal
// rate r over a writable working set of W pages re-dirties pages it has
// already touched, so the fresh dirty pages after tau seconds follow
//     D(tau) = W * (1 - exp(-r * tau / W)).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/datacenter.hpp"
#include "faults/fault_plan.hpp"
#include "migration/phases.hpp"
#include "net/bandwidth_model.hpp"
#include "power/host_power_model.hpp"
#include "sim/simulator.hpp"

namespace wavm3::migration {

/// Migration flavour. kNonLive and kLive are the paper's subjects;
/// kPostCopy is an extension: suspend briefly, hand a minimal state
/// bundle to the target, resume there immediately, then pull the
/// remaining memory over the network while the VM already runs.
enum class MigrationType { kNonLive, kLive, kPostCopy };

const char* to_string(MigrationType t);

/// How a migration ended.
///
///   kCompleted  - the VM runs on the target, resources freed.
///   kRolledBack - the connection was lost before the transfer
///                 completed (initiation or transfer phase). The VM
///                 never left the source: it keeps running there (a
///                 suspended VM is resumed on the spot), every byte
///                 already pushed is discarded, and the energy both
///                 hosts spent is pure waste (see
///                 MigrationRecord::wasted_bytes).
///   kVmLost     - post-copy only: the pull stream died while the VM
///                 was already executing on the target with most of
///                 its memory still on the source. The VM cannot make
///                 progress and is restarted from persistent state on
///                 the target after MigrationConfig::
///                 postcopy_restart_duration (added to downtime).
///                 This is the classic post-copy durability hazard and
///                 why kRolledBack never applies to the pull phase.
enum class MigrationOutcome { kCompleted, kRolledBack, kVmLost };

const char* to_string(MigrationOutcome o);

/// Tunables of the migration machinery.
struct MigrationConfig {
  // --- initiation ---
  double initiation_duration = 3.0;  ///< seconds of connection setup + target checks

  // --- pre-copy termination (SIII-A step 3) ---
  double stop_threshold_bytes = 50.0 * 4096.0;  ///< Xen: < 50 dirty pages => stop-and-copy
  int max_precopy_rounds = 29;                  ///< Xen's iteration cap
  double max_transfer_factor = 3.0;  ///< abort pre-copy after 3x VM memory moved

  // --- post-copy (extension) ---
  /// Minimal state bundle moved during the post-copy handoff (CPU
  /// state, page tables, a seed of the hottest pages).
  double postcopy_state_bytes = 64.0 * 1024 * 1024;

  // --- dynamic rate limiting (Clark et al., NSDI'05 SIV) ---
  /// Xen's live sender rate-limits pre-copy rounds to bound the impact
  /// on the running VM: the first round runs at `min_rate_bytes`, each
  /// later round at (previous round's observed dirtying rate +
  /// `rate_increment_bytes`), all capped by the achievable bandwidth.
  /// The final stop-and-copy always runs at full speed. Off by default,
  /// matching the xm/xl default behaviour the paper measured.
  bool adaptive_rate_limit = false;
  double min_rate_bytes = 100e6 / 8.0;        ///< 100 Mbit/s
  double rate_increment_bytes = 50e6 / 8.0;   ///< +50 Mbit/s over dirty rate

  // --- link contention with guest traffic ---
  /// Fraction of a guest network stream's demand that effectively
  /// competes with the migration stream. Xen's dom0 sender is an
  /// aggressive bulk TCP flow that guest traffic backs off against, so
  /// only part of the guest demand is actually taken from the
  /// migration; this is why the paper observed "negligible energy
  /// impacts caused by network-intensive workloads during migration"
  /// below link saturation (SI, SIII-B).
  double guest_traffic_claim = 0.25;
  /// Migration bandwidth floor under contention, as a fraction of the
  /// link payload rate (dom0 always wins at least this share).
  double contention_floor = 0.2;

  // --- migration helper CPU demand (CPUmigr of Eq. 2) ---
  double sender_cpu_base = 0.8;      ///< vCPUs while sending, plus ...
  double sender_cpu_per_rate = 1.2;  ///< ... this much at full wire speed
  double receiver_cpu_base = 0.6;
  double receiver_cpu_per_rate = 0.9;
  double initiation_cpu = 0.5;       ///< helper demand during initiation
  double activation_cpu = 0.5;       ///< helper demand during activation

  // --- page compression (extension; off by default like Xen 4.2) ---
  /// Wire compression of the migration stream: logical bytes are sent
  /// as bytes/compression_ratio, at the cost of extra sender CPU.
  double compression_ratio = 1.0;
  double compression_cpu = 0.8;  ///< extra sender vCPUs while compressing

  // --- failure handling ---
  /// Post-copy pull failure (MigrationOutcome::kVmLost): seconds to
  /// reboot the stranded VM from persistent state on the target.
  double postcopy_restart_duration = 30.0;

  // --- activation ---
  double source_cleanup_duration = 2.0;  ///< freeing resources on the source
  double target_resume_duration = 3.5;   ///< loading state + starting the VM
  /// Fraction of the activation phase after which the VM is running on
  /// the target (Eq. 7 models the starting VM's CPU during activation).
  double resume_point_fraction = 0.4;
};

/// Per-run environment jitter (drawn by the experiment runner) so that
/// repeated runs differ the way real testbed runs do.
struct RunJitter {
  double bandwidth_factor = 1.0;       ///< multiplies achievable bandwidth
  double initiation_factor = 1.0;      ///< multiplies initiation duration
  double activation_factor = 1.0;      ///< multiplies activation durations
  double dirty_rate_factor = 1.0;      ///< multiplies the workload's dirtying rate
};

/// One transfer round as executed.
struct RoundInfo {
  int index = 0;
  double start = 0.0;
  double duration = 0.0;
  double bytes = 0.0;
  double bandwidth = 0.0;
  bool stop_and_copy = false;
};

/// Everything recorded about one migration.
struct MigrationRecord {
  std::string vm_id;
  std::string source;
  std::string target;
  MigrationType type = MigrationType::kNonLive;
  PhaseTimestamps times;
  double total_bytes = 0.0;        ///< payload moved source->target (LIU's DATA)
  int precopy_rounds = 0;          ///< rounds before stop-and-copy (live only)
  double downtime = 0.0;           ///< VM unavailable: suspension -> running on target
  /// Mean fraction of its demanded CPU the migrating VM actually
  /// received over [ms, me] (1 = unaffected, 0 = suspended throughout).
  /// This is the quantitative form of Table I's "slowdown" column.
  double vm_mean_performance = 1.0;
  bool degenerated_to_nonlive = false;  ///< pre-copy aborted by caps (high DR)
  MigrationOutcome outcome = MigrationOutcome::kCompleted;
  /// Phase the failure hit (kNormal when the migration completed).
  MigrationPhase failure_phase = MigrationPhase::kNormal;
  std::string failure_reason;  ///< empty when the migration completed
  /// Payload bytes pushed and then thrown away by the failure — the
  /// traffic (and hence energy) both hosts spent for nothing. Equals
  /// total_bytes on failure, 0 on success.
  double wasted_bytes = 0.0;
  std::vector<RoundInfo> rounds;
};

/// Event-driven migration executor. One migration is in flight at a
/// time; the consolidation layer serialises its plans through this.
class MigrationEngine {
 public:
  using CompletionFn = std::function<void(const MigrationRecord&)>;

  MigrationEngine(sim::Simulator& simulator, cloud::DataCenter& datacenter,
                  net::BandwidthModel bandwidth_model, MigrationConfig config = {});

  const MigrationConfig& config() const { return config_; }
  const net::BandwidthModel& bandwidth_model() const { return bandwidth_model_; }

  /// Installs (or clears, with nullptr) the fault plan consulted by
  /// subsequent migrations: link faults shape per-round bandwidth,
  /// host overload spikes shave endpoint headroom, and connection
  /// losses abort the in-flight migration (see MigrationOutcome for
  /// the per-type failure semantics). Takes effect from the next
  /// migrate() call.
  void set_fault_plan(std::shared_ptr<const faults::FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }
  const faults::FaultPlan* fault_plan() const { return fault_plan_.get(); }

  /// Starts migrating `vm_id` from `source` to `target` at the current
  /// simulation time. The VM must be running on `source`; the hosts
  /// must be connected; no other migration may be in flight.
  /// `on_complete` (optional) fires at me with the final record.
  void migrate(const std::string& vm_id, const std::string& source_host,
               const std::string& target_host, MigrationType type, RunJitter jitter = {},
               CompletionFn on_complete = nullptr);

  /// Queues a migration: starts immediately when idle, otherwise runs
  /// after the migrations already queued (Xen serialises migrations per
  /// host pair; this is the multi-VM scenario of Rybina et al. that the
  /// paper's related work discusses).
  void enqueue_migrate(const std::string& vm_id, const std::string& source_host,
                       const std::string& target_host, MigrationType type,
                       RunJitter jitter = {}, CompletionFn on_complete = nullptr);

  /// Number of migrations waiting behind the active one.
  std::size_t queued_migrations() const { return queue_.size(); }

  bool migration_active() const { return active_.has_value(); }

  /// All finished migrations, in completion order.
  const std::vector<MigrationRecord>& completed() const { return completed_; }

  /// Phase at the current simulation time.
  MigrationPhase current_phase() const;

  /// Achieved migration payload bandwidth right now (bytes/s; 0 outside
  /// the transfer phase).
  double current_bandwidth() const;

  /// DR(v,t) of Eq. 1 at the current simulation time: fresh dirty pages
  /// accumulated in the current pre-copy round relative to VM memory.
  /// Zero when no live transfer is running or the VM is suspended.
  double current_dirty_ratio() const;

  /// Assembles the instantaneous power-model activity of `host`,
  /// including migration traffic, tracking overhead, and lifecycle
  /// transients. Hosts not involved in the migration get plain
  /// workload-driven activity.
  power::HostActivity activity_of(const cloud::Host& host) const;

 private:
  struct ActiveState {
    MigrationRecord record;
    RunJitter jitter;
    CompletionFn on_complete;

    cloud::Host* source = nullptr;
    cloud::Host* target = nullptr;
    cloud::VmPtr vm;
    net::Link* link = nullptr;

    // Current round state.
    int round_index = 0;
    double round_start = 0.0;
    double round_bytes = 0.0;
    double round_bandwidth = 0.0;
    bool in_stop_and_copy = false;
    bool in_postcopy_handoff = false;  ///< moving the minimal state bundle
    bool in_postcopy_pull = false;     ///< VM runs on target, pages pulled
    double suspended_at = -1.0;   ///< time the VM was suspended (for downtime)

    // Dirtying dynamics (pages).
    double working_set_pages = 0.0;
    double dirty_rate_pages = 0.0;  ///< jitter-adjusted nominal rate
    double mem_pages = 0.0;
    double observed_dirty_bytes_per_s = 0.0;  ///< last round's dirtying rate

    // VM performance accounting (Table I's slowdown).
    double perf_integral = 0.0;
    double perf_last_time = 0.0;

    // Lifecycle transients for the power model.
    bool source_lifecycle = false;
    bool target_lifecycle = false;

    // Abort machinery: the pending phase event (initiation end or
    // round end) cancelled when a connection loss cuts the migration
    // short, and the armed loss events cancelled when it completes.
    sim::EventId pending_phase_event = sim::kInvalidEvent;
    std::vector<sim::EventId> fault_events;
  };

  // Phase transitions (event callbacks).
  void on_initiation_end();
  void begin_round(int index, double bytes, bool stop_and_copy);
  void on_round_end();
  void begin_stop_and_copy(double bytes);
  void on_transfer_end();
  void on_activation_end();

  /// Fresh dirty pages accumulated after `tau` seconds of VM execution.
  double fresh_dirty_pages(double tau) const;

  /// Instantaneous granted/demanded CPU fraction of the migrating VM.
  double current_vm_performance() const;

  /// Accrues the performance integral up to now; call before any event
  /// that changes the VM's state or placement.
  void accrue_vm_performance();

  /// Achievable bandwidth given both hosts' CPU headrooms (overload
  /// spikes subtracted). With a fault plan and `window_end` > now, the
  /// link factor is averaged over [now, window_end] so stalls and
  /// flaps landing mid-round slow the round down; otherwise the
  /// instantaneous factor applies.
  double compute_bandwidth(double window_end) const;

  /// Arms a connection-loss abort for losses bound to `phase` (called
  /// at each phase entry) — plus, from kInitiation, the earliest
  /// absolute-time loss.
  void arm_phase_loss(faults::FaultPhase phase);

  /// Abort entry point for armed loss events: ignored when the
  /// migration already left `expected` (or, for kAny, once activation
  /// started — after te the target holds the full state and finishes
  /// unilaterally).
  void request_abort(faults::FaultPhase expected, const std::string& reason);

  /// Tears the in-flight migration down mid-phase; see
  /// MigrationOutcome for the rollback / vm-lost semantics.
  void abort_active(const std::string& reason);

  void cancel_fault_events();

  /// Applies CPUmigr demands for the current activity level.
  void apply_migration_demands(double bandwidth_fraction);
  void clear_migration_demands();

  sim::Simulator& sim_;
  cloud::DataCenter& dc_;
  net::BandwidthModel bandwidth_model_;
  MigrationConfig config_;
  std::shared_ptr<const faults::FaultPlan> fault_plan_;
  struct QueuedRequest {
    std::string vm_id;
    std::string source;
    std::string target;
    MigrationType type;
    RunJitter jitter;
    CompletionFn on_complete;
  };

  void start_next_queued();

  std::optional<ActiveState> active_;
  std::vector<QueuedRequest> queue_;
  std::vector<MigrationRecord> completed_;
};

}  // namespace wavm3::migration
