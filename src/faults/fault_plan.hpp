// Deterministic fault injection for migrations and the serve path.
//
// A FaultPlan is a declarative, time-indexed schedule of adverse
// events — link degradations, flapping, transient transfer stalls,
// host overload spikes, and migration-connection losses — that the
// migration engine and the bandwidth model consult while executing.
// Plans are pure data: replaying the same plan against the same
// simulation always produces the same trajectory, and the seeded
// `FaultPlan::random()` builder derives a whole plan from one seed, so
// failure experiments are exactly reproducible (the property the
// resilience tests rely on).
//
// Layering: faults sits below migration. It is consumed by
// migration::MigrationEngine, which scales its transfer bandwidth by the
// plan's link factor and maps connection losses onto its own phase
// machinery (see the abort semantics in migration/engine.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wavm3::faults {

/// Phase selector for faults bound to migration phases rather than
/// absolute times. Mirrors migration::MigrationPhase without depending
/// on it (faults sits below migration in the layering). There is no
/// activation entry: once the transfer completes the target holds the
/// full VM state and a lost connection can no longer abort the
/// migration (the engine documents and tests this).
enum class FaultPhase { kAny, kInitiation, kTransfer };

const char* to_string(FaultPhase p);

/// Link capacity multiplied by `factor` during [start, end) — a
/// congested or renegotiated-down path.
struct LinkDegradation {
  double start = 0.0;
  double end = 0.0;
  double factor = 1.0;  ///< in [0, 1]
};

/// Periodic flapping: from `start` the link alternates `up_duration`
/// seconds at full capacity with `down_duration` seconds at
/// `down_factor`, until `end`.
///
/// Degenerate cases (defined, not rejected): up_duration == 0 keeps
/// the link at `down_factor` for the whole window; down_duration == 0
/// or end == start is a no-op (accepted by add() and dropped). Only
/// up_duration + down_duration == 0 is malformed — there is no period
/// to phase against — and throws.
struct LinkFlap {
  double start = 0.0;
  double end = 0.0;
  double up_duration = 8.0;
  double down_duration = 2.0;
  double down_factor = 0.05;  ///< in [0, 1]
};

/// Transient stall: the link carries (essentially) nothing during
/// [at, at + duration) — a switch hiccup or TCP stall. Modelled as a
/// zero factor; consumers floor the resulting bandwidth so durations
/// stay finite.
struct TransferStall {
  double at = 0.0;
  double duration = 1.0;
};

/// Extra CPU demand on a named host during [start, end): an overload
/// spike that steals headroom from the migration helper (and thereby
/// bandwidth, through the CPU-coupled model).
struct HostOverload {
  std::string host;
  double start = 0.0;
  double end = 0.0;
  double extra_vcpus = 0.0;
};

/// Loss of the migration connection. With phase == kAny, `at` is an
/// absolute simulation time; otherwise `at` is the offset in seconds
/// into the named phase of the in-flight migration.
struct ConnectionLoss {
  FaultPhase phase = FaultPhase::kAny;
  double at = 0.0;
};

/// Knobs of the seeded random plan builder.
struct FaultPlanOptions {
  double horizon = 3600.0;  ///< events are placed in [0, horizon)

  int degradations = 2;
  double degradation_min_duration = 30.0;
  double degradation_max_duration = 300.0;
  double degradation_min_factor = 0.2;
  double degradation_max_factor = 0.8;

  int stalls = 2;
  double stall_min_duration = 0.5;
  double stall_max_duration = 5.0;

  int flaps = 1;
  double flap_min_duration = 60.0;
  double flap_max_duration = 600.0;
  double flap_up_duration = 8.0;
  double flap_down_duration = 2.0;
  double flap_down_factor = 0.05;

  std::vector<std::string> overload_hosts;  ///< hosts eligible for spikes
  int overloads_per_host = 1;
  double overload_min_duration = 20.0;
  double overload_max_duration = 120.0;
  double overload_min_vcpus = 1.0;
  double overload_max_vcpus = 4.0;

  /// Probability of one absolute-time connection loss in [0, horizon).
  double connection_loss_probability = 0.0;
};

/// A deterministic schedule of faults. Build one with the add()
/// methods (or FaultPlan::random) and hand it, immutably shared, to
/// the engine and/or the bandwidth model.
///
/// Overlap semantics: link faults on the same link compose
/// *multiplicatively and order-independently*. At any instant the
/// effective factor is the product of every active degradation's
/// factor and every active flap's down_factor (when that flap is in a
/// down phase), clamped to [0, 1]; an active stall forces the factor
/// to 0 outright. There is no last-writer-wins: the order in which
/// overlapping faults were add()ed never changes link_factor, so two
/// overlapping 0.5 degradations yield 0.25 over the intersection no
/// matter which was added first.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(const LinkDegradation& d);
  FaultPlan& add(const LinkFlap& f);
  FaultPlan& add(const TransferStall& s);
  FaultPlan& add(const HostOverload& o);
  FaultPlan& add(const ConnectionLoss& l);

  /// Product of every active link fault's factor at time `t`, in [0,1].
  double link_factor(double t) const;

  /// Exact mean of link_factor over [t0, t1] (piecewise integration;
  /// falls back to dense midpoint sampling only for pathologically
  /// fine flap schedules).
  double average_link_factor(double t0, double t1) const;

  /// Summed extra vCPU demand injected on `host` at time `t`.
  double host_overload(std::string_view host, double t) const;

  /// Earliest absolute-time (phase == kAny) connection loss at or
  /// after `t`, if any.
  std::optional<double> next_loss_at_or_after(double t) const;

  /// Smallest offset of a loss bound to `phase` (kInitiation or
  /// kTransfer), if any.
  std::optional<double> loss_offset_in(FaultPhase phase) const;

  const std::vector<ConnectionLoss>& connection_losses() const { return losses_; }
  const std::vector<LinkDegradation>& degradations() const { return degradations_; }
  const std::vector<LinkFlap>& flaps() const { return flaps_; }
  const std::vector<TransferStall>& stalls() const { return stalls_; }
  const std::vector<HostOverload>& overloads() const { return overloads_; }

  /// True when any fault affects link capacity (degradation, flap or
  /// stall) — lets consumers skip the averaging work on quiet plans.
  bool has_link_faults() const;

  /// Deterministic seeded plan: the same (options, seed) pair always
  /// yields the same plan.
  static FaultPlan random(const FaultPlanOptions& options, std::uint64_t seed);

 private:
  std::vector<LinkDegradation> degradations_;
  std::vector<LinkFlap> flaps_;
  std::vector<TransferStall> stalls_;
  std::vector<HostOverload> overloads_;
  std::vector<ConnectionLoss> losses_;
};

/// Projects `plan` onto the tracer's simulated-time track as instant
/// events (interval faults are stamped at their start with the
/// duration as an annotation). dcsim calls this for its own plan;
/// other fault-plan consumers (e.g. `wavm3 trace`) call it directly.
/// No-op while the tracer is disabled.
void emit_fault_instants(const FaultPlan& plan);

}  // namespace wavm3::faults
