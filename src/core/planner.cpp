#include "core/planner.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace wavm3::core {

namespace {

using migration::MigrationPhase;
using migration::MigrationType;
using models::MigrationSample;

/// Endpoint efficiency as in net::BandwidthModel (kept in closed form
/// here to avoid constructing Link objects for hypothetical scenarios).
double endpoint_efficiency(const net::BandwidthModelParams& p, double headroom) {
  const double ramp = std::min(1.0, std::max(0.0, headroom) / p.cpu_for_wire_speed);
  return p.min_efficiency + (1.0 - p.min_efficiency) * ramp;
}

double fresh_dirty_pages(double working_set, double rate, double tau) {
  if (working_set <= 0.0 || rate <= 0.0 || tau <= 0.0) return 0.0;
  return working_set * (1.0 - std::exp(-rate * tau / working_set));
}

/// The scenario's own target fields.
TargetSide target_of(const MigrationScenario& sc) {
  return TargetSide{sc.target_cpu_load, sc.target_cpu_capacity, sc.link_payload_rate};
}

// The helpers below take the target side apart from the scenario, so
// forecast_targets can price many targets against one scenario without
// copying it per target.

void require_valid(const MigrationScenario& sc, const TargetSide& target) {
  WAVM3_REQUIRE(sc.vm_mem_bytes > 0.0, "scenario needs a VM memory size");
  WAVM3_REQUIRE(target.link_payload_rate > 0.0, "scenario needs a link rate");
  WAVM3_REQUIRE(sc.source_cpu_capacity > 0.0 && target.cpu_capacity > 0.0,
                "host capacities must be positive");
}

double bandwidth_to(const MigrationScenario& sc, const TargetSide& target) {
  // The VM still loads the source during a live pre-copy, and loads
  // the target during a post-copy pull.
  const bool live = sc.type == MigrationType::kLive;
  const bool postcopy = sc.type == MigrationType::kPostCopy;
  const double source_busy = sc.source_cpu_load + (live ? sc.vm_cpu_vcpus : 0.0);
  const double target_busy = target.cpu_load + (postcopy ? sc.vm_cpu_vcpus : 0.0);
  const double src_headroom = std::max(0.0, sc.source_cpu_capacity - source_busy);
  const double dst_headroom = std::max(0.0, target.cpu_capacity - target_busy);
  const double eff = std::min(endpoint_efficiency(sc.bandwidth, src_headroom),
                              endpoint_efficiency(sc.bandwidth, dst_headroom));
  return std::max(1e5, target.link_payload_rate * eff);
}

/// One scenario's timing recursion in flight: the constants each
/// pre-copy round reads and the values it carries to the next. Only a
/// live scenario runs rounds; start_lane prices the others whole.
struct TimingLane {
  double bandwidth = 0.0;
  double working_set = 0.0;     ///< pages
  double rate = 0.0;            ///< dirtying rate after CPU multiplexing, pages/s
  double stop_threshold = 0.0;  ///< bytes
  double traffic_limit = 0.0;   ///< max_transfer_factor * memory, bytes
  int max_rounds = 0;

  double round_bytes = 0.0;  ///< this round's payload
  double prev_bytes = 0.0;   ///< the previous round's payload
  double transfer = 0.0;     ///< seconds on the wire so far
  double total_bytes = 0.0;
  double downtime = 0.0;  ///< before the activation lag
  int round = 0;
  bool degenerated = false;
};

/// Sets up `sc`'s recursion at `bandwidth`; reads no target field.
/// Returns true when the lane still has pre-copy rounds to run (a live
/// scenario); the other types are fully priced here.
bool start_lane(const MigrationScenario& sc, double bandwidth, TimingLane& lane) {
  const auto& cfg = sc.migration;
  const double mem_bytes = sc.vm_mem_bytes;
  lane = TimingLane{};
  lane.bandwidth = bandwidth;
  if (sc.type == MigrationType::kPostCopy) {
    // Handoff of the minimal state bundle, then a full-memory pull with
    // the VM already running on the target.
    const double state = std::min(cfg.postcopy_state_bytes, mem_bytes);
    lane.transfer = mem_bytes / bandwidth;
    lane.total_bytes = mem_bytes;
    lane.downtime = state / bandwidth;
    return false;
  }
  if (sc.type != MigrationType::kLive) {
    lane.transfer = mem_bytes / bandwidth;
    lane.total_bytes = mem_bytes;
    return false;  // downtime set by finish_lane: suspended from ms
  }
  // Dirtying slows down under CPU multiplexing on the source.
  double grant_fraction = 1.0;
  if (sc.vm_cpu_vcpus > 0.0) {
    const double demand = sc.source_cpu_load + sc.vm_cpu_vcpus;
    if (demand > sc.source_cpu_capacity) grant_fraction = sc.source_cpu_capacity / demand;
  }
  lane.working_set = sc.vm_working_set_pages;
  lane.rate = sc.vm_dirty_pages_per_s * grant_fraction;
  lane.stop_threshold = cfg.stop_threshold_bytes;
  lane.traffic_limit = cfg.max_transfer_factor * mem_bytes;
  lane.max_rounds = cfg.max_precopy_rounds;
  lane.round_bytes = mem_bytes;
  return true;
}

/// One pre-copy round, same termination rules as the engine. Returns
/// true once the recursion has stopped, with the stop-and-copy of the
/// final dirty set added.
inline bool precopy_round(TimingLane& lane) {
  const double tau = lane.round_bytes / lane.bandwidth;
  lane.transfer += tau;
  lane.total_bytes += lane.round_bytes;
  const double fresh = fresh_dirty_pages(lane.working_set, lane.rate, tau) * util::kPageSize;
  ++lane.round;
  const bool converged = fresh <= lane.stop_threshold;
  const bool round_cap = lane.round >= lane.max_rounds;
  const bool traffic_cap = lane.total_bytes + fresh > lane.traffic_limit;
  const bool not_shrinking = lane.round >= 2 && fresh >= lane.prev_bytes;
  if (converged || round_cap || traffic_cap || not_shrinking) {
    lane.degenerated = !converged;
    const double sc_bytes = std::max(fresh, 1.0);
    lane.transfer += sc_bytes / lane.bandwidth;
    lane.total_bytes += sc_bytes;
    lane.downtime = sc_bytes / lane.bandwidth;
    return true;
  }
  lane.prev_bytes = lane.round_bytes;
  lane.round_bytes = fresh;
  return false;
}

/// The timings of a finished lane: phase boundaries and downtime.
MigrationForecast finish_lane(const MigrationScenario& sc, const TimingLane& lane) {
  const auto& cfg = sc.migration;
  MigrationForecast fc;
  fc.bandwidth = lane.bandwidth;
  fc.total_bytes = lane.total_bytes;
  fc.precopy_rounds = lane.round;
  fc.downtime = lane.downtime;
  fc.degenerated_to_nonlive = lane.degenerated;
  fc.times.ms = 0.0;
  fc.times.ts = cfg.initiation_duration;
  fc.times.te = fc.times.ts + lane.transfer;
  const double activation =
      std::max(cfg.source_cleanup_duration, cfg.target_resume_duration);
  fc.times.me = fc.times.te + activation;

  const double resume_offset = activation * cfg.resume_point_fraction;
  if (sc.type == MigrationType::kPostCopy) {
    // Already resumed on the target before the pull; no activation lag.
  } else if (sc.type != MigrationType::kLive) {
    fc.downtime = fc.times.te - fc.times.ms + resume_offset;  // suspended at ms
  } else {
    fc.downtime += resume_offset;
  }
  return fc;
}

/// The timing recursion as a single lane; reads no target field.
MigrationForecast timings_at(const MigrationScenario& sc, double bandwidth) {
  TimingLane lane;
  if (start_lane(sc, bandwidth, lane)) {
    while (!precopy_round(lane)) {
    }
  }
  return finish_lane(sc, lane);
}

}  // namespace

double transfer_bandwidth(const MigrationScenario& sc) { return bandwidth_to(sc, target_of(sc)); }

MigrationForecast forecast_timings(const MigrationScenario& sc) {
  return forecast_timings_at(sc, transfer_bandwidth(sc));
}

MigrationForecast forecast_timings_at(const MigrationScenario& sc, double bandwidth) {
  require_valid(sc, target_of(sc));
  WAVM3_REQUIRE(bandwidth > 0.0, "transfer bandwidth must be positive");
  return timings_at(sc, bandwidth);
}

namespace {

MigrationSample make_sample(MigrationPhase phase, double cpu_host, double cpu_vm, double bw,
                            double dr) {
  MigrationSample s;
  s.phase = phase;
  s.cpu_host = cpu_host;
  s.cpu_vm = cpu_vm;
  s.bandwidth = bw;
  s.dirty_ratio = dr;
  return s;
}

/// The model is fitted for the paper's two flavours; post-copy uses
/// the live coefficient table (the closest workload semantics).
MigrationType coefficient_type(MigrationType type) {
  return type == MigrationType::kPostCopy ? MigrationType::kLive : type;
}

void phase_durations(const MigrationForecast& fc, double (&duration)[3]) {
  duration[0] = fc.times.initiation_duration();
  duration[1] = fc.times.transfer_duration();
  duration[2] = fc.times.activation_duration();
}

/// Share of the link rate the transfer achieves; drives the sender's
/// and receiver's migration CPU.
double bandwidth_fraction(double link_payload_rate, const MigrationForecast& fc) {
  return fc.bandwidth / std::max(fc.bandwidth, link_payload_rate);
}

// Representative feature values per (phase, role), mirroring how the
// engine drives the hosts. The migrating VM counts into CPU(h) on the
// source while it runs there and on the target once resumed.

/// Reads the VM, the source host, the link rate and the timings.
void source_samples(const MigrationScenario& sc, double link_payload_rate,
                    const MigrationForecast& fc, MigrationSample (&out)[3]) {
  const auto& cfg = sc.migration;
  const bool live = sc.type == MigrationType::kLive;
  const bool postcopy = sc.type == MigrationType::kPostCopy;
  const double vm_running_source = (live || postcopy) ? sc.vm_cpu_vcpus : 0.0;

  // Mean dirtying ratio over the transfer (live source only): the
  // per-round fresh-dirty curve averages out near its end value.
  double mean_dr = 0.0;
  if (live && sc.vm_mem_bytes > 0.0) {
    const double mem_pages = sc.vm_mem_bytes / util::kPageSize;
    const double tau = fc.total_bytes / std::max(1.0, fc.bandwidth) /
                       std::max(1, fc.precopy_rounds + 1);
    mean_dr = std::min(
        1.0, fresh_dirty_pages(sc.vm_working_set_pages, sc.vm_dirty_pages_per_s, 0.5 * tau) /
                 std::max(1.0, mem_pages));
  }
  const double send_cpu =
      cfg.sender_cpu_base + cfg.sender_cpu_per_rate * bandwidth_fraction(link_payload_rate, fc);

  out[0] = make_sample(MigrationPhase::kInitiation,
                       std::min(sc.source_cpu_capacity,
                                sc.source_cpu_load + vm_running_source + cfg.initiation_cpu),
                       vm_running_source, 0.0, 0.0);
  if (postcopy) {
    // The VM already runs on the target during the pull.
    out[1] = make_sample(MigrationPhase::kTransfer,
                         std::min(sc.source_cpu_capacity, sc.source_cpu_load + send_cpu), 0.0,
                         fc.bandwidth, mean_dr);
  } else {
    out[1] = make_sample(MigrationPhase::kTransfer,
                         std::min(sc.source_cpu_capacity,
                                  sc.source_cpu_load + vm_running_source + send_cpu),
                         vm_running_source, fc.bandwidth, mean_dr);
  }
  out[2] = make_sample(MigrationPhase::kActivation,
                       std::min(sc.source_cpu_capacity, sc.source_cpu_load + cfg.activation_cpu),
                       0.0, 0.0, 0.0);
}

/// The target half of one (transfer bandwidth, link rate) key:
/// everything the target's samples and energy read that does not
/// depend on the target host. Prepared once per key; each target then
/// pays only its three host-CPU clamps and the Eq. 4 sums
/// (target_samples, attach_target).
struct TargetHalf {
  double duration[3] = {0.0, 0.0, 0.0};
  double bandwidth = 0.0;
  double recv_cpu = 0.0;       ///< the receiver's migration CPU
  double transfer_vm = 0.0;    ///< CPU(v) on the target during the transfer
  double activation_vm = 0.0;  ///< CPU(v) on the target during activation
  double initiation_cpu = 0.0;
  double activation_cpu = 0.0;
  bool postcopy = false;
};

/// Reads the VM, the link rate and the timings.
TargetHalf prepare_target(const MigrationScenario& sc, double link_payload_rate,
                          const MigrationForecast& fc) {
  const auto& cfg = sc.migration;
  TargetHalf half;
  phase_durations(fc, half.duration);
  half.bandwidth = fc.bandwidth;
  half.recv_cpu = cfg.receiver_cpu_base +
                  cfg.receiver_cpu_per_rate * bandwidth_fraction(link_payload_rate, fc);
  half.postcopy = sc.type == MigrationType::kPostCopy;
  // During a post-copy pull the VM already runs on the target.
  half.transfer_vm = half.postcopy ? sc.vm_cpu_vcpus : 0.0;
  // The VM starts on the target partway through activation.
  half.activation_vm = sc.vm_cpu_vcpus * (1.0 - cfg.resume_point_fraction);
  half.initiation_cpu = cfg.initiation_cpu;
  half.activation_cpu = cfg.activation_cpu;
  return half;
}

/// The target samples of one key's half on one target host. Inline, so
/// attach_target keeps them in registers: built out of line, the three
/// samples went through the stack and doubled each target's price.
inline void target_samples(const TargetHalf& half, const TargetSide& target,
                           MigrationSample (&out)[3]) {
  out[0] = make_sample(MigrationPhase::kInitiation,
                       std::min(target.cpu_capacity, target.cpu_load + half.initiation_cpu), 0.0,
                       0.0, 0.0);
  const double transfer_host = half.postcopy
                                   ? target.cpu_load + half.recv_cpu + half.transfer_vm
                                   : target.cpu_load + half.recv_cpu;
  out[1] = make_sample(MigrationPhase::kTransfer, std::min(target.cpu_capacity, transfer_host),
                       half.transfer_vm, half.bandwidth, 0.0);
  out[2] = make_sample(MigrationPhase::kActivation,
                       std::min(target.cpu_capacity,
                                target.cpu_load + half.activation_cpu + half.activation_vm),
                       half.activation_vm, 0.0, 0.0);
}

/// Eq. 4 with constant per-phase features for one role: each phase's
/// predicted power times its duration, and their sum. Always inlined:
/// GCC's own choice flips with the number of callers in this file, and
/// out of line its array arguments go through memory, which nearly
/// doubles the benchmark's core.attach_energy_ns.
[[gnu::always_inline]] inline void role_energy(const RoleCoefficients& k,
                                               const MigrationSample (&samples)[3],
                                               const double (&duration)[3],
                                               double (&phase_energy)[3], double& energy) {
  phase_energy[0] = evaluate(MigrationPhase::kInitiation, k.initiation, samples[0]) * duration[0];
  phase_energy[1] = evaluate(MigrationPhase::kTransfer, k.transfer, samples[1]) * duration[1];
  phase_energy[2] = evaluate(MigrationPhase::kActivation, k.activation, samples[2]) * duration[2];
  energy = phase_energy[0] + phase_energy[1] + phase_energy[2];
}

/// The coefficient table a scenario's energy is priced with.
const Wavm3Coefficients& coefficients_for(const Wavm3Model& model, const MigrationScenario& sc) {
  return model.coefficients(coefficient_type(sc.type));
}

void attach_source(const Wavm3Coefficients& table, const MigrationScenario& sc,
                   double link_payload_rate, MigrationForecast& fc) {
  MigrationSample samples[3];
  source_samples(sc, link_payload_rate, fc, samples);
  double duration[3];
  phase_durations(fc, duration);
  role_energy(table.source, samples, duration, fc.source_phase_energy, fc.source_energy);
}

/// The target half applied to one target host.
void attach_target(const Wavm3Coefficients& table, const TargetHalf& half,
                   const TargetSide& target, MigrationForecast& fc) {
  MigrationSample samples[3];
  target_samples(half, target, samples);
  role_energy(table.target, samples, half.duration, fc.target_phase_energy, fc.target_energy);
}

/// Both halves of one scenario on its own target.
void attach_both(const Wavm3Coefficients& table, const MigrationScenario& sc,
                 MigrationForecast& fc) {
  attach_source(table, sc, sc.link_payload_rate, fc);
  attach_target(table, prepare_target(sc, sc.link_payload_rate, fc), target_of(sc), fc);
}

}  // namespace

PhaseRepresentatives representative_features(const MigrationScenario& sc,
                                             const MigrationForecast& fc) {
  PhaseRepresentatives rep;
  rep.coeff_type = coefficient_type(sc.type);
  source_samples(sc, sc.link_payload_rate, fc, rep.source);
  target_samples(prepare_target(sc, sc.link_payload_rate, fc), target_of(sc), rep.target);
  phase_durations(fc, rep.duration);
  return rep;
}

void attach_energy(const Wavm3Model& model, const MigrationScenario& sc,
                   MigrationForecast& fc) {
  attach_both(coefficients_for(model, sc), sc, fc);
}

MigrationForecast MigrationPlanner::forecast(const MigrationScenario& sc) const {
  const TargetSide target = target_of(sc);
  MigrationForecast fc;
  forecast_targets(sc, {&target, 1}, {&fc, 1});
  return fc;
}

void MigrationPlanner::forecast_batch(std::span<const MigrationScenario* const> scenarios,
                                      std::span<MigrationForecast> out) const {
  WAVM3_REQUIRE(out.size() == scenarios.size(), "forecast_batch: output size mismatch");
  // Each pre-copy round waits on a divide and an exp(); the rounds of
  // kBatchLanes different scenarios do not depend on one another, so
  // running them in lockstep overlaps those latencies. A lane whose
  // recursion stops is priced and refilled at once.
  TimingLane lanes[kBatchLanes];
  std::size_t lane_slot[kBatchLanes];
  std::size_t next = 0;
  const auto price = [&](std::size_t i, const TimingLane& lane) {
    const MigrationScenario& sc = *scenarios[i];
    out[i] = finish_lane(sc, lane);
    attach_both(coefficients_for(*model_, sc), sc, out[i]);
  };
  // Loads lane `l` with the next scenario that has rounds to run,
  // pricing the ones that have none on the way; false when none is left.
  const auto refill = [&](std::size_t l) {
    while (next < scenarios.size()) {
      const std::size_t i = next++;
      const MigrationScenario& sc = *scenarios[i];
      const TargetSide target = target_of(sc);
      require_valid(sc, target);
      if (start_lane(sc, bandwidth_to(sc, target), lanes[l])) {
        lane_slot[l] = i;
        return true;
      }
      price(i, lanes[l]);
    }
    return false;
  };
  std::size_t active = 0;
  while (active < kBatchLanes && refill(active)) ++active;
  while (active > 0) {
    bool stopped[kBatchLanes];
    for (std::size_t l = 0; l < active; ++l) stopped[l] = precopy_round(lanes[l]);
    // Backwards, so a lane moved down from the end was already stepped.
    for (std::size_t l = active; l-- > 0;) {
      if (!stopped[l]) continue;
      price(lane_slot[l], lanes[l]);
      if (!refill(l)) {
        --active;
        lanes[l] = lanes[active];
        lane_slot[l] = lane_slot[active];
      }
    }
  }
}

std::size_t MigrationPlanner::forecast_targets(const MigrationScenario& base,
                                               std::span<const TargetSide> targets,
                                               std::span<MigrationForecast> out) const {
  WAVM3_REQUIRE(out.size() == targets.size(), "forecast_targets: output size mismatch");
  // One entry per distinct (bandwidth, link rate) key: the output that
  // first ran its recursion and source half, and its target half.
  struct Key {
    double bandwidth;
    double link_payload_rate;
    std::size_t first;
    TargetHalf half;
  };
  thread_local std::vector<Key> keys;
  keys.clear();
  const Wavm3Coefficients* table = nullptr;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const TargetSide& target = targets[i];
    require_valid(base, target);
    const double bandwidth = bandwidth_to(base, target);

    // The timings, the source half and the target half's key-only part
    // depend on the target only through (bandwidth, link rate): reuse
    // an earlier target's with exactly the same key, most recent first.
    const Key* key = nullptr;
    for (std::size_t k = keys.size(); k-- > 0;) {
      if (keys[k].bandwidth == bandwidth &&
          keys[k].link_payload_rate == target.link_payload_rate) {
        key = &keys[k];
        break;
      }
    }
    if (key != nullptr) {
      out[i] = out[key->first];
    } else {
      if (table == nullptr) table = &coefficients_for(*model_, base);
      out[i] = timings_at(base, bandwidth);
      attach_source(*table, base, target.link_payload_rate, out[i]);
      keys.push_back(Key{bandwidth, target.link_payload_rate, i,
                         prepare_target(base, target.link_payload_rate, out[i])});
      key = &keys.back();
    }
    attach_target(*table, key->half, target, out[i]);
  }
  return keys.size();
}

}  // namespace wavm3::core
