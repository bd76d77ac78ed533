#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavm3::faults {

namespace {
// Beyond this many piecewise segments the exact integral degrades to
// midpoint sampling (only reachable with sub-second flap periods over
// hour-long windows).
constexpr std::size_t kMaxBreakpoints = 8192;
constexpr int kFallbackSamples = 2048;
}  // namespace

const char* to_string(FaultPhase p) {
  switch (p) {
    case FaultPhase::kAny: return "any";
    case FaultPhase::kInitiation: return "initiation";
    case FaultPhase::kTransfer: return "transfer";
  }
  return "?";
}

FaultPlan& FaultPlan::add(const LinkDegradation& d) {
  WAVM3_REQUIRE(d.end > d.start, "degradation window must have positive length");
  WAVM3_REQUIRE(d.factor >= 0.0 && d.factor <= 1.0, "degradation factor must be in [0,1]");
  degradations_.push_back(d);
  return *this;
}

FaultPlan& FaultPlan::add(const LinkFlap& f) {
  WAVM3_REQUIRE(f.end >= f.start, "flap window must not end before it starts");
  WAVM3_REQUIRE(f.up_duration >= 0.0 && f.down_duration >= 0.0,
                "flap up/down durations must be non-negative");
  WAVM3_REQUIRE(f.up_duration + f.down_duration > 0.0,
                "flap period must be positive (up + down > 0)");
  WAVM3_REQUIRE(f.down_factor >= 0.0 && f.down_factor <= 1.0,
                "flap down factor must be in [0,1]");
  // Degenerate-but-harmless flaps are accepted and dropped: a
  // zero-length window or a flap that is never down cannot affect
  // link_factor, and storing them would divide the factor evaluation's
  // phase arithmetic by pathological periods for nothing.
  if (f.end == f.start || f.down_duration == 0.0) return *this;
  flaps_.push_back(f);
  return *this;
}

FaultPlan& FaultPlan::add(const TransferStall& s) {
  WAVM3_REQUIRE(s.duration > 0.0, "stall duration must be positive");
  stalls_.push_back(s);
  return *this;
}

FaultPlan& FaultPlan::add(const HostOverload& o) {
  WAVM3_REQUIRE(!o.host.empty(), "overload needs a host name");
  WAVM3_REQUIRE(o.end > o.start, "overload window must have positive length");
  WAVM3_REQUIRE(o.extra_vcpus >= 0.0, "overload demand must be non-negative");
  overloads_.push_back(o);
  return *this;
}

FaultPlan& FaultPlan::add(const ConnectionLoss& l) {
  WAVM3_REQUIRE(l.at >= 0.0, "loss time/offset must be non-negative");
  losses_.push_back(l);
  return *this;
}

double FaultPlan::link_factor(double t) const {
  double f = 1.0;
  for (const LinkDegradation& d : degradations_) {
    if (t >= d.start && t < d.end) f *= d.factor;
  }
  for (const TransferStall& s : stalls_) {
    if (t >= s.at && t < s.at + s.duration) f = 0.0;
  }
  for (const LinkFlap& fl : flaps_) {
    if (t < fl.start || t >= fl.end) continue;
    const double period = fl.up_duration + fl.down_duration;
    const double pos = std::fmod(t - fl.start, period);
    if (pos >= fl.up_duration) f *= fl.down_factor;
  }
  return std::clamp(f, 0.0, 1.0);
}

double FaultPlan::average_link_factor(double t0, double t1) const {
  WAVM3_REQUIRE(t1 >= t0, "average window must be ordered");
  if (t1 == t0 || !has_link_faults()) return link_factor(t0);

  std::vector<double> cuts{t0, t1};
  const auto add_cut = [&](double t) {
    if (t > t0 && t < t1) cuts.push_back(t);
  };
  for (const LinkDegradation& d : degradations_) {
    add_cut(d.start);
    add_cut(d.end);
  }
  for (const TransferStall& s : stalls_) {
    add_cut(s.at);
    add_cut(s.at + s.duration);
  }
  bool too_fine = false;
  for (const LinkFlap& fl : flaps_) {
    add_cut(fl.start);
    add_cut(fl.end);
    const double period = fl.up_duration + fl.down_duration;
    const double lo = std::max(t0, fl.start);
    const double hi = std::min(t1, fl.end);
    if (hi <= lo) continue;
    if ((hi - lo) / period > static_cast<double>(kMaxBreakpoints) / 2.0) {
      too_fine = true;
      continue;
    }
    const double k0 = std::floor((lo - fl.start) / period);
    for (double k = k0;; k += 1.0) {
      const double up_start = fl.start + k * period;
      if (up_start >= hi) break;
      add_cut(up_start);
      add_cut(up_start + fl.up_duration);
    }
  }

  if (too_fine || cuts.size() > kMaxBreakpoints) {
    double acc = 0.0;
    const double dt = (t1 - t0) / kFallbackSamples;
    for (int i = 0; i < kFallbackSamples; ++i) {
      acc += link_factor(t0 + (static_cast<double>(i) + 0.5) * dt);
    }
    return acc / kFallbackSamples;
  }

  std::sort(cuts.begin(), cuts.end());
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double a = cuts[i];
    const double b = cuts[i + 1];
    if (b <= a) continue;
    acc += link_factor(0.5 * (a + b)) * (b - a);
  }
  return acc / (t1 - t0);
}

double FaultPlan::host_overload(std::string_view host, double t) const {
  double v = 0.0;
  for (const HostOverload& o : overloads_) {
    if (o.host == host && t >= o.start && t < o.end) v += o.extra_vcpus;
  }
  return v;
}

std::optional<double> FaultPlan::next_loss_at_or_after(double t) const {
  std::optional<double> best;
  for (const ConnectionLoss& l : losses_) {
    if (l.phase != FaultPhase::kAny || l.at < t) continue;
    if (!best || l.at < *best) best = l.at;
  }
  return best;
}

std::optional<double> FaultPlan::loss_offset_in(FaultPhase phase) const {
  std::optional<double> best;
  for (const ConnectionLoss& l : losses_) {
    if (l.phase != phase) continue;
    if (!best || l.at < *best) best = l.at;
  }
  return best;
}

bool FaultPlan::has_link_faults() const {
  return !degradations_.empty() || !flaps_.empty() || !stalls_.empty();
}

FaultPlan FaultPlan::random(const FaultPlanOptions& opt, std::uint64_t seed) {
  WAVM3_REQUIRE(opt.horizon > 0.0, "fault horizon must be positive");
  FaultPlan plan;
  const util::RngFactory factory(seed);

  {
    util::RngStream rng = factory.stream("faults/degradations");
    for (int i = 0; i < opt.degradations; ++i) {
      LinkDegradation d;
      d.start = rng.uniform(0.0, opt.horizon);
      d.end = d.start + rng.uniform(opt.degradation_min_duration, opt.degradation_max_duration);
      d.factor = rng.uniform(opt.degradation_min_factor, opt.degradation_max_factor);
      plan.add(d);
    }
  }
  {
    util::RngStream rng = factory.stream("faults/stalls");
    for (int i = 0; i < opt.stalls; ++i) {
      TransferStall s;
      s.at = rng.uniform(0.0, opt.horizon);
      s.duration = rng.uniform(opt.stall_min_duration, opt.stall_max_duration);
      plan.add(s);
    }
  }
  {
    util::RngStream rng = factory.stream("faults/flaps");
    for (int i = 0; i < opt.flaps; ++i) {
      LinkFlap f;
      f.start = rng.uniform(0.0, opt.horizon);
      f.end = f.start + rng.uniform(opt.flap_min_duration, opt.flap_max_duration);
      f.up_duration = opt.flap_up_duration;
      f.down_duration = opt.flap_down_duration;
      f.down_factor = opt.flap_down_factor;
      plan.add(f);
    }
  }
  {
    util::RngStream rng = factory.stream("faults/overloads");
    for (const std::string& host : opt.overload_hosts) {
      for (int i = 0; i < opt.overloads_per_host; ++i) {
        HostOverload o;
        o.host = host;
        o.start = rng.uniform(0.0, opt.horizon);
        o.end = o.start + rng.uniform(opt.overload_min_duration, opt.overload_max_duration);
        o.extra_vcpus = rng.uniform(opt.overload_min_vcpus, opt.overload_max_vcpus);
        plan.add(o);
      }
    }
  }
  {
    util::RngStream rng = factory.stream("faults/losses");
    if (opt.connection_loss_probability > 0.0 && rng.chance(opt.connection_loss_probability)) {
      plan.add(ConnectionLoss{FaultPhase::kAny, rng.uniform(0.0, opt.horizon)});
    }
  }
  return plan;
}

void emit_fault_instants(const FaultPlan& plan) {
  obs::Tracer& tr = obs::tracer();
  if (!tr.enabled()) return;
  for (const LinkDegradation& d : plan.degradations()) {
    tr.emit_instant("faults", "link_degradation", obs::sim_ns(d.start),
                    {{"duration_s", d.end - d.start}, {"factor", d.factor}}, nullptr, nullptr,
                    obs::kSimPid);
  }
  for (const LinkFlap& f : plan.flaps()) {
    tr.emit_instant("faults", "link_flap", obs::sim_ns(f.start),
                    {{"duration_s", f.end - f.start},
                     {"down_factor", f.down_factor},
                     {"period_s", f.up_duration + f.down_duration}},
                    nullptr, nullptr, obs::kSimPid);
  }
  for (const TransferStall& s : plan.stalls()) {
    tr.emit_instant("faults", "transfer_stall", obs::sim_ns(s.at), {{"duration_s", s.duration}},
                    nullptr, nullptr, obs::kSimPid);
  }
  for (const HostOverload& o : plan.overloads()) {
    tr.emit_instant("faults", "host_overload", obs::sim_ns(o.start),
                    {{"duration_s", o.end - o.start}, {"extra_vcpus", o.extra_vcpus}}, nullptr,
                    nullptr, obs::kSimPid);
  }
  for (const ConnectionLoss& l : plan.connection_losses()) {
    // Phase-bound losses have no absolute time until a migration runs;
    // stamp them at 0 with their in-phase offset as an annotation.
    const bool absolute = l.phase == FaultPhase::kAny;
    tr.emit_instant("faults", "connection_loss", absolute ? obs::sim_ns(l.at) : 0,
                    {{"offset_s", l.at}}, "phase", to_string(l.phase), obs::kSimPid);
  }
}

}  // namespace wavm3::faults
