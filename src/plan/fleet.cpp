#include "plan/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wavm3::plan {

namespace {

/// VMs ahead of the one being refreshed whose samples refresh_loads
/// prefetches.
constexpr std::size_t kPrefetchAhead = 4;

// The prefetch helpers are always inlined: GCC counts a function whose
// only effect is a prefetch as free of side effects and drops calls to
// it.

/// Prefetches the cache lines of `s` over samples [lo, hi], clamped to
/// its size.
[[gnu::always_inline]] inline void prefetch_samples(const std::vector<double>& s,
                                                    std::size_t lo, std::size_t hi) {
  if (lo >= s.size()) return;
  constexpr std::uintptr_t kLine = 64;
  const auto end = reinterpret_cast<std::uintptr_t>(s.data() + std::min(hi, s.size() - 1));
  for (auto line = reinterpret_cast<std::uintptr_t>(s.data() + lo) & ~(kLine - 1); line <= end;
       line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

/// Prefetches what a window indexed like `w` reads of `h` when `h` is
/// sampled on w's grid: both ends of its times, which clamp the window,
/// and samples [w.at_a.lo, w.at_b.hi] of each series.
[[gnu::always_inline]] inline void prefetch_window(const VmHistory& h,
                                                   const kernels::WindowIndex& w) {
  if (h.t.empty()) return;
  __builtin_prefetch(&h.t.front());
  __builtin_prefetch(&h.t.back());
  if (w.overlap != kernels::WindowIndex::Overlap::kSpan) return;
  prefetch_samples(h.t, w.at_a.lo, w.at_b.hi);
  prefetch_samples(h.cpu, w.at_a.lo, w.at_b.hi);
  prefetch_samples(h.dirty, w.at_a.lo, w.at_b.hi);
}

}  // namespace

FleetVm fleet_vm(const cloud::Vm& vm, double now) {
  FleetVm fv;
  fv.id = vm.id();
  fv.vcpus = static_cast<double>(vm.spec().vcpus);
  fv.ram_bytes = vm.spec().ram_bytes;
  fv.working_set_pages = vm.working_set_pages();
  fv.cpu_now = vm.cpu_demand(now);
  fv.dirty_now = vm.dirty_page_rate(now);
  return fv;
}

int Fleet::add_host(cloud::HostSpec spec) {
  WAVM3_REQUIRE(!spec.name.empty(), "fleet host needs a name");
  WAVM3_REQUIRE(host_index(spec.name) < 0, "duplicate fleet host: " + spec.name);
  FleetHost h;
  // A short list, and hosts arrive rack by rack: search newest first.
  const auto known = std::find(group_names_.rbegin(), group_names_.rend(), spec.group);
  if (known == group_names_.rend()) {
    h.group_id = static_cast<int>(group_names_.size());
    group_names_.push_back(spec.group);
  } else {
    h.group_id = static_cast<int>(group_names_.rend() - known) - 1;
  }
  h.spec = std::move(spec);
  hosts_.push_back(std::move(h));
  const int index = static_cast<int>(hosts_.size()) - 1;
  host_by_name_[hosts_.back().spec.name] = index;
  return index;
}

int Fleet::add_vm(FleetVm vm, int host) {
  WAVM3_REQUIRE(host >= 0 && host < static_cast<int>(hosts_.size()),
                "add_vm: host index out of range");
  FleetHost& h = hosts_[static_cast<std::size_t>(host)];
  WAVM3_REQUIRE(h.ram_committed + vm.ram_bytes <= h.spec.ram_bytes,
                "add_vm: VM does not fit in host RAM: " + vm.id);
  vm.host = host;
  h.ram_committed += vm.ram_bytes;
  h.cpu_load += vm.cpu_now;
  const int index = static_cast<int>(vms_.size());
  h.vms.push_back(index);
  vms_.push_back(std::move(vm));
  loads_at_.reset();
  return index;
}

int Fleet::host_index(const std::string& name) const {
  const auto it = host_by_name_.find(name);
  return it == host_by_name_.end() ? -1 : it->second;
}

double Fleet::history_end() const {
  double end = 0.0;
  for (const FleetVm& vm : vms_) {
    if (!vm.history.empty()) end = std::max(end, vm.history.t.back());
  }
  return end;
}

double Fleet::host_utilisation(int h) const {
  const FleetHost& host = hosts_[static_cast<std::size_t>(h)];
  const double cap = static_cast<double>(host.spec.vcpus);
  if (cap <= 0.0) return 0.0;
  return std::min(1.0, host.cpu_load / cap);
}

bool Fleet::fits(int h, const FleetVm& vm) const {
  const FleetHost& host = hosts_[static_cast<std::size_t>(h)];
  return host.ram_committed + vm.ram_bytes <= host.spec.ram_bytes;
}

void Fleet::move_vm(int v, int to) {
  WAVM3_REQUIRE(v >= 0 && v < static_cast<int>(vms_.size()), "move_vm: VM index out of range");
  WAVM3_REQUIRE(to >= 0 && to < static_cast<int>(hosts_.size()),
                "move_vm: host index out of range");
  FleetVm& vm = vms_[static_cast<std::size_t>(v)];
  if (vm.host == to) return;
  FleetHost& src = hosts_[static_cast<std::size_t>(vm.host)];
  FleetHost& dst = hosts_[static_cast<std::size_t>(to)];
  WAVM3_REQUIRE(dst.ram_committed + vm.ram_bytes <= dst.spec.ram_bytes,
                "move_vm: VM does not fit on target: " + vm.id);
  src.vms.erase(std::find(src.vms.begin(), src.vms.end(), v));
  src.ram_committed -= vm.ram_bytes;
  src.cpu_load -= vm.cpu_now;
  dst.vms.push_back(v);
  dst.ram_committed += vm.ram_bytes;
  dst.cpu_load += vm.cpu_now;
  vm.host = to;
}

void Fleet::set_powered(int h, bool on) {
  hosts_[static_cast<std::size_t>(h)].powered_on = on;
}

const CycleEstimate& Fleet::cycle(int v, const CycleDetector& detector) {
  WAVM3_REQUIRE(v >= 0 && v < static_cast<int>(vms_.size()), "cycle: VM index out of range");
  if (!(detector.config() == cycles_config_)) {
    cycles_.clear();
    cycles_config_ = detector.config();
  }
  if (cycles_.size() < vms_.size()) cycles_.resize(vms_.size());
  std::optional<CycleEstimate>& slot = cycles_[static_cast<std::size_t>(v)];
  if (!slot) {
    const VmHistory& history = vms_[static_cast<std::size_t>(v)].history;
    slot = detector.analyze(history.t, history.dirty);
    ++cycle_analyses_;
  }
  return *slot;
}

void Fleet::refresh_loads(double now, double window_s) {
  WAVM3_OBS_SPAN(span, "plan", "refresh_loads");
  const bool memo_hit = loads_at_ && loads_at_->first == now && loads_at_->second == window_s;
  loads_at_.emplace(now, window_s);
  for (FleetHost& h : hosts_) h.cpu_load = 0.0;
  // The pass is memory-bound: each VM's samples are three heap blocks
  // of their own. Neighbouring VMs usually share a sampling grid, so
  // while VM i is summed, the lines of VM i + kPrefetchAhead that VM
  // i's predecessor read are prefetched. On another grid that is a
  // wasted hint, never a different result.
  const double t0 = now - window_s;
  std::size_t refreshed = 0;
  kernels::WindowIndex last;
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    FleetVm& vm = vms_[i];
    if (!memo_hit && !vm.history.empty()) {
      if (i + kPrefetchAhead < vms_.size()) prefetch_window(vms_[i + kPrefetchAhead].history, last);
      const VmHistory& h = vm.history;
      const kernels::WindowIndex w = kernels::window_index(h.t, t0, now);
      vm.cpu_now = kernels::window_mean(w, h.t, h.cpu);
      vm.dirty_now = kernels::window_mean(w, h.t, h.dirty);
      last = w;
      ++refreshed;
    }
    hosts_[static_cast<std::size_t>(vm.host)].cpu_load += vm.cpu_now;
  }
  span.arg("vms", static_cast<double>(refreshed));
}

Fleet Fleet::synthetic(int n_hosts, int n_vms, std::uint64_t seed,
                       const SyntheticFleetOptions& opts) {
  WAVM3_REQUIRE(n_hosts >= 2 && n_vms >= 1, "need >= 2 hosts and >= 1 VM");
  WAVM3_REQUIRE(opts.period_s > 0.0 && opts.sample_period_s > 0.0,
                "synthetic fleet needs positive periods");
  util::RngFactory rng_factory(seed);
  util::RngStream rng = rng_factory.stream("plan-fleet");

  Fleet fleet;
  for (int i = 0; i < n_hosts; ++i) {
    cloud::HostSpec h;
    h.name = util::format("host%04d", i);
    h.vcpus = opts.host_vcpus;
    h.ram_bytes = util::gib(opts.host_ram_gib);
    h.nic_rate = util::gbit_per_s(1);
    h.max_concurrent_migrations = opts.max_concurrent_migrations;
    h.group = util::format("rack%03d", i / std::max(1, opts.hosts_per_group));
    fleet.add_host(std::move(h));
  }

  const int steps = static_cast<int>(opts.history_s / opts.sample_period_s);
  for (int i = 0; i < n_vms; ++i) {
    FleetVm vm;
    vm.id = util::format("vm%05d", i);
    vm.vcpus = static_cast<double>(rng.uniform_int(1, 4));
    vm.ram_bytes = util::gib(static_cast<double>(rng.uniform_int(1, 4)));
    const double dirty_full = rng.uniform(500.0, 20000.0);
    vm.working_set_pages = static_cast<std::uint64_t>(
        rng.uniform(0.05, 0.5) * vm.ram_bytes / static_cast<double>(util::kPageSize));

    const bool periodic = rng.chance(opts.periodic_fraction);
    const double low = rng.uniform(0.05, 0.2);
    const double high = rng.uniform(0.5, 1.0);
    const double phase = rng.uniform(0.0, opts.period_s);
    const double flat = rng.uniform(0.1, 0.6);

    vm.history.t.reserve(static_cast<std::size_t>(steps) + 1);
    for (int s = 0; s <= steps; ++s) {
      const double t = s * opts.sample_period_s;
      double frac;
      if (periodic) {
        const double omega = 2.0 * M_PI * (t + phase) / opts.period_s;
        frac = low + (high - low) * 0.5 * (1.0 - std::cos(omega));
      } else {
        // Aperiodic: bounded jitter around a flat level.
        frac = std::clamp(flat + rng.uniform(-0.1, 0.1), 0.0, 1.0);
      }
      vm.history.t.push_back(t);
      vm.history.cpu.push_back(frac * vm.vcpus);
      vm.history.dirty.push_back(frac * dirty_full);
    }

    // Spread VMs round-robin; fits() is guaranteed by construction for
    // the default 32 GiB hosts, but fall forward to the next host with
    // room when a custom option set packs tighter.
    int host = i % n_hosts;
    for (int probe = 0; probe < n_hosts && !fleet.fits(host, vm); ++probe) {
      host = (host + 1) % n_hosts;
    }
    WAVM3_REQUIRE(fleet.fits(host, vm), "synthetic fleet: no host fits " + vm.id);
    fleet.add_vm(std::move(vm), host);
  }
  fleet.refresh_loads(opts.history_s, opts.history_s);
  return fleet;
}

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::stringstream ss(line);
  while (std::getline(ss, field, ',')) fields.push_back(field);
  return fields;
}

double parse_double(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  WAVM3_REQUIRE(end != s.c_str() && *end == '\0' && std::isfinite(v),
                std::string("fleet CSV: bad ") + what + ": " + s);
  return v;
}

}  // namespace

Fleet Fleet::from_csv(std::istream& hosts_csv, std::istream& vms_csv) {
  Fleet fleet;
  std::string line;

  WAVM3_REQUIRE(static_cast<bool>(std::getline(hosts_csv, line)), "fleet CSV: empty host file");
  WAVM3_REQUIRE(line == "name,vcpus,ram_gib,nic_gbit,group,max_migrations",
                "fleet CSV: unexpected host header: " + line);
  while (std::getline(hosts_csv, line)) {
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    WAVM3_REQUIRE(f.size() == 6, "fleet CSV: host row needs 6 fields: " + line);
    cloud::HostSpec h;
    h.name = f[0];
    h.vcpus = static_cast<int>(parse_double(f[1], "vcpus"));
    h.ram_bytes = util::gib(parse_double(f[2], "ram_gib"));
    h.nic_rate = util::gbit_per_s(parse_double(f[3], "nic_gbit"));
    h.group = f[4];
    h.max_concurrent_migrations = static_cast<int>(parse_double(f[5], "max_migrations"));
    WAVM3_REQUIRE(h.vcpus > 0, "fleet CSV: host vcpus must be positive: " + line);
    WAVM3_REQUIRE(h.ram_bytes > 0.0, "fleet CSV: host ram_gib must be positive: " + line);
    WAVM3_REQUIRE(h.nic_rate >= 0.0, "fleet CSV: host nic_gbit must be non-negative: " + line);
    WAVM3_REQUIRE(h.max_concurrent_migrations >= 0,
                  "fleet CSV: host max_migrations must be non-negative: " + line);
    fleet.add_host(std::move(h));
  }

  WAVM3_REQUIRE(static_cast<bool>(std::getline(vms_csv, line)), "fleet CSV: empty VM file");
  WAVM3_REQUIRE(line == "id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages",
                "fleet CSV: unexpected VM header: " + line);
  std::unordered_set<std::string> seen_vm_ids;
  while (std::getline(vms_csv, line)) {
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    WAVM3_REQUIRE(f.size() == 7, "fleet CSV: VM row needs 7 fields: " + line);
    FleetVm vm;
    vm.id = f[0];
    WAVM3_REQUIRE(!vm.id.empty(), "fleet CSV: VM id must not be empty: " + line);
    WAVM3_REQUIRE(seen_vm_ids.insert(vm.id).second,
                  "fleet CSV: duplicate VM id: " + vm.id);
    const int host = fleet.host_index(f[1]);
    WAVM3_REQUIRE(host >= 0, "fleet CSV: VM on unknown host: " + line);
    vm.vcpus = parse_double(f[2], "vcpus");
    vm.ram_bytes = util::gib(parse_double(f[3], "ram_gib"));
    vm.cpu_now = parse_double(f[4], "cpu_vcpus");
    vm.dirty_now = parse_double(f[5], "dirty_pages_per_s");
    const double working_set = parse_double(f[6], "working_set_pages");
    WAVM3_REQUIRE(vm.vcpus > 0.0, "fleet CSV: VM vcpus must be positive: " + line);
    WAVM3_REQUIRE(vm.ram_bytes >= 0.0, "fleet CSV: VM ram_gib must be non-negative: " + line);
    WAVM3_REQUIRE(vm.cpu_now >= 0.0, "fleet CSV: VM cpu_vcpus must be non-negative: " + line);
    WAVM3_REQUIRE(vm.dirty_now >= 0.0,
                  "fleet CSV: VM dirty_pages_per_s must be non-negative: " + line);
    WAVM3_REQUIRE(working_set >= 0.0,
                  "fleet CSV: VM working_set_pages must be non-negative: " + line);
    vm.working_set_pages = static_cast<std::uint64_t>(working_set);
    fleet.add_vm(std::move(vm), host);
  }
  return fleet;
}

}  // namespace wavm3::plan
