// Planning-side fleet model: thousands of hosts and tens of thousands
// of VMs as flat index-addressed structs — the scale at which the
// datacenter planner works. The fleet is a *snapshot for planning*
// (capacities, placements, sampled utilisation histories), not a live
// simulation: dcsim's DataCenterSimulation owns VM objects and events;
// Fleet owns only the numbers the planner scores on, so a 2k-host /
// 20k-VM wave fits comfortably in cache-friendly vectors.
//
// Population paths: synthetic() (seeded scenario generator with
// periodic and aperiodic workloads), from_csv() (external host/VM spec
// files), and add_host()/add_vm() directly — dcsim's controller builds
// a history-less snapshot of its live data centre that way (fleet_vm())
// on every consolidation tick.
//
// The fleet also memoises each VM's workload cycle (cycle()): a VM's
// history never changes once added, so rolling waves analyse it once,
// not once per wave.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/host.hpp"
#include "plan/cycle_detector.hpp"

namespace wavm3::plan {

/// Sampled per-VM utilisation history: the inputs of cycle detection
/// and of the planner's windowed load estimates. Times are absolute
/// simulation seconds, shared across cpu and dirty.
struct VmHistory {
  std::vector<double> t;      ///< sample times, non-decreasing
  std::vector<double> cpu;    ///< CPU(v,t) demand, vCPUs
  std::vector<double> dirty;  ///< page-dirtying rate, pages/s

  bool empty() const { return t.empty(); }

  /// Mean CPU demand over [t0, t1] (stats::window_mean; clamped to the
  /// sampled extent).
  double mean_cpu(double t0, double t1) const;
  /// Mean dirtying rate over [t0, t1].
  double mean_dirty(double t0, double t1) const;
};

/// One VM as the planner sees it.
struct FleetVm {
  std::string id;
  int host = -1;                       ///< index into Fleet hosts
  double vcpus = 1.0;
  double ram_bytes = 0.0;
  std::uint64_t working_set_pages = 0;
  double cpu_now = 0.0;                ///< trailing-window mean demand, vCPUs
  double dirty_now = 0.0;              ///< trailing-window mean dirtying, pages/s
  VmHistory history;
};

/// A live cloud::Vm as the planner sees it at time `now`: its current
/// demand and dirtying rate, RAM and working set, with no history.
FleetVm fleet_vm(const cloud::Vm& vm, double now);

/// One host as the planner sees it. Capacities come from the shared
/// cloud::HostSpec (including the fleet fields: nic_rate,
/// max_concurrent_migrations, group).
struct FleetHost {
  cloud::HostSpec spec;
  bool powered_on = true;
  std::vector<int> vms;                ///< indices of placed VMs
  double cpu_load = 0.0;               ///< sum of placed VMs' cpu_now
  double ram_committed = 0.0;          ///< sum of placed VMs' ram_bytes
};

/// Options for the synthetic fleet generator.
struct SyntheticFleetOptions {
  double period_s = 7200.0;          ///< workload cycle of the periodic VMs
  double periodic_fraction = 0.7;    ///< share of VMs with cyclic load
  double history_s = 4.0 * 7200.0;   ///< sampled history span (>= 2 periods)
  double sample_period_s = 60.0;     ///< history resolution
  int host_vcpus = 32;
  double host_ram_gib = 32.0;
  int hosts_per_group = 16;          ///< rack size
  int max_concurrent_migrations = 1;
};

class Fleet {
 public:
  /// Adds a host; returns its index. Names must be unique.
  int add_host(cloud::HostSpec spec);

  /// Places a VM on host index `host`; returns the VM index.
  int add_vm(FleetVm vm, int host);

  std::size_t host_count() const { return hosts_.size(); }
  std::size_t vm_count() const { return vms_.size(); }
  const FleetHost& host(int h) const { return hosts_[static_cast<std::size_t>(h)]; }
  const FleetVm& vm(int v) const { return vms_[static_cast<std::size_t>(v)]; }
  std::span<const FleetHost> hosts() const { return hosts_; }
  std::span<const FleetVm> vms() const { return vms_; }

  /// Host index by name, or -1.
  int host_index(const std::string& name) const;

  /// CPU utilisation fraction of a host in [0, 1] (demand-capped).
  double host_utilisation(int h) const;

  /// Whether `vm` fits on host `h` by RAM (placement constraint).
  bool fits(int h, const FleetVm& vm) const;

  /// Commits a move: reparents VM `v` onto host `to`, updating both
  /// hosts' load/RAM accounting. The planner calls this when a wave is
  /// committed.
  void move_vm(int v, int to);

  void set_powered(int h, bool on);

  /// The workload cycle of VM `v`'s dirtying history, analysed by
  /// `detector` on first use and memoised per VM. The memo remembers
  /// the CycleDetectorConfig it was filled under; a call under a
  /// different config clears it. Copies of the fleet carry the memo.
  /// The reference stays valid until the fleet gains a VM or the
  /// config changes.
  const CycleEstimate& cycle(int v, const CycleDetector& detector);

  /// Analyses cycle() actually ran (memo misses, not hits), counted
  /// across copies.
  std::size_t cycle_analyses() const { return cycle_analyses_; }

  /// Refreshes every VM's cpu_now/dirty_now to the trailing-window
  /// means ending at `now`, and host loads to match. Call before
  /// planning a wave at a new time.
  void refresh_loads(double now, double window_s);

  /// Seeded scenario generator: `periodic_fraction` of the VMs get
  /// cyclic (diurnal-shaped, period opts.period_s) CPU + dirtying
  /// histories with random phases, the rest aperiodic noise. Hosts are
  /// grouped into racks of opts.hosts_per_group.
  static Fleet synthetic(int n_hosts, int n_vms, std::uint64_t seed,
                         const SyntheticFleetOptions& opts = {});

  /// Loads a fleet from CSV specs.
  /// Hosts header: name,vcpus,ram_gib,nic_gbit,group,max_migrations
  /// VMs header:   id,host,vcpus,ram_gib,cpu_vcpus,dirty_pages_per_s,working_set_pages
  /// Throws util::ContractError on malformed input.
  static Fleet from_csv(std::istream& hosts_csv, std::istream& vms_csv);

 private:
  std::vector<FleetHost> hosts_;
  // Invariant behind the cycle memo: a VM's history is set once, by
  // add_vm, and never changes. vms_ is private and vm()/vms() hand out
  // const views; move_vm and refresh_loads touch only placement and
  // cpu_now/dirty_now. So a memoised CycleEstimate is exact.
  std::vector<FleetVm> vms_;
  std::unordered_map<std::string, int> host_by_name_;
  std::vector<std::optional<CycleEstimate>> cycles_;  ///< by VM index; filled lazily
  CycleDetectorConfig cycles_config_;                  ///< config cycles_ was filled under
  std::size_t cycle_analyses_ = 0;
};

}  // namespace wavm3::plan
