// The VM instance catalogue of Table IIb and factory helpers that attach
// the matching workloads (matrixmult / pagedirtier).
#pragma once

#include <string>

#include "cloud/vm.hpp"

namespace wavm3::cloud {

/// VmSpec for the Table IIb `load-cpu` instance:
/// 4 vCPUs, 512 MB RAM, matrixmult, 1 GB storage.
VmSpec load_cpu_spec();

/// VmSpec for `migrating-cpu`: 4 vCPUs, 4 GB RAM, matrixmult, 6 GB storage.
VmSpec migrating_cpu_spec();

/// VmSpec for `migrating-mem`: 1 vCPU, 4 GB RAM, pagedirtier, 6 GB storage.
VmSpec migrating_mem_spec();

/// Creates a started `load-cpu` VM running matrixmult on all 4 vCPUs.
VmPtr make_load_cpu_vm(const std::string& id);

/// Creates a started `migrating-cpu` VM running matrixmult (100% CPU,
/// 5% memory — Table IIa).
VmPtr make_migrating_cpu_vm(const std::string& id);

/// Creates a started `migrating-mem` VM running pagedirtier with the
/// given memory fraction (Table IIa sweeps 5%..95%) and a dirtying
/// intensity proportional to the touched memory.
VmPtr make_migrating_mem_vm(const std::string& id, double memory_fraction);

/// VmSpec for the extension `migrating-net` instance (SVIII future
/// work): 2 vCPUs, 4 GB RAM, an iperf-like network streamer.
VmSpec migrating_net_spec();

/// Creates a started `migrating-net` VM streaming `bytes_per_s` of
/// payload through the host NIC.
VmPtr make_migrating_net_vm(const std::string& id, double bytes_per_s);

}  // namespace wavm3::cloud
