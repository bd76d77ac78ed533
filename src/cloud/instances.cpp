#include "cloud/instances.hpp"

#include "util/error.hpp"
#include "util/units.hpp"
#include "workloads/matrixmult.hpp"
#include "workloads/netstream.hpp"
#include "workloads/pagedirtier.hpp"

namespace wavm3::cloud {

using util::gib;
using util::mib;

VmSpec load_cpu_spec() {
  VmSpec s;
  s.instance_type = "load-cpu";
  s.vcpus = 4;
  s.ram_bytes = mib(512);
  s.storage_bytes = gib(1);
  s.linux_kernel = "2.6.32";
  return s;
}

VmSpec migrating_cpu_spec() {
  VmSpec s;
  s.instance_type = "migrating-cpu";
  s.vcpus = 4;
  s.ram_bytes = gib(4);
  s.storage_bytes = gib(6);
  s.linux_kernel = "2.6.32";
  return s;
}

VmSpec migrating_mem_spec() {
  VmSpec s;
  s.instance_type = "migrating-mem";
  s.vcpus = 1;
  s.ram_bytes = gib(4);
  s.storage_bytes = gib(6);
  s.linux_kernel = "2.6.32";
  return s;
}

VmSpec migrating_net_spec() {
  VmSpec s;
  s.instance_type = "migrating-net";
  s.vcpus = 2;
  s.ram_bytes = gib(4);
  s.storage_bytes = gib(6);
  s.linux_kernel = "2.6.32";
  return s;
}

VmPtr make_load_cpu_vm(const std::string& id) {
  auto vm = std::make_shared<Vm>(id, load_cpu_spec());
  workloads::MatrixMultParams p;
  p.threads = 4;
  vm->set_workload(std::make_shared<workloads::MatrixMultWorkload>(p));
  vm->start();
  return vm;
}

VmPtr make_migrating_cpu_vm(const std::string& id) {
  auto vm = std::make_shared<Vm>(id, migrating_cpu_spec());
  workloads::MatrixMultParams p;
  p.threads = 4;
  vm->set_workload(std::make_shared<workloads::MatrixMultWorkload>(p));
  vm->start();
  return vm;
}

VmPtr make_migrating_net_vm(const std::string& id, double bytes_per_s) {
  WAVM3_REQUIRE(bytes_per_s >= 0.0, "traffic rate must be nonnegative");
  auto vm = std::make_shared<Vm>(id, migrating_net_spec());
  workloads::NetStreamParams p;
  p.bytes_per_s = bytes_per_s;
  vm->set_workload(std::make_shared<workloads::NetStreamWorkload>(p));
  vm->start();
  return vm;
}

VmPtr make_migrating_mem_vm(const std::string& id, double memory_fraction) {
  WAVM3_REQUIRE(memory_fraction > 0.0 && memory_fraction <= 1.0,
                "memory_fraction must be in (0,1]");
  auto vm = std::make_shared<Vm>(id, migrating_mem_spec());
  workloads::PageDirtierParams p;
  p.memory_fraction = memory_fraction;
  p.allocated_pages = vm->ram_pages();
  // A single dirtier core writes through its buffer at a fixed byte
  // rate; the *fresh* dirty production seen by pre-copy still grows with
  // the touched fraction through the working-set law.
  p.dirty_pages_per_s = 300'000.0;
  p.cpu_demand = 1.0;
  vm->set_workload(std::make_shared<workloads::PageDirtierWorkload>(p));
  vm->start();
  return vm;
}

}  // namespace wavm3::cloud
