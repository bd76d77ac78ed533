// Unit tests for the cloud substrate: VM lifecycle, hypervisor
// arbitration (Eq. 2), host accounting, instance catalogue, data centre.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cloud/datacenter.hpp"
#include "cloud/host.hpp"
#include "cloud/hypervisor.hpp"
#include "cloud/instances.hpp"
#include "cloud/vm.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "workloads/matrixmult.hpp"
#include "workloads/pagedirtier.hpp"

namespace wavm3::cloud {
namespace {

HostSpec host32(const std::string& name = "m01") {
  HostSpec h;
  h.name = name;
  h.vcpus = 32;
  h.ram_bytes = util::gib(32);
  return h;
}

TEST(Vm, LifecycleTransitions) {
  Vm vm("v1", migrating_cpu_spec());
  EXPECT_EQ(vm.state(), VmState::kStopped);
  vm.start();
  EXPECT_EQ(vm.state(), VmState::kRunning);
  vm.suspend();
  EXPECT_EQ(vm.state(), VmState::kSuspended);
  vm.resume();
  EXPECT_EQ(vm.state(), VmState::kRunning);
  vm.stop();
  EXPECT_EQ(vm.state(), VmState::kStopped);
}

TEST(Vm, InvalidTransitionsThrow) {
  Vm vm("v1", migrating_cpu_spec());
  EXPECT_THROW(vm.suspend(), util::ContractError);
  EXPECT_THROW(vm.resume(), util::ContractError);
  vm.start();
  EXPECT_THROW(vm.start(), util::ContractError);
  EXPECT_THROW(vm.resume(), util::ContractError);
}

TEST(Vm, DemandZeroUnlessRunning) {
  auto vm = make_migrating_cpu_vm("v1");  // started, matrixmult on 4 vCPUs
  EXPECT_DOUBLE_EQ(vm->cpu_demand(0.0), 4.0);
  vm->suspend();
  EXPECT_DOUBLE_EQ(vm->cpu_demand(0.0), 0.0);
  EXPECT_DOUBLE_EQ(vm->dirty_page_rate(0.0), 0.0);
}

TEST(Vm, DemandClampedToVcpus) {
  Vm vm("v1", migrating_mem_spec());  // 1 vCPU
  workloads::MatrixMultParams p;
  p.threads = 8;  // demands more than the VM has
  vm.set_workload(std::make_shared<workloads::MatrixMultWorkload>(p));
  vm.start();
  EXPECT_DOUBLE_EQ(vm.cpu_demand(0.0), 1.0);
}

TEST(Vm, RamPagesMatchesSpec) {
  Vm vm("v1", migrating_cpu_spec());  // 4 GB
  EXPECT_EQ(vm.ram_pages(), (4ULL << 30) / 4096);
}

TEST(Vm, WorkingSetClampedToRam) {
  Vm vm("v1", migrating_mem_spec());
  workloads::PageDirtierParams p;
  p.allocated_pages = 10ULL << 20;  // workload claims more than the VM has
  p.memory_fraction = 1.0;
  vm.set_workload(std::make_shared<workloads::PageDirtierWorkload>(p));
  EXPECT_EQ(vm.working_set_pages(), vm.ram_pages());
}

TEST(Hypervisor, VmmDemandGrowsWithGuests) {
  const Hypervisor h;
  EXPECT_GT(h.vmm_demand(5), h.vmm_demand(0));
  EXPECT_DOUBLE_EQ(h.vmm_demand(0), h.params().dom0_base_vcpus);
}

// Host::cpu_granted_to multiplexes guests with proportional shares;
// without VMM overhead the grants are the demands scaled to capacity.
TEST(Hypervisor, ArbitrationProportionalUnderContention) {
  Host host(host32(), HypervisorParams{0.0, 0.0});
  for (int i = 0; i < 10; ++i) host.add_vm(make_load_cpu_vm("l" + std::to_string(i)));
  // 40 vCPUs demanded on 32: each guest gets 4 * 32 / 40.
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(host.cpu_granted_to("l" + std::to_string(i), 0.0), 3.2);
  }
  EXPECT_DOUBLE_EQ(host.cpu_used(0.0), 32.0);
}

TEST(Hypervisor, ArbitrationExactWhenFits) {
  Host host(host32(), HypervisorParams{0.0, 0.0});
  host.add_vm(make_load_cpu_vm("l0"));
  host.add_vm(make_load_cpu_vm("l1"));
  EXPECT_DOUBLE_EQ(host.cpu_granted_to("l0", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(host.cpu_granted_to("l1", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(host.cpu_used(0.0), 8.0);
}

TEST(Host, CpuUsedFollowsEq2) {
  Host host(host32());
  host.add_vm(make_load_cpu_vm("l1"));
  host.add_vm(make_load_cpu_vm("l2"));
  // CPUVMM(2 VMs) + 2*4 vCPUs, no migration load.
  const double expected = host.hypervisor().vmm_demand(2) + 8.0;
  EXPECT_DOUBLE_EQ(host.cpu_used(0.0), expected);
  host.set_migration_cpu_demand(1.5);
  EXPECT_DOUBLE_EQ(host.cpu_used(0.0), expected + 1.5);
}

TEST(Host, SaturatesAtCapacity) {
  Host host(host32());
  for (int i = 0; i < 9; ++i) host.add_vm(make_load_cpu_vm("l" + std::to_string(i)));
  // 36 vCPUs demanded on a 32-vCPU host.
  EXPECT_DOUBLE_EQ(host.cpu_used(0.0), 32.0);
  EXPECT_DOUBLE_EQ(host.headroom_excluding_migration(0.0), 0.0);
}

TEST(Host, MultiplexedGrantBelowDemand) {
  Host host(host32());
  for (int i = 0; i < 9; ++i) host.add_vm(make_load_cpu_vm("l" + std::to_string(i)));
  const double granted = host.cpu_granted_to("l0", 0.0);
  EXPECT_LT(granted, 4.0);
  EXPECT_GT(granted, 3.0);
}

TEST(Host, GrantEqualsDemandWhenUncontended) {
  Host host(host32());
  host.add_vm(make_load_cpu_vm("l0"));
  EXPECT_DOUBLE_EQ(host.cpu_granted_to("l0", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(host.cpu_granted_to("missing", 0.0), 0.0);
}

TEST(Host, RamAccountingAndFit) {
  Host host(host32());
  EXPECT_TRUE(host.can_fit(migrating_cpu_spec()));
  for (int i = 0; i < 7; ++i) host.add_vm(std::make_shared<Vm>("v" + std::to_string(i),
                                                               migrating_cpu_spec()));
  EXPECT_DOUBLE_EQ(host.ram_committed(), util::gib(28));
  EXPECT_TRUE(host.can_fit(migrating_cpu_spec()));   // 32 GB exactly
  host.add_vm(std::make_shared<Vm>("v7", migrating_cpu_spec()));
  EXPECT_FALSE(host.can_fit(migrating_cpu_spec()));  // would exceed
  EXPECT_THROW(host.add_vm(std::make_shared<Vm>("v8", migrating_cpu_spec())),
               util::ContractError);
}

TEST(Host, AddRemoveVm) {
  Host host(host32());
  auto vm = make_load_cpu_vm("l0");
  host.add_vm(vm);
  EXPECT_THROW(host.add_vm(vm), util::ContractError);  // duplicate id
  EXPECT_EQ(host.vm_count(), 1u);
  const VmPtr removed = host.remove_vm("l0");
  EXPECT_EQ(removed, vm);
  EXPECT_EQ(host.vm_count(), 0u);
  EXPECT_THROW(host.remove_vm("l0"), util::ContractError);
}

TEST(Instances, MatchTableIIb) {
  EXPECT_EQ(load_cpu_spec().vcpus, 4);
  EXPECT_DOUBLE_EQ(load_cpu_spec().ram_bytes, util::mib(512));
  EXPECT_EQ(migrating_cpu_spec().vcpus, 4);
  EXPECT_DOUBLE_EQ(migrating_cpu_spec().ram_bytes, util::gib(4));
  EXPECT_EQ(migrating_mem_spec().vcpus, 1);
  EXPECT_DOUBLE_EQ(migrating_mem_spec().ram_bytes, util::gib(4));
}

TEST(Instances, MemVmWorkingSetFollowsFraction) {
  auto vm5 = make_migrating_mem_vm("a", 0.05);
  auto vm95 = make_migrating_mem_vm("b", 0.95);
  EXPECT_NEAR(static_cast<double>(vm5->working_set_pages()),
              0.05 * static_cast<double>(vm5->ram_pages()), 2.0);
  EXPECT_NEAR(static_cast<double>(vm95->working_set_pages()),
              0.95 * static_cast<double>(vm95->ram_pages()), 2.0);
}

TEST(DataCenter, HostRegistryAndVmLookup) {
  DataCenter dc;
  Host& a = dc.add_host(host32("m01"));
  dc.add_host(host32("m02"));
  EXPECT_THROW(dc.add_host(host32("m01")), util::ContractError);
  EXPECT_EQ(dc.host_count(), 2u);
  EXPECT_EQ(dc.host("m01"), &a);
  EXPECT_EQ(dc.host("nope"), nullptr);

  const VmPtr v1 = make_load_cpu_vm("v1");
  a.add_vm(v1);
  EXPECT_EQ(dc.host("m01")->vm("v1"), v1);
  EXPECT_EQ(dc.host("m02")->vm("v1"), nullptr);
  const std::vector<const Host*> hosts = std::as_const(dc).hosts();
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0], &a);  // name order
  EXPECT_EQ(hosts[0]->vm_count(), 1u);
  EXPECT_EQ(hosts[1]->vm_count(), 0u);
}

}  // namespace
}  // namespace wavm3::cloud
