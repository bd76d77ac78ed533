// Unit tests for the workload models plus the real runnable kernels.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"
#include "workloads/load_profile.hpp"
#include "workloads/matrixmult.hpp"
#include "workloads/pagedirtier.hpp"
#include "workloads/traced_workload.hpp"
#include "workloads/workload.hpp"

namespace wavm3::workloads {
namespace {

TEST(IdleWorkload, AllZero) {
  IdleWorkload w;
  EXPECT_DOUBLE_EQ(w.cpu_demand(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.dirty_page_rate(0.0), 0.0);
  EXPECT_EQ(w.working_set_pages(), 0u);
  EXPECT_EQ(w.workload_class(), WorkloadClass::kIdle);
}

TEST(MatrixMult, DemandsAllThreads) {
  MatrixMultParams p;
  p.threads = 4;
  const MatrixMultWorkload w(p);
  EXPECT_DOUBLE_EQ(w.cpu_demand(0.0), 4.0);
  EXPECT_EQ(w.workload_class(), WorkloadClass::kCpuIntensive);
  EXPECT_LT(w.dirty_page_rate(0.0), 1000.0);  // CPU-bound: tiny dirtying
}

TEST(MatrixMult, EfficiencyScalesDemand) {
  MatrixMultParams p;
  p.threads = 8;
  p.efficiency = 0.75;
  const MatrixMultWorkload w(p);
  EXPECT_DOUBLE_EQ(w.cpu_demand(0.0), 6.0);
}

TEST(MatrixMult, RejectsBadParams) {
  MatrixMultParams p;
  p.threads = 0;
  EXPECT_THROW(MatrixMultWorkload{p}, util::ContractError);
  p.threads = 2;
  p.efficiency = 1.5;
  EXPECT_THROW(MatrixMultWorkload{p}, util::ContractError);
}

TEST(MatrixMult, RealKernelProducesStableChecksum) {
  const double c1 = run_real_matrixmult(64, 2);
  const double c2 = run_real_matrixmult(64, 4);
  // Thread count must not change the numeric result.
  EXPECT_NEAR(c1, c2, 1e-9 * std::abs(c1));
  EXPECT_NE(c1, 0.0);
}

TEST(PageDirtier, WorkingSetTracksMemoryFraction) {
  PageDirtierParams p;
  p.memory_fraction = 0.5;
  p.allocated_pages = 1000;
  const PageDirtierWorkload w(p);
  EXPECT_EQ(w.working_set_pages(), 500u);
  EXPECT_DOUBLE_EQ(w.memory_used_fraction(), 0.5);
  EXPECT_EQ(w.workload_class(), WorkloadClass::kMemoryIntensive);
}

TEST(PageDirtier, SingleCoreDemand) {
  const PageDirtierWorkload w;
  EXPECT_DOUBLE_EQ(w.cpu_demand(0.0), 1.0);
  EXPECT_GT(w.dirty_page_rate(0.0), 1e5);  // memory-intensive
}

TEST(PageDirtier, RejectsBadParams) {
  PageDirtierParams p;
  p.memory_fraction = 0.0;
  EXPECT_THROW(PageDirtierWorkload{p}, util::ContractError);
  p.memory_fraction = 0.5;
  p.allocated_pages = 0;
  EXPECT_THROW(PageDirtierWorkload{p}, util::ContractError);
}

TEST(PageDirtier, RealDirtierTouchesAllRequestedWrites) {
  const std::uint64_t writes = run_real_pagedirtier(128, 3);
  EXPECT_EQ(writes, 128u * 3u);
}

TEST(LoadProfile, ConstantHoldsForever) {
  const LoadProfile p = LoadProfile::constant(0.4);
  EXPECT_DOUBLE_EQ(p.fraction_at(0.0), 0.4);
  EXPECT_DOUBLE_EQ(p.fraction_at(1e6), 0.4);
  EXPECT_FALSE(p.cyclic());
}

TEST(LoadProfile, StepsAndCyclicWrap) {
  const LoadProfile p = LoadProfile::steps({{0.0, 0.1}, {10.0, 0.8}}, 20.0);
  EXPECT_DOUBLE_EQ(p.fraction_at(5.0), 0.1);
  EXPECT_DOUBLE_EQ(p.fraction_at(15.0), 0.8);
  EXPECT_DOUBLE_EQ(p.fraction_at(25.0), 0.1);  // wrapped
  EXPECT_DOUBLE_EQ(p.fraction_at(39.9), 0.8);
  EXPECT_TRUE(p.cyclic());
}

TEST(LoadProfile, NonCyclicHoldsLastValue) {
  const LoadProfile p = LoadProfile::steps({{0.0, 0.2}, {10.0, 0.9}});
  EXPECT_DOUBLE_EQ(p.fraction_at(1e9), 0.9);
}

TEST(LoadProfile, DiurnalOscillatesBetweenBounds) {
  const LoadProfile p = LoadProfile::diurnal(0.1, 0.9, 86400.0);
  double lo = 1.0;
  double hi = 0.0;
  for (double t = 0.0; t < 86400.0; t += 600.0) {
    const double f = p.fraction_at(t);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    EXPECT_GE(f, 0.1 - 1e-9);
    EXPECT_LE(f, 0.9 + 1e-9);
  }
  EXPECT_LT(lo, 0.15);
  EXPECT_GT(hi, 0.85);
  // One full period later the pattern repeats.
  EXPECT_DOUBLE_EQ(p.fraction_at(3600.0), p.fraction_at(3600.0 + 86400.0));
}

TEST(LoadProfile, Validation) {
  EXPECT_THROW(LoadProfile::constant(1.5), util::ContractError);
  EXPECT_THROW(LoadProfile::steps({{1.0, 0.5}}), util::ContractError);   // must start at 0
  EXPECT_THROW(LoadProfile::steps({{0.0, 0.5}, {0.0, 0.6}}), util::ContractError);
  EXPECT_THROW(LoadProfile::steps({{0.0, 0.5}, {10.0, 0.6}}, 5.0), util::ContractError);
}

TEST(TracedWorkloadTest, FollowsProfile) {
  TracedWorkloadParams params;
  params.profile = LoadProfile::steps({{0.0, 0.25}, {100.0, 1.0}}, 200.0);
  params.vcpus = 4;
  params.dirty_pages_per_s_full = 1000.0;
  const TracedWorkload w(params);
  EXPECT_DOUBLE_EQ(w.cpu_demand(50.0), 1.0);
  EXPECT_DOUBLE_EQ(w.cpu_demand(150.0), 4.0);
  EXPECT_DOUBLE_EQ(w.dirty_page_rate(50.0), 250.0);
  EXPECT_DOUBLE_EQ(w.dirty_page_rate(150.0), 1000.0);
}

}  // namespace
}  // namespace wavm3::workloads
