// Unit tests for the power substrate: ground-truth model shape, trace
// integration, meter protocol, stabilisation detection.
#include <gtest/gtest.h>

#include <cmath>

#include "power/host_power_model.hpp"
#include "power/power_meter.hpp"
#include "power/power_trace.hpp"
#include "power/stabilization.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavm3::power {
namespace {

HostPowerParams m_class() {
  HostPowerParams p;
  p.idle_watts = 430.0;
  p.vcpus = 32.0;
  p.watts_per_vcpu = 11.0;
  p.cpu_convexity_watts = 60.0;
  return p;
}

TEST(HostPowerModel, IdleEqualsBaseline) {
  const HostPowerModel m(m_class());
  EXPECT_DOUBLE_EQ(m.true_power(HostActivity{}), 430.0);
  EXPECT_DOUBLE_EQ(m.idle_power(), 430.0);
}

TEST(HostPowerModel, MonotoneAndConvexInCpu) {
  const HostPowerModel m(m_class());
  double prev = 0.0;
  double prev_delta = 0.0;
  for (double u = 0.0; u <= 32.0; u += 4.0) {
    HostActivity a;
    a.cpu_used_vcpus = u;
    const double p = m.true_power(a);
    if (u > 0.0) {
      EXPECT_GT(p, prev);
      const double delta = p - prev;
      if (prev_delta > 0.0) {
        EXPECT_GE(delta, prev_delta - 1e-9);  // convex
      }
      prev_delta = delta;
    }
    prev = p;
  }
}

TEST(HostPowerModel, SaturatesAboveCapacity) {
  const HostPowerModel m(m_class());
  HostActivity a;
  a.cpu_used_vcpus = 32.0;
  const double at_cap = m.true_power(a);
  a.cpu_used_vcpus = 40.0;
  EXPECT_DOUBLE_EQ(m.true_power(a), at_cap);
}

TEST(HostPowerModel, ActivityTermsAdd) {
  const HostPowerModel m(m_class());
  HostActivity a;
  a.cpu_used_vcpus = 8.0;
  const double base = m.true_power(a);

  a.nic_bytes_per_s = 100e6;
  a.transfer_active = true;
  const double with_nic = m.true_power(a);
  EXPECT_NEAR(with_nic - base, 4.0 + 30.0 * 0.1, 1e-9);

  a.mem_dirty_bytes_per_s = 1e9;
  const double with_mem = m.true_power(a);
  EXPECT_NEAR(with_mem - with_nic, 9.0, 1e-9);

  a.tracking_dirty_ratio = 0.5;
  EXPECT_NEAR(m.true_power(a) - with_mem, 11.0, 1e-9);

  a.vm_lifecycle_active = true;
  EXPECT_NEAR(m.true_power(a) - with_mem, 11.0 + 12.0, 1e-9);
}

TEST(HostPowerModel, TrackingRatioClamped) {
  const HostPowerModel m(m_class());
  HostActivity a;
  a.tracking_dirty_ratio = 5.0;  // out of range
  EXPECT_DOUBLE_EQ(m.true_power(a), 430.0 + m.params().tracking_watts);
}

TEST(PowerTrace, EnergyOfConstantPower) {
  PowerTrace t;
  for (int i = 0; i <= 10; ++i) t.add(i * 0.5, 600.0);
  EXPECT_NEAR(t.total_energy(), 600.0 * 5.0, 1e-9);
  EXPECT_NEAR(t.energy_between(1.0, 3.0), 600.0 * 2.0, 1e-9);
  EXPECT_NEAR(t.mean_power_between(1.0, 3.0), 600.0, 1e-9);
}

TEST(PowerTrace, EnergyOfRampIsExactForTrapezoid) {
  PowerTrace t;
  for (int i = 0; i <= 10; ++i) t.add(static_cast<double>(i), 100.0 * i);
  // Integral of 100t over [0,10] = 5000.
  EXPECT_NEAR(t.total_energy(), 5000.0, 1e-9);
  // Sub-interval [2.5, 7.5]: integral = 100*(7.5^2-2.5^2)/2 = 2500.
  EXPECT_NEAR(t.energy_between(2.5, 7.5), 2500.0, 1e-9);
}

TEST(PowerTrace, PhaseAdditivity) {
  PowerTrace t;
  util::RngStream rng(4);
  for (int i = 0; i <= 200; ++i) t.add(i * 0.5, rng.uniform(400, 900));
  const double a = t.energy_between(0.0, 30.0);
  const double b = t.energy_between(30.0, 61.7);
  const double c = t.energy_between(61.7, 100.0);
  EXPECT_NEAR(a + b + c, t.energy_between(0.0, 100.0), 1e-6);
}

TEST(PowerTrace, InterpolationAndClamping) {
  PowerTrace t;
  t.add(0.0, 100.0);
  t.add(1.0, 200.0);
  EXPECT_DOUBLE_EQ(t.power_at(0.5), 150.0);
  EXPECT_DOUBLE_EQ(t.power_at(-1.0), 100.0);
  EXPECT_DOUBLE_EQ(t.power_at(5.0), 200.0);
}

TEST(PowerTrace, EmptyOverlapIsZero) {
  PowerTrace t;
  t.add(10.0, 500.0);
  t.add(11.0, 500.0);
  EXPECT_DOUBLE_EQ(t.energy_between(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(t.mean_power_between(0.0, 5.0), 0.0);
}

TEST(PowerTrace, RejectsDisorderedSamples) {
  PowerTrace t;
  t.add(1.0, 100.0);
  EXPECT_THROW(t.add(0.5, 100.0), util::ContractError);
  EXPECT_THROW(t.add(2.0, -5.0), util::ContractError);
}

TEST(PowerTrace, SliceAndTail) {
  PowerTrace t;
  for (int i = 0; i < 10; ++i) t.add(i, 100.0 + i);
  const PowerTrace s = t.slice(3.0, 6.0);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0].time, 3.0);
  const auto tail = t.tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_DOUBLE_EQ(tail[2].watts, 109.0);
}

TEST(PowerMeter, SamplesAtConfiguredCadence) {
  sim::Simulator sim;
  MeterSpec spec;
  PowerMeter meter("test", spec, [](double) { return 500.0; }, util::RngStream(1));
  meter.start(sim, 0.0);
  sim.run_until(10.0);
  meter.stop();
  sim.run_to_completion();
  EXPECT_EQ(meter.trace().size(), 21u);  // 0, 0.5, ..., 10.0
}

TEST(PowerMeter, NoiseWithinDeviceAccuracy) {
  sim::Simulator sim;
  MeterSpec spec;
  PowerMeter meter("test", spec, [](double) { return 600.0; }, util::RngStream(7));
  meter.start(sim, 0.0);
  sim.run_until(500.0);
  meter.stop();
  sim.run_to_completion();
  double max_err = 0.0;
  double sum = 0.0;
  for (const auto& s : meter.trace().samples()) {
    max_err = std::max(max_err, std::abs(s.watts - 600.0));
    sum += s.watts;
  }
  // 3-sigma == 0.3%; allow a small excursion margin over 1000 samples.
  EXPECT_LT(max_err, 600.0 * 0.003 * 1.6);
  EXPECT_NEAR(sum / static_cast<double>(meter.trace().size()), 600.0, 0.3);
}

TEST(PowerMeter, QuantisesToResolution) {
  sim::Simulator sim;
  MeterSpec spec;
  spec.accuracy_fraction = 0.0;
  PowerMeter meter("test", spec, [](double) { return 123.456; }, util::RngStream(1));
  meter.sample(0.0);
  EXPECT_NEAR(meter.trace()[0].watts, 123.5, 1e-9);
}

TEST(Stabilization, DetectsFlatTail) {
  PowerTrace t;
  for (int i = 0; i < 30; ++i) t.add(i * 0.5, 500.0 + (i < 8 ? 50.0 * (8 - i) : 0.0));
  EXPECT_TRUE(is_stabilized(t));
}

TEST(Stabilization, RejectsJumpInsideWindow) {
  PowerTrace t;
  for (int i = 0; i < 30; ++i) t.add(i * 0.5, i == 25 ? 520.0 : 500.0);
  EXPECT_FALSE(is_stabilized(t));
}

TEST(Stabilization, NeedsWindowSamples) {
  PowerTrace t;
  for (int i = 0; i < 19; ++i) t.add(i * 0.5, 500.0);
  EXPECT_FALSE(is_stabilized(t));
  t.add(9.5, 500.0);
  EXPECT_TRUE(is_stabilized(t));
}

TEST(Stabilization, IndexFindsFirstStablePoint) {
  PowerTrace t;
  // 10 noisy samples then flat.
  for (int i = 0; i < 10; ++i) t.add(i * 0.5, 500.0 + 30.0 * (i % 2));
  for (int i = 10; i < 40; ++i) t.add(i * 0.5, 500.0);
  const std::size_t idx = stabilization_index(t);
  EXPECT_EQ(idx, 29u);  // 20-sample streak starting at sample 10
}

TEST(Stabilization, NeverStableReturnsSize) {
  PowerTrace t;
  for (int i = 0; i < 40; ++i) t.add(i * 0.5, 500.0 + 30.0 * (i % 2));
  EXPECT_EQ(stabilization_index(t), t.size());
}

}  // namespace
}  // namespace wavm3::power
