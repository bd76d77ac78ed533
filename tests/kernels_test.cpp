// Golden suite for src/kernels/: the fixed-reduction-order contract
// (results BIT-identical to independent reference loops, not merely
// close), the streaming PanelAccumulator, and the grow-only Scratch
// arena.
//
// This file compiles with -ffp-contract=off (tests/CMakeLists.txt) so
// the independent reference implementations below cannot be fused into
// FMA and silently diverge from the library's non-fused contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "kernels/kernels.hpp"
#include "util/error.hpp"

namespace wavm3::kernels {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

#define EXPECT_BITEQ(a, b) \
  EXPECT_EQ(bits(a), bits(b)) << "values: " << (a) << " vs " << (b)

// Lengths around the blocked-4 partition (and its multiples); 0 and 1
// are the degenerate reductions.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 63, 64, 65, 127, 1023};

/// Uniform values spanning magnitudes, both signs.
std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mag(-6.0, 6.0);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> out(n);
  for (double& v : out) v = unit(rng) * std::pow(10.0, mag(rng));
  return out;
}

/// Subnormals: the gradual-underflow range a flush-to-zero mode would
/// silently change.
std::vector<double> denormal_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> out(n);
  for (double& v : out) v = unit(rng) * 1e-310;
  return out;
}

/// Alternating huge cancelling terms plus a small signal: any
/// reassociation shows up as a different rounding of the catastrophic
/// cancellation.
std::vector<double> cancel_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (i % 2 == 0 ? 1e16 : -1e16) + unit(rng);
  }
  return out;
}

/// Non-decreasing timestamps with occasional duplicates (zero-width
/// panels), starting at a non-zero epoch.
std::vector<double> time_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> step(0.0, 1.0);
  std::vector<double> out(n);
  double t = 17.25;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = t;
    if (step(rng) > 0.15) t += step(rng);  // ~15% duplicates
  }
  return out;
}

using Maker = std::vector<double> (*)(std::size_t, std::uint64_t);
const Maker kValueMakers[] = {random_vec, denormal_vec, cancel_vec};

// ---- the contract itself, re-implemented independently ----

double ref_dot(std::span<const double> a, std::span<const double> b) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) acc[i % 4] += a[i] * b[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double ref_trapezoid(std::span<const double> t, std::span<const double> y) {
  if (t.size() < 2) return 0.0;
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t p = 0; p + 1 < t.size(); ++p) {
    acc[p % 4] += 0.5 * (y[p] + y[p + 1]) * (t[p + 1] - t[p]);
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

// ---- contract pinning: kernels == independent references ----

TEST(KernelContract, DotIsBlocked4) {
  for (const std::size_t n : kSizes) {
    for (const Maker make : kValueMakers) {
      const std::vector<double> a = make(n, 11 + n);
      const std::vector<double> b = make(n, 23 + n);
      EXPECT_BITEQ(dot(a, b), ref_dot(a, b)) << "n=" << n;
    }
  }
}

TEST(KernelContract, TrapezoidIsBlocked4PanelSum) {
  for (const std::size_t n : kSizes) {
    const std::vector<double> t = time_vec(n, 31 + n);
    for (const Maker make : kValueMakers) {
      const std::vector<double> y = make(n, 47 + n);
      EXPECT_BITEQ(trapezoid(t, y), ref_trapezoid(t, y)) << "n=" << n;
    }
  }
}

TEST(KernelContract, ApplyBiasAddedLastAndSkippedWhenZero) {
  const std::vector<double> col = random_vec(33, 5);
  const std::vector<double> out0 = [&] {
    std::vector<double> out(col.size());
    const std::span<const double> cols[] = {col};
    const double coeffs[] = {3.5};
    apply_design_matrix(cols, coeffs, 0.0, out);
    return out;
  }();
  std::vector<double> outb(col.size());
  const std::span<const double> cols[] = {col};
  const double coeffs[] = {3.5};
  apply_design_matrix(cols, coeffs, 7.25, outb);
  for (std::size_t i = 0; i < col.size(); ++i) {
    EXPECT_BITEQ(out0[i], 3.5 * col[i]);
    EXPECT_BITEQ(outb[i], 3.5 * col[i] + 7.25);
  }
}

TEST(KernelContract, AxpyRoundsProductThenAdds) {
  for (const std::size_t n : kSizes) {
    for (const Maker make : kValueMakers) {
      const std::vector<double> x = make(n, 307 + n);
      std::vector<double> y = make(n, 401 + n);
      const std::vector<double> y0 = y;
      axpy(1.75, x, y);
      for (std::size_t i = 0; i < n; ++i) {
        const double product = 1.75 * x[i];
        EXPECT_BITEQ(y[i], y0[i] + product) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelContract, ApplyAccumulatesColumnsInAscendingOrder) {
  // The serving shape: 11 columns (WAVM3's full design) at every size.
  constexpr std::size_t kCols = 11;
  for (const std::size_t n : kSizes) {
    for (const Maker make : kValueMakers) {
      std::vector<std::vector<double>> storage;
      storage.reserve(kCols);
      std::vector<std::span<const double>> cols;
      for (std::size_t j = 0; j < kCols; ++j) {
        storage.push_back(make(n, 1000 + 17 * j + n));
        cols.emplace_back(storage.back());
      }
      const std::vector<double> coeffs = random_vec(kCols, 77 + n);
      for (const double bias : {0.0, 3.25}) {
        std::vector<double> out(n);
        apply_design_matrix(cols, coeffs, bias, out);
        for (std::size_t i = 0; i < n; ++i) {
          double acc = 0.0;
          for (std::size_t j = 0; j < kCols; ++j) acc += coeffs[j] * storage[j][i];
          EXPECT_BITEQ(out[i], bias == 0.0 ? acc : acc + bias) << "n=" << n << " i=" << i;
        }
      }
    }
  }
}

// ---- streaming twin ----

TEST(PanelAccumulator, ReproducesTrapezoidBitExact) {
  for (const std::size_t n : kSizes) {
    const std::vector<double> t = time_vec(n, 701 + n);
    for (const Maker make : kValueMakers) {
      const std::vector<double> y = make(n, 809 + n);
      PanelAccumulator acc;
      for (std::size_t p = 0; p + 1 < n; ++p) {
        acc.add(trapezoid_panel(t[p], y[p], t[p + 1], y[p + 1]));
      }
      EXPECT_BITEQ(acc.sum(), trapezoid(t, y)) << "n=" << n;
      EXPECT_EQ(acc.panels(), n < 2 ? 0 : n - 1);
    }
  }
}

TEST(PanelAccumulator, ResetStartsOver) {
  PanelAccumulator acc;
  acc.add(1.0);
  acc.add(2.0);
  acc.reset();
  EXPECT_EQ(acc.panels(), 0u);
  EXPECT_BITEQ(acc.sum(), 0.0);
}

// ---- input screening (same messages as the stats wrappers) ----

TEST(KernelScreening, RejectsMalformedInput) {
  const std::vector<double> t = {0.0, 1.0, 0.5};  // backwards
  const std::vector<double> y = {1.0, 1.0, 1.0};
  EXPECT_THROW(trapezoid(t, y), util::ContractError);
  const std::vector<double> short_y = {1.0};
  EXPECT_THROW(trapezoid(std::span<const double>(t).first(2), short_y),
               util::ContractError);
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_THROW(dot(a, b), util::ContractError);
  std::vector<double> out(2);
  EXPECT_THROW(axpy(1.0, b, out), util::ContractError);
}

TEST(KernelScreening, ApplyRejectsOverwideDesign) {
  const std::vector<double> col(4, 1.0);
  std::vector<std::span<const double>> cols(kMaxApplyColumns + 1,
                                            std::span<const double>(col));
  const std::vector<double> coeffs(cols.size(), 1.0);
  std::vector<double> out(col.size());
  EXPECT_THROW(apply_design_matrix(cols, coeffs, 0.0, out), util::ContractError);
}

// ---- scratch arena ----

TEST(Scratch, GrowOnlyReuse) {
  Scratch scratch;
  scratch.require(64);
  const std::size_t cap = scratch.capacity();
  EXPECT_GE(cap, 64u);
  const std::span<double> a = scratch.take(40);
  const std::span<double> b = scratch.take(24);
  EXPECT_EQ(a.size(), 40u);
  EXPECT_EQ(b.size(), 24u);
  EXPECT_EQ(scratch.used(), 64u);
  scratch.release_all();
  EXPECT_EQ(scratch.used(), 0u);
  EXPECT_EQ(scratch.capacity(), cap);  // release never shrinks
  scratch.require(32);                 // smaller requirement: no-op
  EXPECT_EQ(scratch.capacity(), cap);
}

TEST(Scratch, TakeBeyondCapacityRefuses) {
  Scratch scratch;
  scratch.require(8);
  (void)scratch.take(8);
  EXPECT_THROW(scratch.take(1), util::ContractError);
}

TEST(Scratch, TlsScratchIsStable) {
  Scratch& first = tls_scratch();
  Scratch& second = tls_scratch();
  EXPECT_EQ(&first, &second);
}

}  // namespace
}  // namespace wavm3::kernels
