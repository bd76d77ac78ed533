// Steady-state allocation pin for the serving hot path: once the
// per-thread batch workspace has grown to the request shape, the
// span-based predict_batch_results() core (warm or unseen scenarios)
// and the predict() cache-hit path must perform ZERO heap allocations.
// The planner's beam search is pinned the same way: its expansions
// copy into reused states, so a wave allocates a bounded few times per
// donor VM, not once per expansion.
// Enforced with a counting global operator new in its own test binary
// (tests/CMakeLists.txt) so the counter cannot interfere with the
// other suites.
//
// Under ASan/TSan the sanitizer runtime intercepts the allocator and
// this counter never fires — the suite skips itself there (the CI
// sanitizer jobs run the functional suites instead).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "plan/fleet.hpp"
#include "plan/planner.hpp"
#include "plan/strategy.hpp"
#include "serve/service.hpp"
#include "util/units.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace wavm3::serve {
namespace {

using migration::MigrationType;

bool sanitizers_active() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Same synthetic fitted model as serve_test.cpp's make_model().
core::Wavm3Model make_model() {
  core::Wavm3Model m;
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const double t = type == MigrationType::kLive ? 1.0 : 0.7;
    core::Wavm3Coefficients table;
    table.source.initiation = {2.1 * t, 1.3, 0.0, 0.0, 210.0};
    table.source.transfer = {2.4 * t, 1.1e-7, 55.0, 1.9, 205.0};
    table.source.activation = {2.2 * t, 1.2, 0.0, 0.0, 208.0};
    table.target.initiation = {1.9 * t, 0.8, 0.0, 0.0, 200.0};
    table.target.transfer = {2.0 * t, 0.9e-7, 12.0, 0.7, 198.0};
    table.target.activation = {2.1 * t, 1.0, 0.0, 0.0, 202.0};
    m.set_coefficients(type, table);
  }
  return m;
}

core::MigrationScenario make_scenario(int i) {
  core::MigrationScenario sc;
  sc.type = i % 3 == 0 ? MigrationType::kNonLive : MigrationType::kLive;
  sc.vm_mem_bytes = util::gib(1.0 + i % 8);
  sc.vm_cpu_vcpus = 1.0 + i % 4;
  const double mem_pages = sc.vm_mem_bytes / util::kPageSize;
  sc.vm_working_set_pages = mem_pages * 0.25;
  sc.vm_dirty_pages_per_s = sc.vm_working_set_pages * (0.05 + 0.09 * (i % 10));
  sc.source_cpu_load = 2.0 + i % 20;
  sc.target_cpu_load = 1.0 + i % 15;
  return sc;
}

TEST(ServeAllocation, WarmBatchPathAllocatesNothing) {
  if (sanitizers_active()) GTEST_SKIP() << "allocator intercepted by a sanitizer";
  ServiceConfig config;
  config.threads = 2;
  config.cache_capacity = 4096;
  PredictionService service(make_model(), config);

  constexpr int kBatch = 64;
  std::vector<core::MigrationScenario> scenarios;
  scenarios.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) scenarios.push_back(make_scenario(i));
  std::vector<PredictionService::BatchItem> results(scenarios.size());
  const std::span<const core::MigrationScenario> in(scenarios);
  const std::span<PredictionService::BatchItem> out(results);

  // Warmup: the first call grows the per-thread workspace (a
  // closed-form batch prices inline and leaves the cache alone); the
  // second repeats the same batch.
  service.predict_batch_results(in, out);
  service.predict_batch_results(in, out);
  for (const auto& item : results) ASSERT_TRUE(item.ok());

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    service.predict_batch_results(in, out);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state predict_batch_results must not allocate";
  for (const auto& item : results) EXPECT_TRUE(item.ok());
}

TEST(ServeAllocation, ClosedFormMissBatchAllocatesNothing) {
  if (sanitizers_active()) GTEST_SKIP() << "allocator intercepted by a sanitizer";
  // Default config: closed form with its 4096-entry cache, which a
  // closed-form batch neither reads nor fills.
  PredictionService service(make_model(), ServiceConfig{});

  constexpr int kBatch = 64;
  constexpr int kRounds = 10;
  // make_scenario(i) repeats every 120 indices, so each VM is also
  // grown by i pages: no scenario repeats, within a batch or between
  // rounds.
  std::vector<core::MigrationScenario> scenarios;
  scenarios.reserve(kBatch * (kRounds + 1));
  for (int i = 0; i < kBatch * (kRounds + 1); ++i) {
    core::MigrationScenario sc = make_scenario(i);
    sc.vm_mem_bytes += static_cast<double>(i) * util::kPageSize;
    scenarios.push_back(sc);
  }
  std::vector<PredictionService::BatchItem> results(kBatch);
  const std::span<PredictionService::BatchItem> out(results);
  const auto round_of = [&](int round) {
    return std::span<const core::MigrationScenario>(scenarios).subspan(
        static_cast<std::size_t>(round) * kBatch, kBatch);
  };

  // Warmup: grows the per-thread workspace to the batch shape.
  service.predict_batch_results(round_of(0), out);
  for (const auto& item : results) ASSERT_TRUE(item.ok());

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 1; round <= kRounds; ++round) {
    service.predict_batch_results(round_of(round), out);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "a closed-form batch of unseen scenarios must not allocate";
  for (const auto& item : results) EXPECT_TRUE(item.ok());
  EXPECT_EQ(service.stats().cache.insertions, 0u);
}

TEST(ServeAllocation, SmallBatchAfterAHugeOneFansOutAndAllocatesNothing) {
  if (sanitizers_active()) GTEST_SKIP() << "allocator intercepted by a sanitizer";
  // A 65,536-scenario batch grows this thread's dedup table to 131,072
  // slots. A later 64-batch probes only the small table it needs: its
  // duplicates must still find their first occurrence, and it must
  // not allocate.
  const core::Wavm3Model model = make_model();
  PredictionService service(model, ServiceConfig{.threads = 1});
  constexpr int kHuge = 65536;
  std::vector<core::MigrationScenario> huge;
  huge.reserve(kHuge);
  for (int i = 0; i < kHuge; ++i) {
    core::MigrationScenario sc = make_scenario(i);
    sc.vm_mem_bytes += static_cast<double>(i) * util::kPageSize;
    huge.push_back(sc);
  }
  std::vector<PredictionService::BatchItem> huge_results(huge.size());
  service.predict_batch_results(huge, huge_results);
  for (const auto& item : huge_results) ASSERT_TRUE(item.ok());

  // 64 slots over 16 distinct scenarios, each repeated four times in
  // scattered order.
  constexpr int kBatch = 64;
  std::vector<core::MigrationScenario> batch;
  batch.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) batch.push_back(make_scenario((i * 5) % 16));
  std::vector<PredictionService::BatchItem> results(kBatch);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  service.predict_batch_results(batch, results);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "a small batch after a huge one must not allocate";

  const core::MigrationPlanner planner(model);
  for (int i = 0; i < kBatch; ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(results[i].ok());
    int first = 0;
    while ((first * 5) % 16 != (i * 5) % 16) ++first;
    const core::MigrationForecast& a = *results[i].forecast;
    const core::MigrationForecast& b = *results[first].forecast;
    EXPECT_EQ(a.times.te, b.times.te);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.downtime, b.downtime);
    EXPECT_EQ(a.source_energy, b.source_energy);
    EXPECT_EQ(a.target_energy, b.target_energy);
    const core::MigrationForecast direct = planner.forecast(batch[i]);
    EXPECT_EQ(a.total_energy(), direct.total_energy());
    EXPECT_EQ(a.downtime, direct.downtime);
  }
  EXPECT_EQ(service.stats().cache.insertions, 0u);
}

TEST(ServeAllocation, WarmPredictHitAllocatesNothing) {
  if (sanitizers_active()) GTEST_SKIP() << "allocator intercepted by a sanitizer";
  ServiceConfig config;
  config.threads = 1;
  config.cache_capacity = 64;
  PredictionService service(make_model(), config);

  const core::MigrationScenario sc = make_scenario(1);
  core::MigrationForecast warm = service.predict(sc);  // miss: compute + fill

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  core::MigrationForecast hit = service.predict(sc);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "a cache-hit predict() must not allocate";
  EXPECT_EQ(hit.source_energy, warm.source_energy);
  EXPECT_EQ(hit.target_energy, warm.target_energy);
}

/// Passes the wave's candidates through to `inner` and keeps a copy.
class RecordingStrategy final : public plan::PlacementStrategy {
 public:
  explicit RecordingStrategy(const plan::PlacementStrategy& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  std::vector<int> choose(const plan::Fleet& fleet, const plan::CandidateSet& candidates,
                          const plan::PlannerConfig& config) const override {
    seen = candidates;
    return inner_.choose(fleet, candidates, config);
  }
  mutable plan::CandidateSet seen;

 private:
  const plan::PlacementStrategy& inner_;
};

TEST(PlanAllocation, BeamSearchAllocatesABoundedFewTimesPerDonorVm) {
  if (sanitizers_active()) GTEST_SKIP() << "allocator intercepted by a sanitizer";
  const core::Wavm3Model model = make_model();
  const plan::PlannerConfig config;
  plan::Fleet fleet = plan::Fleet::synthetic(256, 2560, 1);
  const plan::BeamSearchStrategy beam;
  const RecordingStrategy recording(beam);
  plan::MigrationPlanner planner(model, config);
  planner.plan_wave(fleet, recording, plan::SyntheticFleetOptions{}.history_s,
                    /*commit=*/false);
  const plan::CandidateSet& candidates = recording.seen;
  std::size_t donor_vms = 0;
  for (const plan::DonorCandidates& donor : candidates.donors) donor_vms += donor.vms.size();
  ASSERT_GT(donor_vms, 100u);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::vector<int> chosen = beam.choose(fleet, candidates, config);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_FALSE(chosen.empty());
  // Measured: ~0.45 per donor VM, nearly all of it the state pools
  // growing to the widest expansion once. Copying a hash-map state per
  // expansion cost ~62.
  EXPECT_LE(allocations, donor_vms)
      << allocations << " allocations for " << donor_vms << " donor VMs";
}

}  // namespace
}  // namespace wavm3::serve
