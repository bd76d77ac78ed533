// Tests for src/serve/: the bounded MPMC queue, the thread pool, the
// sharded LRU cache, scenario cache keys (incl. quantization), the
// RCU-style coefficient store, and the prediction service — with the
// concurrency cases (many-thread hammer with result equivalence,
// hot-swap while querying, shutdown with a non-empty queue) written to
// run meaningfully under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/coeff_io.hpp"
#include "core/planner.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/coeff_store.hpp"
#include "serve/lru_cache.hpp"
#include "serve/mpmc_queue.hpp"
#include "serve/query_stream.hpp"
#include "serve/scenario_key.hpp"
#include "serve/service.hpp"
#include "serve/sim_backend.hpp"
#include "serve/thread_pool.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace wavm3::serve {
namespace {

using migration::MigrationType;

/// A fitted model from synthetic coefficient tables (no campaign
/// needed); `scale` perturbs every coefficient so two models give
/// different predictions.
core::Wavm3Model make_model(double scale = 1.0) {
  core::Wavm3Model m;
  for (const MigrationType type : {MigrationType::kNonLive, MigrationType::kLive}) {
    const double t = type == MigrationType::kLive ? 1.0 : 0.7;
    core::Wavm3Coefficients table;
    table.source.initiation = {2.1 * scale * t, 1.3 * scale, 0.0, 0.0, 210.0 * scale};
    table.source.transfer = {2.4 * scale * t, 1.1e-7 * scale, 55.0 * scale, 1.9 * scale,
                             205.0 * scale};
    table.source.activation = {2.2 * scale * t, 1.2 * scale, 0.0, 0.0, 208.0 * scale};
    table.target.initiation = {1.9 * scale * t, 0.8 * scale, 0.0, 0.0, 200.0 * scale};
    table.target.transfer = {2.0 * scale * t, 0.9e-7 * scale, 12.0 * scale, 0.7 * scale,
                             198.0 * scale};
    table.target.activation = {2.1 * scale * t, 1.0 * scale, 0.0, 0.0, 202.0 * scale};
    m.set_coefficients(type, table);
  }
  return m;
}

/// A deterministic scenario family indexed by `i`.
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

void expect_forecast_eq(const core::MigrationForecast& a, const core::MigrationForecast& b) {
  EXPECT_EQ(a.times.ms, b.times.ms);
  EXPECT_EQ(a.times.ts, b.times.ts);
  EXPECT_EQ(a.times.te, b.times.te);
  EXPECT_EQ(a.times.me, b.times.me);
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.precopy_rounds, b.precopy_rounds);
  EXPECT_EQ(a.downtime, b.downtime);
  EXPECT_EQ(a.degenerated_to_nonlive, b.degenerated_to_nonlive);
  EXPECT_EQ(a.source_energy, b.source_energy);
  EXPECT_EQ(a.target_energy, b.target_energy);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(a.source_phase_energy[p], b.source_phase_energy[p]);
    EXPECT_EQ(a.target_phase_energy[p], b.target_phase_energy[p]);
  }
}

/// Field-by-field bit equality, as a value (expect_forecast_eq reports
/// each mismatching field instead).
bool forecast_bits_equal(const core::MigrationForecast& a, const core::MigrationForecast& b) {
  bool same = a.times.ms == b.times.ms && a.times.ts == b.times.ts &&
              a.times.te == b.times.te && a.times.me == b.times.me &&
              a.bandwidth == b.bandwidth && a.total_bytes == b.total_bytes &&
              a.precopy_rounds == b.precopy_rounds && a.downtime == b.downtime &&
              a.degenerated_to_nonlive == b.degenerated_to_nonlive &&
              a.source_energy == b.source_energy && a.target_energy == b.target_energy;
  for (int p = 0; p < 3; ++p) {
    same = same && a.source_phase_energy[p] == b.source_phase_energy[p] &&
           a.target_phase_energy[p] == b.target_phase_energy[p];
  }
  return same;
}

/// The service-registry histogram `name` (empty snapshot when absent).
obs::HistogramSnapshot service_histogram(PredictionService& service, const std::string& name) {
  for (const obs::MetricSnapshot& m : service.obs_registry().snapshot().metrics) {
    if (m.name == name) return m.histogram;
  }
  return {};
}

// ---------------------------------------------------------------- queue

TEST(MpmcQueue, FifoAndCapacity) {
  BoundedMpmcQueue<int> q(3);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_TRUE(q.try_push(4));
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop().value(), 4);
}

TEST(MpmcQueue, CloseDrainsThenSignalsEnd) {
  BoundedMpmcQueue<int> q(8);
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  q.close();
  EXPECT_FALSE(q.push(9));  // producers rejected
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_EQ(q.pop().value(), 8);
  EXPECT_FALSE(q.pop().has_value());  // closed and drained
}

TEST(MpmcQueue, CloseAndDiscardDropsQueuedItems) {
  BoundedMpmcQueue<int> q(8);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close_and_discard();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, BackpressureBlocksProducerUntilConsumed) {
  BoundedMpmcQueue<int> q(2);
  ASSERT_TRUE(q.push(0));
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(2));  // must wait for a pop
    pushed.store(true);
  });
  EXPECT_EQ(q.pop().value(), 0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
}

// ----------------------------------------------------------------- pool

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(ThreadPoolConfig{4, 64});
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  pool.shutdown(DrainMode::kDrain);
  EXPECT_EQ(ran.load(), 200);
  EXPECT_FALSE(pool.submit([] {}));  // after shutdown
}

TEST(ThreadPool, DrainShutdownFinishesNonEmptyQueue) {
  ThreadPool pool(ThreadPoolConfig{1, 64});
  std::mutex m;
  std::condition_variable cv;
  bool gate_open = false;
  // Stall the single worker so the queue genuinely fills up.
  ASSERT_TRUE(pool.submit([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return gate_open; });
  }));
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  EXPECT_GT(pool.queue_depth(), 0u);
  std::thread closer([&] { pool.shutdown(DrainMode::kDrain); });
  {
    std::lock_guard<std::mutex> lock(m);
    gate_open = true;
  }
  cv.notify_all();
  closer.join();
  EXPECT_EQ(ran.load(), 20);  // drained, not dropped
}

TEST(ThreadPool, DiscardShutdownBreaksQueuedPromises) {
  ThreadPool pool(ThreadPoolConfig{1, 64});
  std::mutex m;
  std::condition_variable cv;
  bool gate_open = false;
  ASSERT_TRUE(pool.submit([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return gate_open; });
  }));
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 10; ++i) {
    std::promise<int> p;
    futures.push_back(p.get_future());
    ASSERT_TRUE(pool.submit([i, p = std::move(p)]() mutable { p.set_value(i); }));
  }
  EXPECT_GT(pool.queue_depth(), 0u);
  std::thread closer([&] { pool.shutdown(DrainMode::kDiscard); });
  // The worker is gated, so only the discard can empty the queue; wait
  // for it before letting the worker go, or it could drain jobs first.
  while (pool.queue_depth() > 0) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(m);
    gate_open = true;
  }
  cv.notify_all();
  closer.join();
  int broken = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const std::future_error& e) {
      EXPECT_EQ(e.code(), std::future_errc::broken_promise);
      ++broken;
    }
  }
  EXPECT_EQ(broken, 10);  // every queued (unrun) job surfaced as a broken promise
}

// ---------------------------------------------------------------- cache

TEST(LruCache, EvictsLeastRecentlyUsed) {
  ShardedLruCache<int, int> cache(3, 1);  // one shard => global LRU order
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  EXPECT_EQ(cache.get(1).value(), 10);  // refresh 1; LRU is now 2
  cache.put(4, 40);                     // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value(), 10);
  EXPECT_EQ(cache.get(3).value(), 30);
  EXPECT_EQ(cache.get(4).value(), 40);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.insertions, 4u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 4u);
}

TEST(LruCache, ShardedCapacityAndClear) {
  ShardedLruCache<int, int> cache(64, 8);
  for (int i = 0; i < 200; ++i) cache.put(i, i);
  EXPECT_LE(cache.size(), 64u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(199).has_value());
}

TEST(LruCache, TotalBudgetIsNeverExceededByShardRemainders) {
  // capacity=10, shards=8 used to ceil-divide into 8 shards of 2 = 16
  // slots, nearly doubling the configured memory budget. The remainder
  // must be distributed so shard capacities sum to exactly `capacity`.
  ShardedLruCache<int, int> cache(10, 8);
  for (int i = 0; i < 1000; ++i) cache.put(i, i);
  EXPECT_EQ(cache.size(), 10u);
  // An evenly divisible budget still splits evenly.
  ShardedLruCache<int, int> even(64, 8);
  for (int i = 0; i < 1000; ++i) even.put(i, i);
  EXPECT_EQ(even.size(), 64u);
  // Degenerate budget: fewer entries than shards collapses the shard
  // count, never allocates zero-capacity shards (hash skew may leave
  // some shards short, but the budget bound must hold).
  ShardedLruCache<int, int> tiny(3, 8);
  for (int i = 0; i < 100; ++i) tiny.put(i, i);
  EXPECT_LE(tiny.size(), 3u);
  EXPECT_EQ(tiny.shard_count(), 3u);
}

TEST(LruCache, CapacityBelowShardCountCollapsesShards) {
  // capacity < shards must collapse the shard count rather than hand
  // out zero-capacity shards (which would silently drop every insert
  // that hashes into them). Each surviving shard holds >= 1 entry.
  ShardedLruCache<int, int> cache(3, 8);
  EXPECT_EQ(cache.shard_count(), 3u);
  for (int i = 0; i < 64; ++i) cache.put(i, i * 7);
  EXPECT_LE(cache.size(), 3u);
  EXPECT_GE(cache.size(), 1u);
  // A freshly inserted key is always retrievable: its shard has
  // capacity for at least one entry, so the insert cannot be a no-op.
  cache.put(999, 999 * 7);
  const auto hit = cache.get(999);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 999 * 7);
  // The extreme case: one entry total still behaves as a 1-slot LRU.
  ShardedLruCache<int, int> one(1, 16);
  EXPECT_EQ(one.shard_count(), 1u);
  one.put(1, 10);
  one.put(2, 20);
  EXPECT_LE(one.size(), 1u);
  EXPECT_FALSE(one.get(1).has_value());
  EXPECT_EQ(one.get(2).value_or(-1), 20);
}

TEST(LruCache, ZeroCapacityOrZeroShardsRejected) {
  using Cache = ShardedLruCache<int, int>;
  EXPECT_THROW(Cache(0, 8), util::ContractError);
  EXPECT_THROW(Cache(8, 0), util::ContractError);
  EXPECT_THROW(Cache(0, 0), util::ContractError);
}

TEST(LruCache, ConcurrentMixedAccessIsSafe) {
  ShardedLruCache<int, int> cache(256, 8);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 2000; ++i) {
        const int key = (t * 37 + i) % 512;
        if (auto hit = cache.get(key)) {
          EXPECT_EQ(*hit, key * 3);
        } else {
          cache.put(key, key * 3);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 4u * 2000u);
}

// ----------------------------------------------------------------- keys

TEST(ScenarioKey, DistinguishesScenariosAndVersions) {
  const core::MigrationScenario a = make_scenario(1);
  const core::MigrationScenario b = make_scenario(2);
  EXPECT_TRUE(ScenarioKey(1, a) == ScenarioKey(1, a));
  EXPECT_FALSE(ScenarioKey(1, a) == ScenarioKey(1, b));
  EXPECT_FALSE(ScenarioKey(1, a) == ScenarioKey(2, a));  // version retires entries
  const ScenarioKeyHash hash;
  EXPECT_EQ(hash(ScenarioKey(1, a)), hash(ScenarioKey(1, a)));
  EXPECT_NE(hash(ScenarioKey(1, a)), hash(ScenarioKey(1, b)));
}

TEST(ScenarioKey, QuantizationGroupsNearbyFeatures) {
  core::MigrationScenario a = make_scenario(5);
  core::MigrationScenario b = a;
  b.source_cpu_load *= 1.002;  // 0.2% apart
  // Exact keys distinguish them; a 5% grid folds them together.
  EXPECT_FALSE(ScenarioKey(1, canonicalize(a, 0.0)) == ScenarioKey(1, canonicalize(b, 0.0)));
  EXPECT_TRUE(ScenarioKey(1, canonicalize(a, 0.05)) == ScenarioKey(1, canonicalize(b, 0.05)));
  core::MigrationScenario c = a;
  c.source_cpu_load *= 1.5;  // far apart stays distinct even on the grid
  EXPECT_FALSE(ScenarioKey(1, canonicalize(a, 0.05)) == ScenarioKey(1, canonicalize(c, 0.05)));
}

// ---------------------------------------------------------------- store

TEST(CoefficientStore, SwapNeverDisturbsHeldSnapshots) {
  CoefficientStore store(make_model(1.0));
  const CoefficientStore::Snapshot before = store.snapshot();
  EXPECT_EQ(before.version, 1u);
  const double c_before =
      before.model->coefficients(MigrationType::kLive).source.transfer.c;
  EXPECT_EQ(store.swap(std::make_shared<const core::Wavm3Model>(make_model(2.0))), 2u);
  // The old snapshot still reads the old coefficients.
  EXPECT_EQ(before.model->coefficients(MigrationType::kLive).source.transfer.c, c_before);
  const CoefficientStore::Snapshot after = store.snapshot();
  EXPECT_EQ(after.version, 2u);
  EXPECT_NE(after.model->coefficients(MigrationType::kLive).source.transfer.c, c_before);
}

TEST(CoefficientStore, RejectsUnfittedModels) {
  EXPECT_THROW(CoefficientStore store{core::Wavm3Model()}, util::ContractError);
  CoefficientStore store(make_model());
  EXPECT_THROW(store.swap(std::make_shared<const core::Wavm3Model>()), util::ContractError);
  EXPECT_THROW(store.reload_csv("/nonexistent/coeffs.csv"), util::ContractError);
  EXPECT_EQ(store.version(), 1u);  // failed reload left the store untouched
}

// -------------------------------------------------------------- service

TEST(PredictionService, MatchesDirectPlannerBitwise) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  ServiceConfig cfg;
  cfg.threads = 2;
  PredictionService service(model, cfg);
  for (int i = 0; i < 50; ++i) {
    const core::MigrationScenario sc = make_scenario(i);
    expect_forecast_eq(service.predict(sc), planner.forecast(sc));
  }
  // Second pass is served from the cache — still identical.
  const CacheStats before = service.stats().cache;
  for (int i = 0; i < 50; ++i) {
    const core::MigrationScenario sc = make_scenario(i);
    expect_forecast_eq(service.predict(sc), planner.forecast(sc));
  }
  const CacheStats after = service.stats().cache;
  EXPECT_GE(after.hits - before.hits, 40u);
}

TEST(PredictionService, CacheOffStillMatches) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 0;  // disabled
  PredictionService service(model, cfg);
  for (int i = 0; i < 20; ++i) {
    expect_forecast_eq(service.predict(make_scenario(i)), planner.forecast(make_scenario(i)));
  }
  EXPECT_EQ(service.stats().cache.hits + service.stats().cache.misses, 0u);
}

TEST(PredictionService, ManyThreadHammerMatchesDirectCalls) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  constexpr int kScenarios = 64;
  std::vector<core::MigrationForecast> expected;
  expected.reserve(kScenarios);
  for (int i = 0; i < kScenarios; ++i) expected.push_back(planner.forecast(make_scenario(i)));

  ServiceConfig cfg;
  cfg.threads = 4;
  cfg.cache_capacity = 128;
  PredictionService service(model, cfg);
  std::vector<std::thread> clients;
  clients.reserve(8);
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&service, &expected, t] {
      for (int i = 0; i < 400; ++i) {
        const int idx = (t * 13 + i) % kScenarios;
        // Mix the synchronous and pooled entry points.
        const core::MigrationForecast fc = (i % 2 == 0)
                                               ? service.predict(make_scenario(idx))
                                               : service.submit(make_scenario(idx)).get();
        expect_forecast_eq(fc, expected[static_cast<std::size_t>(idx)]);
      }
    });
  }
  for (auto& c : clients) c.join();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 8u * 400u);
  EXPECT_GT(stats.cache.hits, 0u);
}

TEST(PredictionService, BatchPreservesOrderAndValues) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  PredictionService service(model, ServiceConfig{.threads = 3, .queue_capacity = 16});
  std::vector<core::MigrationScenario> batch;
  for (int i = 0; i < 100; ++i) batch.push_back(make_scenario(i));  // > queue capacity
  const std::vector<core::MigrationForecast> results = service.predict_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (int i = 0; i < 100; ++i) {
    expect_forecast_eq(results[static_cast<std::size_t>(i)], planner.forecast(batch[static_cast<std::size_t>(i)]));
  }
}

TEST(PredictionService, HotSwapInvalidatesCachedResults) {
  const core::Wavm3Model model_a = make_model(1.0);
  const core::Wavm3Model model_b = make_model(2.0);
  PredictionService service(model_a, ServiceConfig{.threads = 1});
  const core::MigrationScenario sc = make_scenario(3);

  const core::MigrationForecast r_a = service.predict(sc);
  expect_forecast_eq(service.predict(sc), r_a);  // cached
  EXPECT_EQ(service.stats().cache.hits, 1u);

  EXPECT_EQ(service.swap_model(std::make_shared<const core::Wavm3Model>(model_b)), 2u);
  const core::MigrationForecast r_b = service.predict(sc);
  // New coefficients answer, not the cached result for version 1.
  expect_forecast_eq(r_b, core::MigrationPlanner(model_b).forecast(sc));
  EXPECT_NE(r_b.source_energy, r_a.source_energy);
  EXPECT_EQ(service.stats().cache.misses, 2u);  // the swap forced a recompute
}

TEST(PredictionService, HotSwapWhileQueryingIsConsistent) {
  const core::Wavm3Model model_a = make_model(1.0);
  const core::Wavm3Model model_b = make_model(2.0);
  const core::MigrationPlanner planner_a(model_a);
  const core::MigrationPlanner planner_b(model_b);
  constexpr int kScenarios = 16;
  std::vector<core::MigrationForecast> expect_a;
  std::vector<core::MigrationForecast> expect_b;
  for (int i = 0; i < kScenarios; ++i) {
    expect_a.push_back(planner_a.forecast(make_scenario(i)));
    expect_b.push_back(planner_b.forecast(make_scenario(i)));
  }

  PredictionService service(model_a, ServiceConfig{.threads = 4, .cache_capacity = 256});
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 1500 && !stop.load(std::memory_order_relaxed); ++i) {
        const int idx = (i + t) % kScenarios;
        const core::MigrationForecast fc = service.predict(make_scenario(idx));
        const auto& a = expect_a[static_cast<std::size_t>(idx)];
        const auto& b = expect_b[static_cast<std::size_t>(idx)];
        // Every answer must exactly match one of the two published
        // coefficient sets — never a torn mix.
        const bool matches_a = fc.source_energy == a.source_energy &&
                               fc.target_energy == a.target_energy;
        const bool matches_b = fc.source_energy == b.source_energy &&
                               fc.target_energy == b.target_energy;
        EXPECT_TRUE(matches_a || matches_b);
      }
    });
  }
  std::thread swapper([&] {
    for (int i = 0; i < 50; ++i) {
      service.swap_model(std::make_shared<const core::Wavm3Model>(
          i % 2 == 0 ? model_b : model_a));
      std::this_thread::yield();
    }
  });
  swapper.join();
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_GE(service.model_version(), 51u);
}

TEST(PredictionService, HotSwapDuringClosedFormBatchesUsesOneSnapshotPerBatch) {
  const core::Wavm3Model model_a = make_model(1.0);
  const core::Wavm3Model model_b = make_model(2.0);
  constexpr std::size_t kBatch = 64;
  std::vector<core::MigrationScenario> batch;
  std::vector<core::MigrationForecast> expect_a;
  std::vector<core::MigrationForecast> expect_b;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(make_scenario(static_cast<int>(i)));
    expect_a.push_back(core::MigrationPlanner(model_a).forecast(batch.back()));
    expect_b.push_back(core::MigrationPlanner(model_b).forecast(batch.back()));
  }

  PredictionService service(model_a, ServiceConfig{.threads = 2});
  std::atomic<bool> readers_done{false};
  // Swaps keep landing for as long as any reader is still pricing.
  std::thread swapper([&] {
    for (int i = 0; i < 50 || !readers_done.load(std::memory_order_relaxed); ++i) {
      service.swap_model(std::make_shared<const core::Wavm3Model>(
          i % 2 == 0 ? model_b : model_a));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::vector<PredictionService::BatchItem> results(kBatch);
      for (int round = 0; round < 200; ++round) {
        service.predict_batch_results(std::span<const core::MigrationScenario>(batch),
                                      std::span<PredictionService::BatchItem>(results));
        // Slot 0 names the snapshot; every other slot must agree with
        // it — one coefficient set per batch, never a mix.
        ASSERT_TRUE(results[0].ok());
        const bool batch_is_a = forecast_bits_equal(*results[0].forecast, expect_a[0]);
        ASSERT_TRUE(batch_is_a || forecast_bits_equal(*results[0].forecast, expect_b[0]));
        const std::vector<core::MigrationForecast>& expected = batch_is_a ? expect_a : expect_b;
        for (std::size_t i = 0; i < kBatch; ++i) {
          ASSERT_TRUE(results[i].ok());
          ASSERT_TRUE(forecast_bits_equal(*results[i].forecast, expected[i]))
              << "slot " << i << " priced under the other model";
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  readers_done.store(true);
  swapper.join();
  EXPECT_GE(service.model_version(), 51u);
  EXPECT_EQ(service.stats().cache.misses, 0u);  // batches never touched the cache
}

TEST(PredictionService, ReloadFromCsvSwapsCoefficients) {
  const core::Wavm3Model model = make_model(1.0);
  const core::Wavm3Model recalibrated = make_model(3.0);
  const std::string path = ::testing::TempDir() + "serve_reload_coeffs.csv";
  ASSERT_TRUE(core::save_coefficients_csv(recalibrated, path));

  PredictionService service(model, ServiceConfig{.threads = 1});
  const core::MigrationScenario sc = make_scenario(7);
  const core::MigrationForecast before = service.predict(sc);
  EXPECT_EQ(service.reload(path), 2u);
  const core::MigrationForecast after = service.predict(sc);
  EXPECT_NE(before.source_energy, after.source_energy);
  expect_forecast_eq(after, core::MigrationPlanner(recalibrated).forecast(sc));
  // A bad reload throws and keeps serving the current coefficients.
  EXPECT_THROW(service.reload("/nonexistent/coeffs.csv"), util::ContractError);
  EXPECT_EQ(service.model_version(), 2u);
  expect_forecast_eq(service.predict(sc), after);
}

TEST(PredictionService, QuantizedKeysAnswerFromTheGridPoint) {
  const core::Wavm3Model model = make_model();
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.quantization_step = 0.05;
  PredictionService service(model, cfg);
  core::MigrationScenario a = make_scenario(4);
  core::MigrationScenario b = a;
  b.source_cpu_load *= 1.003;  // within the grid pitch
  const core::MigrationForecast fa = service.predict(a);
  const core::MigrationForecast fb = service.predict(b);
  expect_forecast_eq(fa, fb);  // same grid point, same (cached) answer
  EXPECT_EQ(service.stats().cache.hits, 1u);
  // The answer is the planner's forecast of the canonicalized scenario.
  expect_forecast_eq(
      fa, core::MigrationPlanner(model).forecast(canonicalize(a, cfg.quantization_step)));
}

TEST(PredictionService, ShutdownDrainsThenRejectsNewWork) {
  const core::Wavm3Model model = make_model();
  PredictionService service(model, ServiceConfig{.threads = 2, .queue_capacity = 256});
  std::vector<std::future<core::MigrationForecast>> futures;
  for (int i = 0; i < 100; ++i) futures.push_back(service.submit(make_scenario(i)));
  service.shutdown(DrainMode::kDrain);
  for (auto& f : futures) EXPECT_GT(f.get().total_energy(), 0.0);  // all served
  auto rejected = service.submit(make_scenario(0));
  EXPECT_THROW(rejected.get(), std::runtime_error);
}

TEST(PredictionService, SubmitFastPathServesHitsWithoutQueueing) {
  const core::Wavm3Model model = make_model();
  PredictionService service(model, ServiceConfig{.threads = 1});
  const core::MigrationScenario sc = make_scenario(9);
  const core::MigrationForecast first = service.predict(sc);  // warm the cache
  ASSERT_EQ(service.stats().cache.insertions, 1u);
  const std::uint64_t hits_before = service.stats().cache.hits;
  auto fut = service.submit(sc);
  // The fast path resolves the future on the submitting thread, so it
  // must already be ready — no waiting on the single worker.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  expect_forecast_eq(fut.get(), first);
  EXPECT_EQ(service.stats().cache.hits, hits_before + 1);
  // try_submit shares the fast path: ready at once, one more hit.
  std::optional<std::future<core::MigrationForecast>> tried = service.try_submit(sc);
  ASSERT_TRUE(tried.has_value());
  ASSERT_EQ(tried->wait_for(std::chrono::seconds(0)), std::future_status::ready);
  expect_forecast_eq(tried->get(), first);
  EXPECT_EQ(service.stats().cache.hits, hits_before + 2);
  // One predict + two submits of the same scenario: exactly one miss.
  EXPECT_EQ(service.stats().cache.misses, 1u);
}

// Every public entry point feeds its serve_endpoint_latency_ns row from
// real calls: predict (one of which throws), submit (a cache hit
// answered inline and a queued miss), try_submit and batches. The
// manual clock never moves during the calls, so every latency lands in
// the first 1 us bucket and the table's QPS is the count over the 2 s
// the clock advances after construction.
TEST(PredictionService, EndpointMetricsCountRealCalls) {
  obs::ManualClock::install(1'000'000);
  std::string prom;
  std::string table;
  {
    const core::Wavm3Model model = make_model();
    PredictionService service(model, ServiceConfig{.threads = 1});
    for (int i = 0; i < 4; ++i) service.predict(make_scenario(i));
    core::MigrationScenario invalid = make_scenario(5);
    invalid.vm_mem_bytes = 0.0;  // the planner rejects a VM without memory
    EXPECT_ANY_THROW(service.predict(invalid));
    EXPECT_GT(service.submit(make_scenario(0)).get().total_energy(), 0.0);  // cache hit
    EXPECT_GT(service.submit(make_scenario(100)).get().total_energy(), 0.0);  // queued
    std::optional<std::future<core::MigrationForecast>> tried =
        service.try_submit(make_scenario(101));
    ASSERT_TRUE(tried.has_value());
    EXPECT_GT(tried->get().total_energy(), 0.0);
    for (int b = 0; b < 2; ++b) service.predict_batch({make_scenario(b), make_scenario(7)});
    EXPECT_EQ(service.stats().cache.hits, 1u);
    // Join the worker so its timers have recorded before the export.
    service.shutdown();
    obs::ManualClock::advance(2'000'000'000);
    prom = service.metrics_prometheus();
    table = service.metrics_table();
  }
  obs::ManualClock::uninstall();

  for (const auto& [endpoint, count] : {std::pair<std::string, int>{"predict", 5},
                                        {"submit", 3},
                                        {"predict_batch", 2}}) {
    EXPECT_NE(prom.find("serve_endpoint_latency_ns_count{endpoint=\"" + endpoint + "\"} " +
                        std::to_string(count) + "\n"),
              std::string::npos)
        << endpoint << "\n"
        << prom;
    EXPECT_NE(table.find(util::format("%-24s %10d %12.1f %10.1f %10.1f %10.1f %10.1f\n",
                                      endpoint.c_str(), count, count / 2.0, 0.0, 1.0, 1.0,
                                      1.0)),
              std::string::npos)
        << endpoint << "\n"
        << table;
  }
}

// ---------------------------------------------------- simulated fidelity

TEST(SimBackend, Deterministic) {
  const core::Wavm3Model model = make_model();
  const core::MigrationScenario sc = make_scenario(4);
  expect_forecast_eq(simulate_forecast(model, sc), simulate_forecast(model, sc));
}

TEST(SimBackend, AgreesWithClosedFormOnTrafficAndTiming) {
  // The engine and the planner model the same pre-copy laws; their
  // traffic/timing answers must land in the same ballpark (the engine
  // adds helper-CPU feedback the closed form approximates).
  const core::MigrationScenario sc = make_scenario(1);
  const core::MigrationForecast sim = simulate_timings(sc);
  const core::MigrationForecast closed = core::forecast_timings(sc);
  EXPECT_NEAR(sim.total_bytes, closed.total_bytes, 0.25 * closed.total_bytes);
  EXPECT_NEAR(sim.times.transfer_duration(), closed.times.transfer_duration(),
              0.25 * closed.times.transfer_duration() + 1.0);
  EXPECT_GT(sim.downtime, 0.0);
}

TEST(PredictionService, SimulatedFidelityIsCachedAndMatchesBackend) {
  const core::Wavm3Model model = make_model();
  PredictionService service(
      model, ServiceConfig{.threads = 2, .fidelity = Fidelity::kSimulated});
  const core::MigrationScenario sc = make_scenario(6);
  const core::MigrationForecast direct = simulate_forecast(model, sc);
  expect_forecast_eq(service.predict(sc), direct);          // miss: engine run
  expect_forecast_eq(service.predict(sc), direct);          // hit
  expect_forecast_eq(service.submit(sc).get(), direct);     // hit via fast path
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, 2u);
}

TEST(PredictionService, SimulatedQueryStreamServable) {
  const core::Wavm3Model model = make_model();
  PredictionService service(
      model, ServiceConfig{.threads = 2, .fidelity = Fidelity::kSimulated});
  QueryStreamGenerator g = QueryStreamGenerator::diurnal(QueryStreamOptions{}, 17);
  for (const core::MigrationForecast& fc : service.predict_batch(g.generate(16))) {
    EXPECT_GT(fc.total_energy(), 0.0);
    EXPECT_GT(fc.times.me, 0.0);
    EXPECT_GT(fc.total_bytes, 0.0);
  }
}

// --------------------------------------------------------- query stream

TEST(QueryStream, DeterministicAndRepeating) {
  QueryStreamOptions opts;
  opts.repeat_fraction = 0.9;
  QueryStreamGenerator g1 = QueryStreamGenerator::diurnal(opts, 99);
  QueryStreamGenerator g2 = QueryStreamGenerator::diurnal(opts, 99);
  const auto s1 = g1.generate(500);
  const auto s2 = g2.generate(500);
  ASSERT_EQ(s1.size(), 500u);
  int repeats = 0;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].vm_mem_bytes, s2[i].vm_mem_bytes);
    EXPECT_EQ(s1[i].source_cpu_load, s2[i].source_cpu_load);
    for (std::size_t j = 0; j < i; ++j) {
      if (scenario_fields(s1[i]) == scenario_fields(s1[j])) {
        ++repeats;
        break;
      }
    }
  }
  // Roughly 90% of a 500-query stream should be replays.
  EXPECT_GT(repeats, 350);
  EXPECT_LT(repeats, 500);
}

TEST(QueryStream, ScenariosAreServable) {
  const core::Wavm3Model model = make_model();
  PredictionService service(model, ServiceConfig{.threads = 2});
  QueryStreamGenerator g = QueryStreamGenerator::diurnal(QueryStreamOptions{}, 7);
  for (const core::MigrationForecast& fc : service.predict_batch(g.generate(64))) {
    EXPECT_GT(fc.total_energy(), 0.0);
    EXPECT_GT(fc.times.me, 0.0);
  }
}

// --------------------------------------------------- circuit breaker

TEST(CircuitBreakerTest, TripsOpenThenProbesAndCloses) {
  double now = 0.0;
  CircuitBreaker b(
      {.failure_threshold = 2, .open_duration_s = 10.0, .half_open_successes = 2},
      [&now] { return now; });
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow());
  b.record_failure();
  EXPECT_TRUE(b.allow());
  b.record_failure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.open_transitions(), 1u);
  EXPECT_FALSE(b.allow());
  EXPECT_EQ(b.rejections(), 1u);

  now = 9.9;
  EXPECT_FALSE(b.allow());  // cool-down not over yet
  now = 10.0;
  EXPECT_TRUE(b.allow());  // first half-open probe
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(b.allow());  // only one probe in flight at a time
  b.record_success();
  EXPECT_TRUE(b.allow());  // second probe
  b.record_success();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.allow());
  EXPECT_EQ(b.open_transitions(), 1u);
}

TEST(CircuitBreakerTest, FailedProbeReopensAndRestartsCooldown) {
  double now = 0.0;
  CircuitBreaker b(
      {.failure_threshold = 1, .open_duration_s = 5.0, .half_open_successes = 1},
      [&now] { return now; });
  EXPECT_TRUE(b.allow());
  b.record_failure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);

  now = 5.0;
  EXPECT_TRUE(b.allow());  // probe
  b.record_failure();      // probe failed: straight back to open
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.open_transitions(), 2u);
  now = 9.0;               // cool-down restarted at t=5, not expired
  EXPECT_FALSE(b.allow());
  now = 10.0;
  EXPECT_TRUE(b.allow());
  b.record_success();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreaker b({.failure_threshold = 3, .open_duration_s = 1.0,
                    .half_open_successes = 1});
  b.record_failure();
  b.record_failure();
  b.record_success();  // streak broken
  b.record_failure();
  b.record_failure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  b.record_failure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
}

// ----------------------------------------------- degradation ladder

/// A sim backend that fails its first `failures` calls, then answers
/// with the closed-form planner (so results stay comparable).
struct FlakyBackend {
  std::shared_ptr<std::atomic<int>> remaining_failures;
  std::shared_ptr<std::atomic<int>> calls = std::make_shared<std::atomic<int>>(0);

  explicit FlakyBackend(int failures)
      : remaining_failures(std::make_shared<std::atomic<int>>(failures)) {}

  core::MigrationForecast operator()(const core::Wavm3Model& model,
                                     const core::MigrationScenario& sc) const {
    calls->fetch_add(1);
    if (remaining_failures->fetch_sub(1) > 0) {
      throw std::runtime_error("injected backend failure");
    }
    return core::MigrationPlanner(model).forecast(sc);
  }
};

TEST(PredictionService, SubmitAfterShutdownCarriesTypedError) {
  const core::Wavm3Model model = make_model();
  PredictionService service(model, ServiceConfig{.threads = 1});
  service.shutdown();
  std::future<core::MigrationForecast> f = service.submit(make_scenario(0));
  try {
    f.get();
    FAIL() << "expected PredictError";
  } catch (const PredictError& e) {
    EXPECT_EQ(e.code(), PredictErrorCode::kShutdown);
  }
  EXPECT_GE(service.stats().resilience.rejected_after_shutdown, 1u);
  EXPECT_FALSE(service.try_submit(make_scenario(1)).has_value());
  // A refused try_submit after shutdown is a rejection, never a shed.
  EXPECT_EQ(service.stats().resilience.rejected_after_shutdown, 2u);
  EXPECT_EQ(service.stats().resilience.shed, 0u);
}

TEST(PredictionService, FailingBackendDegradesToClosedForm) {
  const core::Wavm3Model model = make_model();
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 1;
  cfg.backend_backoff_initial_s = 0.0;
  cfg.breaker.failure_threshold = 4;
  cfg.breaker.open_duration_s = 3600.0;  // stays open for the whole test
  cfg.simulated_backend = [](const core::Wavm3Model&,
                             const core::MigrationScenario&) -> core::MigrationForecast {
    throw std::runtime_error("injected backend failure");
  };
  PredictionService service(model, cfg);
  const core::MigrationPlanner planner(model);

  // Every request is answered — at closed-form fidelity — and none
  // throws; the breaker trips open along the way.
  for (int i = 0; i < 20; ++i) {
    expect_forecast_eq(service.predict(make_scenario(i)),
                       planner.forecast(make_scenario(i)));
  }
  const ResilienceStats r = service.stats().resilience;
  EXPECT_EQ(r.degraded_to_closed_form, 20u);
  EXPECT_GE(r.backend_failures, 4u);
  EXPECT_GE(r.backend_retries, 1u);
  EXPECT_EQ(r.breaker_open_transitions, 1u);
  EXPECT_GT(r.breaker_rejections, 0u);  // later requests skipped the backend
  EXPECT_EQ(r.breaker_state, "open");
}

TEST(PredictionService, FailingBackendWithoutDegradationThrowsTyped) {
  const core::Wavm3Model model = make_model();
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 0;
  cfg.degrade_to_closed_form = false;
  cfg.simulated_backend = [](const core::Wavm3Model&,
                             const core::MigrationScenario&) -> core::MigrationForecast {
    throw std::runtime_error("injected backend failure");
  };
  PredictionService service(model, cfg);
  try {
    service.predict(make_scenario(0));
    FAIL() << "expected PredictError";
  } catch (const PredictError& e) {
    EXPECT_EQ(e.code(), PredictErrorCode::kBackendFailure);
  }
  // The same failure through the async path lands in the future.
  EXPECT_THROW(service.submit(make_scenario(1)).get(), PredictError);
}

TEST(PredictionService, BatchCarriesPerSlotErrorsIndexAligned) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.batch_max_size = 4;  // force several chunks
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 0;
  cfg.degrade_to_closed_form = false;
  cfg.breaker.failure_threshold = 1000;  // keep the breaker out of the picture
  // Non-live scenarios (i % 3 == 0 in make_scenario) fail; live ones succeed.
  cfg.simulated_backend = [](const core::Wavm3Model& m,
                             const core::MigrationScenario& sc) -> core::MigrationForecast {
    if (sc.type == MigrationType::kNonLive) throw std::runtime_error("injected backend failure");
    return core::MigrationPlanner(m).forecast(sc);
  };
  PredictionService service(model, cfg);

  std::vector<core::MigrationScenario> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(make_scenario(i));
  const std::vector<PredictionService::BatchItem> results = service.predict_batch_results(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_FALSE(results[i].ok()) << "slot " << i;
      ASSERT_TRUE(results[i].error.has_value());
      EXPECT_EQ(results[i].error->code(), PredictErrorCode::kBackendFailure);
    } else {
      ASSERT_TRUE(results[i].ok()) << "slot " << i;
      expect_forecast_eq(*results[i].forecast, planner.forecast(batch[i]));
    }
  }

  // The all-or-nothing wrapper surfaces the lowest-index slot's error.
  EXPECT_THROW(
      {
        try {
          service.predict_batch(batch);
        } catch (const PredictError& e) {
          EXPECT_EQ(e.code(), PredictErrorCode::kBackendFailure);
          throw;
        }
      },
      PredictError);
}

TEST(PredictionService, BatchAfterShutdownFailsEverySlotTyped) {
  const core::Wavm3Model model = make_model();
  PredictionService service(model, ServiceConfig{.threads = 1});
  service.shutdown();
  std::vector<core::MigrationScenario> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(make_scenario(i));
  const std::vector<PredictionService::BatchItem> results = service.predict_batch_results(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const PredictionService::BatchItem& item : results) {
    ASSERT_FALSE(item.ok());
    ASSERT_TRUE(item.error.has_value());
    EXPECT_EQ(item.error->code(), PredictErrorCode::kShutdown);
  }
}

TEST(PredictionService, ClosedFormBatchFailsAnInvalidScenarioInItsSlotsOnly) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  PredictionService service(model, ServiceConfig{.threads = 1});
  core::MigrationScenario invalid = make_scenario(1);
  invalid.vm_mem_bytes = 0.0;  // the planner rejects a VM without memory
  const std::vector<core::MigrationScenario> batch = {make_scenario(0), invalid,
                                                      make_scenario(2), invalid};
  const std::vector<PredictionService::BatchItem> results = service.predict_batch_results(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
    ASSERT_FALSE(results[i].ok()) << "slot " << i;
    ASSERT_TRUE(results[i].error.has_value());
    EXPECT_EQ(results[i].error->code(), PredictErrorCode::kBackendFailure);
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(results[i].ok()) << "slot " << i;
    expect_forecast_eq(*results[i].forecast, planner.forecast(batch[i]));
  }
}

TEST(PredictionService, ClosedFormBatchInvalidScenarioMidBatchKeepsNeighboursBitEqual) {
  // A batch longer than the planner's lanes, with live, non-live and
  // post-copy scenarios, one invalid scenario in the middle (and a
  // repeat of it) and a repeated valid one: only the invalid slots
  // fail, and every other slot still bit-equals forecast().
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  PredictionService service(model, ServiceConfig{.threads = 1});
  std::vector<core::MigrationScenario> batch;
  for (int i = 0; i < 65; ++i) {
    batch.push_back(make_scenario(i));
    if (i % 7 == 2) batch.back().type = MigrationType::kPostCopy;
  }
  batch[31].vm_mem_bytes = 0.0;  // the planner rejects a VM without memory
  batch[52] = batch[31];
  batch[60] = batch[5];
  const std::vector<PredictionService::BatchItem> results = service.predict_batch_results(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    if (i == 31 || i == 52) {
      ASSERT_FALSE(results[i].ok());
      ASSERT_TRUE(results[i].error.has_value());
      EXPECT_EQ(results[i].error->code(), PredictErrorCode::kBackendFailure);
      continue;
    }
    ASSERT_TRUE(results[i].ok());
    expect_forecast_eq(*results[i].forecast, planner.forecast(batch[i]));
  }
}

TEST(PredictionService, BatchDedupsRepeatsAndObservesBatchMetrics) {
  // Closed form: the distinct scenarios are priced inline, outside the
  // result cache, and the duplicates copy their first occurrence.
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.batch_max_size = 8;
  PredictionService service(model, cfg);
  std::vector<core::MigrationScenario> batch;
  for (int i = 0; i < 30; ++i) batch.push_back(make_scenario(i % 5));  // heavy repeats
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<PredictionService::BatchItem> results =
        service.predict_batch_results(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "pass " << pass << " slot " << i;
      expect_forecast_eq(*results[i].forecast, planner.forecast(batch[i]));
    }
  }
  const CacheStats cache = service.stats().cache;
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_EQ(cache.insertions, 0u);
  EXPECT_EQ(cache.evictions, 0u);
  // One observation per call, of the distinct count.
  const obs::HistogramSnapshot sizes = service_histogram(service, "serve_batch_size");
  EXPECT_EQ(sizes.count, 2u);
  EXPECT_EQ(sizes.sum, 10.0);
}

TEST(PredictionService, SimulatedBatchDedupsRepeatsThroughTheCache) {
  const core::Wavm3Model model = make_model();
  const core::MigrationPlanner planner(model);
  const FlakyBackend backend(0);  // never fails; counts its calls
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.batch_max_size = 8;
  cfg.fidelity = Fidelity::kSimulated;
  cfg.simulated_backend = backend;
  PredictionService service(model, cfg);
  std::vector<core::MigrationScenario> batch;
  for (int i = 0; i < 30; ++i) batch.push_back(make_scenario(i % 5));  // heavy repeats
  const std::vector<PredictionService::BatchItem> results = service.predict_batch_results(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "slot " << i;
    expect_forecast_eq(*results[i].forecast, planner.forecast(batch[i]));
  }
  // Repeats were deduplicated before hitting the backend: only the five
  // distinct scenarios were computed (and cached), the rest fanned out.
  EXPECT_EQ(backend.calls->load(), 5);
  EXPECT_EQ(service.stats().cache.misses, 5u);
  EXPECT_EQ(service.stats().cache.insertions, 5u);
  // A second pass is answered inline from the cache.
  const std::vector<PredictionService::BatchItem> again = service.predict_batch_results(batch);
  for (std::size_t i = 0; i < again.size(); ++i) {
    ASSERT_TRUE(again[i].ok());
    expect_forecast_eq(*again[i].forecast, planner.forecast(batch[i]));
  }
  EXPECT_EQ(backend.calls->load(), 5);
  EXPECT_EQ(service.stats().cache.hits, 30u);
}

TEST(PredictionService, BackendRecoversAfterRetries) {
  const core::Wavm3Model model = make_model();
  const FlakyBackend backend(2);  // first two calls fail, then healthy
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 2;
  cfg.backend_backoff_initial_s = 0.0;
  cfg.simulated_backend = backend;
  PredictionService service(model, cfg);

  const core::MigrationScenario sc = make_scenario(5);
  expect_forecast_eq(service.predict(sc),
                     core::MigrationPlanner(model).forecast(sc));
  const ResilienceStats r = service.stats().resilience;
  EXPECT_EQ(r.backend_failures, 2u);
  EXPECT_EQ(r.backend_retries, 2u);
  EXPECT_EQ(r.degraded_to_closed_form, 0u);  // the retry succeeded
  EXPECT_EQ(r.breaker_state, "closed");
}

TEST(PredictionService, DegradedAnswersAreNotCached) {
  const core::Wavm3Model model = make_model();
  const FlakyBackend backend(1);  // exactly one failure, then healthy
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 0;  // no retry: the first call degrades
  cfg.breaker.failure_threshold = 100;
  cfg.simulated_backend = backend;
  PredictionService service(model, cfg);

  const core::MigrationScenario sc = make_scenario(5);
  service.predict(sc);  // backend fails -> degraded, NOT cached
  EXPECT_EQ(service.stats().resilience.degraded_to_closed_form, 1u);
  service.predict(sc);  // must consult the (now healthy) backend again
  EXPECT_EQ(backend.calls->load(), 2);
  EXPECT_EQ(service.stats().resilience.degraded_to_closed_form, 1u);
  service.predict(sc);  // healthy answer was cached
  EXPECT_EQ(backend.calls->load(), 2);
}

/// A backend the test can hold shut: calls block until release().
struct BlockingBackend {
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> entered{0};
  };
  std::shared_ptr<Shared> s = std::make_shared<Shared>();

  void release() const {
    const std::lock_guard<std::mutex> lock(s->m);
    s->open = true;
    s->cv.notify_all();
  }
  void wait_entered(int n) const {
    while (s->entered.load() < n) std::this_thread::yield();
  }
  core::MigrationForecast operator()(const core::Wavm3Model& model,
                                     const core::MigrationScenario& sc) const {
    s->entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(s->m);
    s->cv.wait(lock, [this] { return s->open; });
    return core::MigrationPlanner(model).forecast(sc);
  }
};

TEST(PredictionService, QueuedPastDeadlineFailsTyped) {
  const core::Wavm3Model model = make_model();
  const BlockingBackend backend;
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 0;  // keep every request on the worker path
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 0;
  cfg.simulated_backend = backend;
  PredictionService service(model, cfg);

  // First request occupies the single worker inside the blocked
  // backend; the second has a deadline it will spend in the queue.
  std::future<core::MigrationForecast> a = service.submit(make_scenario(0));
  backend.wait_entered(1);
  std::future<core::MigrationForecast> b = service.submit(make_scenario(1), 0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  backend.release();

  EXPECT_NO_THROW(a.get());
  try {
    b.get();
    FAIL() << "expected PredictError";
  } catch (const PredictError& e) {
    EXPECT_EQ(e.code(), PredictErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(service.stats().resilience.deadline_expired, 1u);
}

TEST(PredictionService, TrySubmitShedsWhenQueueIsFull) {
  const core::Wavm3Model model = make_model();
  const BlockingBackend backend;
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 1;
  cfg.cache_capacity = 0;
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 0;
  cfg.simulated_backend = backend;
  PredictionService service(model, cfg);

  std::future<core::MigrationForecast> a = service.submit(make_scenario(0));
  backend.wait_entered(1);  // worker busy; the queue itself is empty
  std::optional<std::future<core::MigrationForecast>> b =
      service.try_submit(make_scenario(1));  // fills the queue slot
  ASSERT_TRUE(b.has_value());
  std::optional<std::future<core::MigrationForecast>> c =
      service.try_submit(make_scenario(2));  // queue full: shed, not blocked
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(service.stats().resilience.shed, 1u);

  backend.release();
  EXPECT_NO_THROW(a.get());
  EXPECT_NO_THROW(b->get());
}

TEST(PredictionService, DestructorDrainsPendingFutures) {
  const core::Wavm3Model model = make_model();
  std::vector<std::future<core::MigrationForecast>> futures;
  {
    PredictionService service(model,
                              ServiceConfig{.threads = 2, .queue_capacity = 64});
    for (int i = 0; i < 32; ++i) futures.push_back(service.submit(make_scenario(i)));
    // Service destroyed here with futures still outstanding: the
    // drain-mode destructor must finish them, not abandon them.
  }
  const core::MigrationPlanner planner(model);
  for (int i = 0; i < 32; ++i) {
    expect_forecast_eq(futures[static_cast<std::size_t>(i)].get(),
                       planner.forecast(make_scenario(i)));
  }
}

TEST(PredictionService, CacheCapacityZeroDisablesCaching) {
  const core::Wavm3Model model = make_model();
  PredictionService service(model,
                            ServiceConfig{.threads = 1, .cache_capacity = 0});
  const core::MigrationScenario sc = make_scenario(4);
  const core::MigrationForecast first = service.predict(sc);
  expect_forecast_eq(service.predict(sc), first);  // recomputed, same answer
  expect_forecast_eq(service.submit(sc).get(), first);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.insertions, 0u);
}

TEST(PredictionService, FeedbackWithoutSinkIsDropped) {
  PredictionService service(make_model(), ServiceConfig{.threads = 1});
  MigrationFeedback fb{100.0, 120.0, 12.0};
  EXPECT_FALSE(service.record_feedback(make_scenario(1), fb));
  EXPECT_NE(service.metrics_prometheus().find("serve_feedback_dropped_total 1"),
            std::string::npos);
}

TEST(PredictionService, FeedbackReachesSinkAsynchronously) {
  PredictionService service(make_model(), ServiceConfig{.threads = 2});
  std::atomic<int> delivered{0};
  std::atomic<double> energy_sum{0.0};
  service.set_feedback_sink(
      [&](const core::MigrationScenario&, const MigrationFeedback& fb) {
        delivered.fetch_add(1);
        double cur = energy_sum.load();
        while (!energy_sum.compare_exchange_weak(cur, cur + fb.source_energy_j)) {
        }
      });
  for (int i = 0; i < 40; ++i) {
    MigrationFeedback fb{10.0 * i, 5.0, 3.0};
    EXPECT_TRUE(service.record_feedback(make_scenario(i), fb));
  }
  service.shutdown(DrainMode::kDrain);
  EXPECT_EQ(delivered.load(), 40);
  EXPECT_DOUBLE_EQ(energy_sum.load(), 10.0 * (39.0 * 40.0 / 2.0));
}

TEST(PredictionService, FeedbackRejectsCorruptSamplesBeforeTheSink) {
  PredictionService service(make_model(), ServiceConfig{.threads = 1});
  std::atomic<int> delivered{0};
  service.set_feedback_sink(
      [&](const core::MigrationScenario&, const MigrationFeedback&) { delivered.fetch_add(1); });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(service.record_feedback(make_scenario(1), MigrationFeedback{nan, 1.0, 1.0}));
  EXPECT_FALSE(service.record_feedback(make_scenario(1), MigrationFeedback{1.0, nan, 1.0}));
  EXPECT_FALSE(service.record_feedback(make_scenario(1), MigrationFeedback{1.0, 1.0, 0.0}));
  service.shutdown(DrainMode::kDrain);
  EXPECT_EQ(delivered.load(), 0);
}

TEST(PredictionService, ThrowingSinkIsCountedAndDoesNotKillWorkers) {
  PredictionService service(make_model(), ServiceConfig{.threads = 1});
  service.set_feedback_sink(
      [](const core::MigrationScenario&, const MigrationFeedback&) {
        throw std::runtime_error("consumer bug");
      });
  EXPECT_TRUE(service.record_feedback(make_scenario(1), MigrationFeedback{1.0, 1.0, 1.0}));
  // The worker that ran the throwing sink must still answer queries.
  const core::MigrationForecast fc = service.submit(make_scenario(2)).get();
  expect_forecast_eq(fc, core::MigrationPlanner(make_model()).forecast(make_scenario(2)));
  EXPECT_NE(service.metrics_prometheus().find("serve_feedback_errors_total 1"),
            std::string::npos);
}

TEST(PredictionService, ClearFeedbackSinkStopsDelivery) {
  PredictionService service(make_model(), ServiceConfig{.threads = 1});
  std::atomic<int> delivered{0};
  service.set_feedback_sink(
      [&](const core::MigrationScenario&, const MigrationFeedback&) { delivered.fetch_add(1); });
  EXPECT_TRUE(service.record_feedback(make_scenario(1), MigrationFeedback{1.0, 1.0, 1.0}));
  service.clear_feedback_sink();
  EXPECT_FALSE(service.record_feedback(make_scenario(2), MigrationFeedback{1.0, 1.0, 1.0}));
  service.shutdown(DrainMode::kDrain);
  EXPECT_EQ(delivered.load(), 1);
}

TEST(PredictionService, BackoffDelayIsCappedAtHighAttemptCounts) {
  // Regression: pow(multiplier, attempt-1) overflows toward inf within
  // a few dozen attempts of a 2x multiplier. Without the cap a large
  // retry budget turned one failing request into an effectively
  // unbounded sleep. With the cap, 60 retries at multiplier 2 complete
  // promptly: 2^59 * 1e-6 s would otherwise be ~18k years.
  const core::Wavm3Model model = make_model();
  ServiceConfig cfg;
  cfg.threads = 1;
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 60;
  cfg.backend_backoff_initial_s = 1e-6;
  cfg.backend_backoff_multiplier = 2.0;
  cfg.backend_backoff_max_s = 1e-4;
  cfg.breaker.failure_threshold = 1000;  // keep the breaker out of the way
  cfg.simulated_backend = [](const core::Wavm3Model&,
                             const core::MigrationScenario&) -> core::MigrationForecast {
    throw std::runtime_error("injected backend failure");
  };
  PredictionService service(model, cfg);
  const auto start = std::chrono::steady_clock::now();
  const core::MigrationForecast fc = service.predict(make_scenario(0));
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // 61 attempts, each backoff capped at 1e-4 s: well under a second
  // even on a loaded CI box.
  EXPECT_LT(elapsed_s, 30.0);
  expect_forecast_eq(fc, core::MigrationPlanner(model).forecast(make_scenario(0)));
  EXPECT_GE(service.stats().resilience.backend_retries, 60u);
}

TEST(PredictionService, NegativeBackoffCapRejected) {
  ServiceConfig cfg;
  cfg.backend_backoff_max_s = -1.0;
  EXPECT_THROW(PredictionService(make_model(), cfg), util::ContractError);
}

TEST(PredictionService, ConcurrentFailingBackendIsSafe) {
  // TSan coverage of the whole ladder under contention: breaker
  // transitions, retry/backoff bookkeeping and degradation counters
  // hammered from many client threads at once.
  const core::Wavm3Model model = make_model();
  ServiceConfig cfg;
  cfg.threads = 4;
  cfg.fidelity = Fidelity::kSimulated;
  cfg.backend_max_retries = 1;
  cfg.backend_backoff_initial_s = 1e-4;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_duration_s = 0.002;  // open and half-open both exercised
  cfg.simulated_backend = [](const core::Wavm3Model&,
                             const core::MigrationScenario&) -> core::MigrationForecast {
    throw std::runtime_error("injected backend failure");
  };
  PredictionService service(model, cfg);

  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&service, &answered, c] {
      for (int i = 0; i < 50; ++i) {
        const core::MigrationForecast fc = service.predict(make_scenario(c * 50 + i));
        if (fc.times.me >= 0.0) answered.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), 300);
  const ResilienceStats r = service.stats().resilience;
  EXPECT_EQ(r.degraded_to_closed_form, 300u);
  EXPECT_GE(r.breaker_open_transitions, 1u);
}

}  // namespace
}  // namespace wavm3::serve
