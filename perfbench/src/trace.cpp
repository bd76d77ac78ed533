#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "obs/clock.hpp"
#include "obs/export.hpp"

namespace wavm3::perfbench {

namespace {

std::atomic<bool> g_tracing{false};

/// Raw benchmark spans kept per thread for the Chrome trace.
constexpr std::size_t kKeptPerThread = 20000;
/// Raw obs events kept for the Chrome trace.
constexpr std::size_t kKeptObs = 200000;
/// Thread ids of benchmark spans start here, clear of obs ring ids.
constexpr std::uint32_t kBenchTidBase = 1000;

struct ThreadSpans {
  struct Frame {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  struct Raw {
    const char* name;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
  };
  std::uint32_t tid = 0;
  std::vector<Frame> stack;
  /// Few names per thread: a linear scan beats hashing on the hot path.
  std::vector<std::pair<const char*, LayerStat>> stats;
  std::vector<Raw> raw;

  LayerStat& stat(const char* name) {
    for (auto& [n, s] : stats) {
      if (n == name) return s;
    }
    stats.emplace_back(name, LayerStat{});
    return stats.back().second;
  }
};

std::mutex g_threads_mutex;
std::vector<std::shared_ptr<ThreadSpans>> g_threads;

ThreadSpans& local_spans() {
  thread_local std::shared_ptr<ThreadSpans> mine;
  if (!mine) {
    mine = std::make_shared<ThreadSpans>();
    const std::lock_guard<std::mutex> lock(g_threads_mutex);
    mine->tid = kBenchTidBase + static_cast<std::uint32_t>(g_threads.size());
    g_threads.push_back(mine);
  }
  return *mine;
}

struct EventKey {
  std::uint32_t tid;
  std::uint64_t ts;
  std::uint64_t dur;
  const char* name;
  bool operator==(const EventKey& o) const {
    return tid == o.tid && ts == o.ts && dur == o.dur && name == o.name;
  }
};
struct EventKeyHash {
  std::size_t operator()(const EventKey& k) const {
    std::size_t h = std::hash<std::uint64_t>{}(k.ts);
    h ^= std::hash<std::uint64_t>{}(k.dur) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= std::hash<const void*>{}(k.name) + (h << 6) + (h >> 2);
    return h ^ k.tid;
  }
};
EventKey key_of(const obs::TraceEvent& e) { return {e.tid, e.ts_ns, e.dur_ns, e.name}; }

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

BenchSpan::BenchSpan(const char* name) : active_(tracing()) {
  if (!active_) return;
  local_spans().stack.push_back({name, obs::now_ns(), 0});
}

BenchSpan::~BenchSpan() {
  if (!active_) return;
  const std::uint64_t end = obs::now_ns();
  ThreadSpans& t = local_spans();
  const ThreadSpans::Frame f = t.stack.back();
  t.stack.pop_back();
  const std::uint64_t dur = end > f.start_ns ? end - f.start_ns : 0;
  LayerStat& s = t.stat(f.name);
  ++s.count;
  s.total_ns += static_cast<double>(dur);
  s.self_ns += static_cast<double>(dur > f.child_ns ? dur - f.child_ns : 0);
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (t.raw.size() < kKeptPerThread) t.raw.push_back({f.name, f.start_ns, dur});
}

LayerStats bench_span_stats() {
  LayerStats out;
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& t : g_threads) {
    for (const auto& [name, s] : t->stats) {
      LayerStat& o = out[name];
      o.count += s.count;
      o.total_ns += s.total_ns;
      o.self_ns += s.self_ns;
    }
  }
  return out;
}

void reset_bench_spans() {
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& t : g_threads) {
    t->stats.clear();
    t->raw.clear();
  }
}

ObsCollector::~ObsCollector() { stop(); }

void ObsCollector::start() {
  if (!tracing() || running_.load()) return;
  obs::Tracer& tr = obs::tracer();
  tr.clear();
  tr.set_enabled(true);
  running_.store(true);
  drainer_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      drain_once();
    }
  });
}

void ObsCollector::stop() {
  if (!running_.exchange(false)) return;
  drainer_.join();
  obs::Tracer& tr = obs::tracer();
  drain_once();
  emitted_ = tr.emitted();
  tr.set_enabled(false);
  previous_.clear();
}

void ObsCollector::drain_once() {
  std::vector<obs::TraceEvent> now = obs::tracer().drain();
  std::unordered_set<EventKey, EventKeyHash> seen;
  seen.reserve(previous_.size() * 2 + 1);
  for (const obs::TraceEvent& e : previous_) seen.insert(key_of(e));
  for (const obs::TraceEvent& e : now) {
    if (seen.count(key_of(e)) != 0) continue;
    ++captured_;
    if (e.phase != obs::EventPhase::kComplete || e.pid != obs::kWallPid) continue;
    events_.push_back({e.category, e.name, e.tid, e.ts_ns, e.dur_ns});
    if (kept_.size() < kKeptObs) kept_.push_back(e);
  }
  previous_ = std::move(now);
}

LayerStats ObsCollector::stats() const {
  std::vector<Compact> ev = events_;
  std::sort(ev.begin(), ev.end(), [](const Compact& a, const Compact& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    return a.dur_ns > b.dur_ns;  // parents before children starting with them
  });
  std::vector<std::uint64_t> child(ev.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (i > 0 && ev[i].tid != ev[i - 1].tid) stack.clear();
    const std::uint64_t end = ev[i].ts_ns + ev[i].dur_ns;
    while (!stack.empty() && ev[stack.back()].ts_ns + ev[stack.back()].dur_ns < end) {
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += ev[i].dur_ns;
    stack.push_back(i);
  }
  LayerStats out;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    LayerStat& s = out[std::string(ev[i].category) + "/" + ev[i].name];
    ++s.count;
    s.total_ns += static_cast<double>(ev[i].dur_ns);
    s.self_ns += static_cast<double>(ev[i].dur_ns > child[i] ? ev[i].dur_ns - child[i] : 0);
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> ObsCollector::intervals(
    const std::string& category, const std::string& name) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Compact& e : events_) {
    if (category == e.category && name == e.name) out.emplace_back(e.ts_ns, e.dur_ns);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<obs::TraceEvent>& obs_events) {
  std::vector<obs::TraceEvent> all = obs_events;
  {
    const std::lock_guard<std::mutex> lock(g_threads_mutex);
    for (const auto& t : g_threads) {
      for (const ThreadSpans::Raw& r : t->raw) {
        obs::TraceEvent e;
        e.name = r.name;
        e.category = "bench";
        e.ts_ns = r.ts_ns;
        e.dur_ns = r.dur_ns;
        e.tid = t->tid;
        all.push_back(e);
      }
    }
  }
  std::sort(all.begin(), all.end(), [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
    return a.ts_ns < b.ts_ns;
  });
  std::ofstream out(path);
  if (!out) return false;
  out << obs::chrome_trace(all);
  return static_cast<bool>(out);
}

}  // namespace wavm3::perfbench
