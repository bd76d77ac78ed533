// The fleet path: 4 rpc::FleetNodes, replication 2, over LoopbackTransport.
// Two closed-loop client threads call FleetClient::predict with
// Zipf(1.1) popularity over a 64-scenario catalogue, so almost every
// request is a cache hit and the rpc codec, ring, breakers, the
// transport's global mutex and the cache-hit path dominate. Every
// kPublishEvery requests the first client publishes a perturbed epoch
// (the write beside the reads). A seeded node-loss schedule, keyed on
// the global request index rather than wall time, keeps at most one
// node down. The transport and the node handlers are wrapped in timing
// decorators (the public Transport and RpcHandler interfaces).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "faults/node_outage.hpp"
#include "paths.hpp"
#include "rpc/fleet.hpp"
#include "rpc/node.hpp"
#include "rpc/transport.hpp"
#include "serve/query_stream.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace wavm3::perfbench {

namespace {

constexpr int kNodes = 4;
constexpr std::size_t kReplication = 2;
constexpr int kCatalogue = 64;
constexpr double kZipfS = 1.1;
constexpr std::size_t kDraws = 1 << 16;       ///< per-client request sequence, cycled
constexpr std::uint64_t kPublishEvery = 4096;  ///< first client's requests per publish
constexpr std::uint64_t kCheckEvery = 64;
/// Request latencies kept: one in 8, so the series' memory (and the
/// run's peak RSS) does not grow with the request rate.
constexpr std::uint64_t kKeepLatencyEvery = 8;
constexpr double kRequestsPerVirtualS = 20000.0;  ///< outage-plan time axis
constexpr double kOutageHorizonS = 20.0;
constexpr double kOutageGapS = 0.25;
constexpr std::uint64_t kOutagePoll = 256;
constexpr int kSetupRepeats = 5;

class TimedTransport final : public rpc::Transport {
 public:
  explicit TimedTransport(rpc::Transport& inner) : inner_(inner) {}
  std::vector<std::uint8_t> call(int node, std::span<const std::uint8_t> frame) override {
    BenchSpan span("rpc/transport_call");
    return inner_.call(node, frame);
  }

 private:
  rpc::Transport& inner_;
};

class TimedHandler final : public rpc::RpcHandler {
 public:
  explicit TimedHandler(rpc::RpcHandler& inner) : inner_(inner) {}
  std::vector<std::uint8_t> handle(std::span<const std::uint8_t> frame) override {
    BenchSpan span("rpc/node_handle");
    return inner_.handle(frame);
  }

 private:
  rpc::RpcHandler& inner_;
};

/// The whole fleet: nodes behind decorated handlers, the loopback
/// transport, and a client speaking through the timed transport.
struct Fleet {
  rpc::LoopbackTransport loopback;
  std::vector<std::unique_ptr<rpc::FleetNode>> nodes;
  std::vector<std::unique_ptr<TimedHandler>> handlers;
  TimedTransport transport{loopback};
  std::unique_ptr<rpc::FleetClient> client;

  Fleet(std::shared_ptr<const core::Wavm3Model> model, std::uint64_t seed) : loopback(seed) {
    for (int n = 0; n < kNodes; ++n) {
      rpc::FleetNodeConfig cfg;
      cfg.node_id = n;
      cfg.service.threads = 1;
      nodes.push_back(std::make_unique<rpc::FleetNode>(model, cfg));
      handlers.push_back(std::make_unique<TimedHandler>(*nodes.back()));
      loopback.register_node(n, handlers.back().get());
    }
    rpc::FleetClientConfig ccfg;
    ccfg.replication = kReplication;
    // As bench_fleet: a short open window readmits a recovered node
    // promptly instead of parking it for the default 5 s.
    ccfg.breaker.failure_threshold = 3;
    ccfg.breaker.open_duration_s = 1e-4;
    client = std::make_unique<rpc::FleetClient>(transport, ccfg);
    for (int n = 0; n < kNodes; ++n) client->add_node(n);
  }
};

struct Inputs {
  std::vector<core::MigrationScenario> catalogue;
  std::vector<std::uint8_t> draws[2];  ///< per client: catalogue indices
  faults::NodeOutagePlan outages;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  serve::QueryStreamOptions qo;
  in.catalogue = serve::QueryStreamGenerator::diurnal(qo, seed ^ 0x5eedf1ee7ULL).generate(kCatalogue);
  std::vector<double> cdf(kCatalogue);
  double total = 0.0;
  for (int k = 0; k < kCatalogue; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  const util::RngFactory rngs(seed);
  for (int c = 0; c < 2; ++c) {
    util::RngStream rng = rngs.stream(c == 0 ? "perfbench/fleet/zipf0" : "perfbench/fleet/zipf1");
    in.draws[c].resize(kDraws);
    for (std::uint8_t& d : in.draws[c]) {
      d = static_cast<std::uint8_t>(std::lower_bound(cdf.begin(), cdf.end(), rng.uniform()) -
                                    cdf.begin());
    }
  }
  faults::NodeOutageOptions storm;
  storm.horizon_s = kOutageHorizonS;
  storm.outages_per_node = 2;
  storm.min_down_s = 0.4;
  storm.max_down_s = 1.2;
  storm.max_concurrent_down = 1;
  // Keep only outages at least kOutageGapS of virtual time clear of each
  // other (and of the horizon's wrap): a node that just came back can
  // still sit behind an open breaker, and a second node going down then
  // would leave a slice with no usable replica.
  std::vector<faults::NodeOutage> raw = faults::NodeOutagePlan::random(kNodes, storm, seed).outages();
  std::sort(raw.begin(), raw.end(), [](const faults::NodeOutage& a, const faults::NodeOutage& b) {
    return a.down_from_s < b.down_from_s;
  });
  double free_from = kOutageGapS;
  for (const faults::NodeOutage& o : raw) {
    if (o.down_from_s < free_from || o.down_until_s > kOutageHorizonS - kOutageGapS) continue;
    in.outages.add(o);
    free_from = o.down_until_s + kOutageGapS;
  }
  return in;
}

/// Coefficients of every converged epoch, for the routed-answer check.
class EpochModels {
 public:
  explicit EpochModels(std::shared_ptr<const core::Wavm3Model> base) { models_[0] = std::move(base); }
  void add(std::uint64_t epoch, std::shared_ptr<const core::Wavm3Model> m) {
    const std::lock_guard<std::mutex> lock(mutex_);
    models_[epoch] = std::move(m);
  }
  std::shared_ptr<const core::Wavm3Model> get(std::uint64_t epoch) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = models_.find(epoch);
    return it == models_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const core::Wavm3Model>> models_;
};

struct ClientStats {
  std::uint64_t requests = 0;
  OpCounter answered;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t checked = 0;
  std::uint64_t publishes = 0;
  std::uint64_t converged = 0;
  std::uint64_t disagreements = 0;
  Windowed latency_us;
  std::vector<double> publish_ms;
};

}  // namespace

PathResult run_fleet(const Options& options, double seconds, bool /*primary*/) {
  PathResult r;
  const auto base = std::make_shared<const core::Wavm3Model>(make_model());

  std::unique_ptr<Inputs> in;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fleet.reset();
    in.reset();
    const auto t0 = Clock::now();
    in = std::make_unique<Inputs>(make_inputs(options.seed));
    fleet = std::make_unique<Fleet>(base, options.seed);
    setups.push_back(seconds_since(t0));
  }
  r.setup_s = median(setups);
  {
    Digest d;
    for (const auto& sc : in->catalogue) d.add(sc);
    for (const auto& draws : in->draws) {
      for (const std::uint8_t x : draws) d.add(static_cast<std::uint64_t>(x));
    }
    for (const faults::NodeOutage& o : in->outages.outages()) d.add(o.down_from_s);
    r.digests["fleet.inputs"] = d.hex();
    Digest a;  // routed answers under the initial epoch, before any load
    for (const auto& sc : in->catalogue) a.add(fleet->client->predict(sc));
    r.digests["fleet.answers"] = a.hex();
  }

  EpochModels epochs(base);
  std::atomic<std::uint64_t> global_requests{0};
  // Odd while a publish is in flight: nodes switch coefficients before
  // the client records the committed epoch, so a request overlapping a
  // publish has no single epoch to be checked against.
  std::atomic<std::uint64_t> publish_seq{0};
  SubWindows win;
  RateMeter answer_rate;
  ClientStats cs[2];
  rpc::FleetClient& client = *fleet->client;

  const auto client_loop = [&](int c) {
    ClientStats& st = cs[c];
    const std::vector<std::uint8_t>& draws = in->draws[c];
    std::uint64_t publish_k = 0;
    int placed_for = -1;
    for (std::size_t i = 0;; ++i) {
      const int k = win.current();
      if (k >= SubWindows::kCount) break;
      if (k != placed_for) {
        // Each client alternates between two vCPUs of its own (the first
        // and third, the second and fourth), so its figures average the
        // speed of two vCPUs of the shared machine instead of one.
        pin_current_thread(c + 2 * (k % 2));
        placed_for = k;
      }
      const std::uint64_t g = global_requests.fetch_add(1, std::memory_order_relaxed);
      if (c == 0 && i % kOutagePoll == 0) {
        // Node loss keyed on the request index: virtual time advances
        // kRequestsPerVirtualS requests per second, cycling the plan.
        const double t = std::fmod(static_cast<double>(g) / kRequestsPerVirtualS, kOutageHorizonS);
        for (int n = 0; n < kNodes; ++n) fleet->loopback.set_down(n, in->outages.down(n, t));
      }
      if (c == 0 && i > 0 && i % kPublishEvery == 0) {
        ++publish_k;
        const double scale = 1.0 + 0.01 * static_cast<double>(publish_k % 8 + 1);
        auto next = std::make_shared<const core::Wavm3Model>(make_model(scale));
        const auto t0 = Clock::now();
        rpc::PublishReport report;
        publish_seq.fetch_add(1);
        {
          BenchSpan span("rpc/publish");
          report = client.publish(*next);
        }
        publish_seq.fetch_add(1);
        st.publish_ms.push_back(ns_since(t0) / 1e6);
        ++st.publishes;
        if (report.converged) {
          ++st.converged;
          epochs.add(report.epoch, next);
        }
        BenchSpan span("bench/check_epochs");
        if (client.status().epoch_lag != 0) {
          ++st.disagreements;
          std::fprintf(stderr, "fleet: reachable nodes disagree after publish %llu\n",
                       static_cast<unsigned long long>(report.epoch));
        }
      }
      const core::MigrationScenario& sc = in->catalogue[draws[i % draws.size()]];
      const std::uint64_t seq0 = publish_seq.load();
      const std::uint64_t e0 = client.committed_epoch();
      core::MigrationForecast answer;
      const auto t0 = Clock::now();
      try {
        BenchSpan span("rpc/client_predict");
        answer = client.predict(sc);
      } catch (const std::exception& e) {
        ++st.errors;
        ++st.requests;
        std::fprintf(stderr, "fleet: request failed: %s\n", e.what());
        continue;
      }
      if (i % kKeepLatencyEvery == 0) st.latency_us.add(k, ns_since(t0) / 1e3);
      st.answered.add();
      ++st.requests;
      if (i % kCheckEvery == 0) {
        // Routed answers must equal a local forecast under the epoch
        // committed around the request (skipped if a publish raced it).
        BenchSpan span("bench/check_answer");
        if (seq0 % 2 == 0 && publish_seq.load() == seq0) {
          if (const auto m = epochs.get(e0)) {
            ++st.checked;
            if (!forecasts_match(answer, core::MigrationPlanner(*m).forecast(sc), 0.0)) {
              ++st.mismatches;
            }
          }
        }
      }
    }
  };

  reset_bench_spans();
  const auto t0 = Clock::now();
  std::thread c0(client_loop, 0);
  std::thread c1(client_loop, 1);
  win.run(seconds, [&](int k, double step_s) {
    answer_rate.mark(k, cs[0].answered.get() + cs[1].answered.get(), step_s);
  });
  c0.join();
  c1.join();
  const double window_s = seconds_since(t0);
  for (int n = 0; n < kNodes; ++n) fleet->loopback.set_down(n, false);

  std::uint64_t requests = 0;
  for (const ClientStats& st : cs) {
    requests += st.requests;
    r.failed += st.errors + st.mismatches + st.disagreements;
  }
  const ClientStats& pub = cs[0];
  r.attempted = requests + pub.publishes;
  if (cs[0].checked + cs[1].checked == 0) {
    std::fprintf(stderr, "fleet: no output check ran\n");
    ++r.failed;
  }
  r.primary_rate = answer_rate.rate();
  r.e2e["predictions_per_s"] = {r.primary_rate, "1/s"};
  r.e2e["request_p50_us"] = {pooled_quantile({&cs[0].latency_us, &cs[1].latency_us}, 0.50), "us"};
  r.e2e["request_p99_us"] = {best_window_quantile({&cs[0].latency_us, &cs[1].latency_us}, 0.99), "us"};
  r.e2e["publish_p50_ms"] = {median(pub.publish_ms), "ms"};
  std::fprintf(stderr,
               "fleet: %.1f s, %llu requests (p50 %.2f us, p99 %.2f us), %llu publishes (%llu "
               "converged, p50 %.3f ms), %llu failovers, %llu/%llu checks\n",
               window_s, static_cast<unsigned long long>(requests), r.e2e["request_p50_us"].value,
               r.e2e["request_p99_us"].value, static_cast<unsigned long long>(pub.publishes),
               static_cast<unsigned long long>(pub.converged), median(pub.publish_ms),
               static_cast<unsigned long long>(client.failovers()),
               static_cast<unsigned long long>(cs[0].checked + cs[1].checked),
               static_cast<unsigned long long>(requests / kCheckEvery));

  const LayerStats bench = bench_span_stats();
  const auto bench_stat = [&](const char* name) {
    const auto it = bench.find(name);
    return it == bench.end() ? LayerStat{} : it->second;
  };
  const LayerStat predict = bench_stat("rpc/client_predict");
  const LayerStat call = bench_stat("rpc/transport_call");
  const LayerStat handle = bench_stat("rpc/node_handle");
  const auto self_us = [](const LayerStat& s) {
    return s.count ? s.self_ns / 1e3 / static_cast<double>(s.count) : 0.0;
  };
  r.layers["rpc.client_self_us"] = {self_us(predict), "us"};
  r.layers["rpc.transport_self_us"] = {self_us(call), "us"};
  r.layers["rpc.node_handle_us"] = {handle.mean_us(), "us"};
  const double failovers = static_cast<double>(client.failovers());
  r.layers["rpc.failovers"] = {failovers, "count"};
  r.layers["rpc.failover_ratio"] = {requests ? failovers / static_cast<double>(requests) : 0.0, "ratio"};
  r.layers["rpc.exhausted"] = {static_cast<double>(client.exhausted()), "count"};
  r.layers["rpc.publish_converged_ratio"] = {
      pub.publishes ? static_cast<double>(pub.converged) / static_cast<double>(pub.publishes) : 0.0,
      "ratio"};
  r.layers["rpc.publish_rollbacks"] = {static_cast<double>(pub.publishes - pub.converged), "count"};
  {
    // The nodes' result caches: the Zipf reads make almost every
    // request a hit, the opposite of serve_live's all-distinct batches.
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const auto& node : fleet->nodes) {
      const serve::CacheStats c = node->service().stats().cache;
      hits += c.hits;
      lookups += c.hits + c.misses;
    }
    r.layers["rpc.cache_hit_ratio"] = {
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0, "ratio"};
  }
  fleet.reset();
  return r;
}

}  // namespace wavm3::perfbench
