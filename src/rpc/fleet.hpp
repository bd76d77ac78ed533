// Fleet-side client: consistent-hash routing with replica failover,
// per-node circuit breakers, and the coordinator half of the epoch
// propagation protocol.
//
// Routing: a predict request routes by its (migration type, role)
// coefficient slice — the role half of the key is derived from the
// scenario hash, spreading each type's traffic over both of its slice
// owners (a forecast prices both roles, so either slice owner can
// serve it; the key exists to partition load, not data). The slice's
// replica group comes off the HashRing; candidates are tried in
// rotation (scenario-hash offset) so replicas share load, and a
// transport failure fails over to the next replica. Per-node circuit
// breakers (the PR 2 ladder) trip on repeated transport failures, so
// a sick node is skipped without paying a probe on every request;
// half-open probes bring it back once it recovers.
//
// Epoch publish (reusing PR 5's gated-publish store on each node):
//   1. prepare(e, tables) to every registered node; collect acks.
//   2. acks < quorum        -> rollback(e) everywhere; not converged.
//      acks >= quorum       -> commit(e) to every acked node.
//   3. any commit failure   -> rollback(e) everywhere (undoing the
//      commits that did land); not converged.
//      all commits acked    -> converged: the fleet serves epoch e.
// The default quorum is *all registered nodes*: with replicated
// slices, a node serving stale coefficients is a correctness hazard,
// so partial convergence is treated as failure and rolled back. Under
// node loss this yields the all-or-nothing property the fleet bench
// gates on: after any publish attempt, every *reachable* node serves
// the same epoch.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/messages.hpp"
#include "rpc/ring.hpp"
#include "rpc/transport.hpp"
#include "serve/breaker.hpp"

namespace wavm3::rpc {

struct FleetClientConfig {
  /// Replicas per coefficient slice (clamped to the node count).
  std::size_t replication = 2;
  int vnodes_per_node = 64;
  std::uint64_t ring_seed = 2015;
  /// Per-node breaker guarding transport calls.
  serve::CircuitBreakerConfig breaker = {};
  /// Prepare acks required to commit; 0 = every registered node.
  std::size_t quorum = 0;
  /// Registry for the fleet_* client metrics. Null = none.
  obs::MetricRegistry* registry = nullptr;
};

/// Outcome of one epoch publish round.
struct PublishReport {
  std::uint64_t epoch = 0;
  std::size_t nodes = 0;          ///< registered at publish time
  std::size_t prepare_acks = 0;
  std::size_t commit_acks = 0;
  std::size_t rollbacks_sent = 0;
  bool converged = false;
  std::string detail;             ///< why the round failed, when it did
};

struct NodeStatus {
  int node = 0;
  bool reachable = false;
  StatusResponse status;
};

struct FleetStatus {
  std::vector<NodeStatus> nodes;
  /// Max committed-epoch spread across reachable nodes (0 = every
  /// reachable node serves the same epoch — the staleness-convergence
  /// property the bench gates on).
  std::uint64_t epoch_lag = 0;
};

class FleetClient {
 public:
  explicit FleetClient(Transport& transport, FleetClientConfig config = {});

  /// Registers a node address and recomputes every slice's replica
  /// group. Setup-phase only: call before serving traffic (the groups
  /// are read lock-free on the predict path).
  void add_node(int node);
  std::size_t node_count() const { return nodes_.size(); }

  /// Routes the scenario to its slice's replica group and returns the
  /// first replica's answer, failing over on transport errors. Typed
  /// service failures (ErrorResponse carrying a PredictErrorCode) are
  /// rethrown as serve::PredictError without failover — they are
  /// deterministic answers, not node failures. Throws
  /// RpcError(kNodeDown) when every replica is unreachable.
  core::MigrationForecast predict(const core::MigrationScenario& scenario);

  /// Two-phase publish of `model`'s coefficient tables as the next
  /// epoch. Serialized internally; safe to call from any thread.
  PublishReport publish(const core::Wavm3Model& model);

  /// Polls every node. Cheap enough to call mid-bench.
  FleetStatus status();

  /// Highest epoch a publish round has converged on.
  std::uint64_t committed_epoch() const;

  std::uint64_t failovers() const { return failovers_.load(std::memory_order_relaxed); }
  std::uint64_t exhausted() const { return exhausted_.load(std::memory_order_relaxed); }

 private:
  EpochAck call_epoch(int node, const std::vector<std::uint8_t>& frame);
  serve::CircuitBreaker& breaker(int node);

  Transport& transport_;
  FleetClientConfig config_;
  HashRing ring_;
  std::vector<int> nodes_;
  /// Replica group of every (migration type, host role) slice, indexed
  /// by slice_index(); rebuilt by add_node.
  std::array<std::vector<int>, kSliceCount> groups_;
  std::map<int, std::unique_ptr<serve::CircuitBreaker>> breakers_;

  std::mutex publish_mutex_;
  std::atomic<std::uint64_t> next_epoch_{0};
  std::atomic<std::uint64_t> committed_epoch_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> exhausted_{0};

  obs::Counter* m_requests_ = nullptr;   ///< fleet_requests_total
  obs::Counter* m_failovers_ = nullptr;  ///< fleet_failovers_total
  obs::Counter* m_publishes_ = nullptr;  ///< fleet_publishes_total
  obs::Counter* m_rollbacks_ = nullptr;  ///< fleet_publish_rollbacks_total
};

}  // namespace wavm3::rpc
