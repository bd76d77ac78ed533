// Node-addressed request/response transport abstraction.
//
// The fleet layers (FleetClient, FleetNode) speak frames to integer
// node addresses through Transport; the only implementation today is
// the in-process LoopbackTransport, which dispatches calls straight
// into registered handlers on the caller's thread. The interface is
// deliberately datagram-shaped (one frame in, one frame out, typed
// failures) so a socket transport slots in without touching the fleet
// logic.
//
// Fault injection: LoopbackTransport can take nodes down and drop a
// seeded deterministic fraction of calls — the substrate for the node
// -loss storms of bench_fleet and the fleet tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "rpc/wire.hpp"

namespace wavm3::rpc {

/// Server side of a transport endpoint: consumes a request frame,
/// produces a response frame. Implementations must be thread-safe —
/// the transport may deliver concurrently.
class RpcHandler {
 public:
  virtual ~RpcHandler() = default;
  virtual std::vector<std::uint8_t> handle(std::span<const std::uint8_t> frame) = 0;
};

/// Client side: sends one frame to `node`, returns the response frame.
/// Throws RpcError(kNodeDown) when the node is unreachable and
/// RpcError(kTimeout) when delivery fails in transit.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::vector<std::uint8_t> call(int node, std::span<const std::uint8_t> frame) = 0;
};

/// In-process transport: call() runs the target handler inline.
///
/// register_node() is setup-phase only: every registration must
/// happen before any other member is called, and the endpoint table is
/// frozen from then on, so call() finds its endpoint without a lock.
/// The fault knobs (set_down / set_drop_rate) are atomics and safe to
/// flip mid-traffic — that is their whole point.
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(std::uint64_t drop_seed = 2015) : drop_seed_(drop_seed) {}

  /// Registers `handler` as node `node`. The handler must outlive the
  /// transport's traffic. Re-registering an id is rejected.
  void register_node(int node, RpcHandler* handler);

  /// Marks a node unreachable (calls throw kNodeDown) or back up.
  void set_down(int node, bool down);
  // Test support: reads the knob set_down() flips.
  bool down(int node) const;

  // Test support: no production path drops calls.
  /// Fraction of calls to `node` dropped in transit (throw kTimeout)
  /// after reaching a live node, drawn from a seeded deterministic
  /// stream. Models a flaky path rather than a dead node.
  void set_drop_rate(int node, double rate);

  std::vector<std::uint8_t> call(int node, std::span<const std::uint8_t> frame) override;

  // Test support: per-node call and failure counters.
  std::uint64_t calls(int node) const;
  std::uint64_t failures(int node) const;

 private:
  struct Endpoint {
    RpcHandler* handler = nullptr;
    std::atomic<bool> down{false};
    std::atomic<double> drop_rate{0.0};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> failures{0};
  };

  Endpoint& endpoint(int node) const;

  std::map<int, std::unique_ptr<Endpoint>> endpoints_;  ///< frozen after set-up
  std::uint64_t drop_seed_;
  std::atomic<std::uint64_t> drop_ticket_{0};
};

}  // namespace wavm3::rpc
