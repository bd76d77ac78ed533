#include "rpc/transport.hpp"

#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavm3::rpc {

void LoopbackTransport::register_node(int node, RpcHandler* handler) {
  WAVM3_REQUIRE(handler != nullptr, "handler must not be null");
  WAVM3_REQUIRE(endpoints_.find(node) == endpoints_.end(),
                "node id is already registered");
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->handler = handler;
  endpoints_.emplace(node, std::move(endpoint));
}

LoopbackTransport::Endpoint& LoopbackTransport::endpoint(int node) const {
  const auto it = endpoints_.find(node);
  if (it == endpoints_.end()) {
    throw RpcError(RpcErrorCode::kNodeDown, "no node " + std::to_string(node));
  }
  return *it->second;  // the table is frozen; knobs are atomics
}

void LoopbackTransport::set_down(int node, bool value) {
  endpoint(node).down.store(value, std::memory_order_relaxed);
}

bool LoopbackTransport::down(int node) const {
  return endpoint(node).down.load(std::memory_order_relaxed);
}

void LoopbackTransport::set_drop_rate(int node, double rate) {
  WAVM3_REQUIRE(rate >= 0.0 && rate <= 1.0, "drop rate must be in [0, 1]");
  endpoint(node).drop_rate.store(rate, std::memory_order_relaxed);
}

std::uint64_t LoopbackTransport::calls(int node) const {
  return endpoint(node).calls.load(std::memory_order_relaxed);
}

std::uint64_t LoopbackTransport::failures(int node) const {
  return endpoint(node).failures.load(std::memory_order_relaxed);
}

std::vector<std::uint8_t> LoopbackTransport::call(int node,
                                                  std::span<const std::uint8_t> frame) {
  Endpoint& ep = endpoint(node);
  ep.calls.fetch_add(1, std::memory_order_relaxed);
  if (ep.down.load(std::memory_order_relaxed)) {
    ep.failures.fetch_add(1, std::memory_order_relaxed);
    throw RpcError(RpcErrorCode::kNodeDown, "node " + std::to_string(node) + " is down");
  }
  const double drop = ep.drop_rate.load(std::memory_order_relaxed);
  if (drop > 0.0) {
    // The k-th drop decision ever taken gets the k-th draw of the
    // seeded stream — deterministic modulo thread interleaving.
    const std::uint64_t ticket = drop_ticket_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t bits = util::splitmix64(
        drop_seed_ ^ (static_cast<std::uint64_t>(static_cast<unsigned>(node)) << 32U) ^
        ticket);
    const double unit = static_cast<double>(bits >> 11U) * 0x1.0p-53;  // [0, 1)
    if (unit < drop) {
      ep.failures.fetch_add(1, std::memory_order_relaxed);
      throw RpcError(RpcErrorCode::kTimeout,
                     "call to node " + std::to_string(node) + " dropped in transit");
    }
  }
  return ep.handler->handle(frame);
}

}  // namespace wavm3::rpc
