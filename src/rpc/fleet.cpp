#include "rpc/fleet.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "serve/errors.hpp"
#include "serve/scenario_key.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wavm3::rpc {

namespace {

/// Rethrows a decoded ErrorResponse as the typed exception it carries.
[[noreturn]] void rethrow_error(const ErrorResponse& err) {
  if (err.code >= kRpcErrorCodeBase) {
    throw RpcError(static_cast<RpcErrorCode>(err.code - kRpcErrorCodeBase), err.detail);
  }
  throw serve::PredictError(static_cast<serve::PredictErrorCode>(err.code), err.detail);
}

std::uint64_t scenario_mix(const core::MigrationScenario& scenario) {
  std::uint64_t h = 0x666c656574ULL;  // "fleet"
  for (const double f : serve::scenario_fields(scenario)) {
    h = util::splitmix64(h ^ std::bit_cast<std::uint64_t>(f));
  }
  return h;
}

}  // namespace

FleetClient::FleetClient(Transport& transport, FleetClientConfig config)
    : transport_(transport),
      config_(config),
      ring_(config.vnodes_per_node, config.ring_seed) {
  WAVM3_REQUIRE(config_.replication >= 1, "replication must be at least 1");
  if (config_.registry != nullptr) {
    m_requests_ = &config_.registry->counter("fleet_requests_total",
                                             "predict calls routed by the client");
    m_failovers_ = &config_.registry->counter(
        "fleet_failovers_total", "replica failovers after a transport error");
    m_publishes_ = &config_.registry->counter("fleet_publishes_total",
                                              "epoch publish rounds started");
    m_rollbacks_ = &config_.registry->counter(
        "fleet_publish_rollbacks_total", "publish rounds that rolled back");
  }
}

void FleetClient::add_node(int node) {
  ring_.add_node(node);
  nodes_.push_back(node);
  breakers_.emplace(node,
                    std::make_unique<serve::CircuitBreaker>(config_.breaker));
  for (const migration::MigrationType type :
       {migration::MigrationType::kNonLive, migration::MigrationType::kLive,
        migration::MigrationType::kPostCopy}) {
    for (const models::HostRole role : {models::HostRole::kSource, models::HostRole::kTarget}) {
      const SliceKey key{type, role};
      groups_[slice_index(key)] = ring_.replicas(key, config_.replication);
    }
  }
}

serve::CircuitBreaker& FleetClient::breaker(int node) {
  const auto it = breakers_.find(node);
  WAVM3_REQUIRE(it != breakers_.end(), "node has no breaker (not registered?)");
  return *it->second;
}

core::MigrationForecast FleetClient::predict(const core::MigrationScenario& scenario) {
  if (m_requests_ != nullptr) m_requests_->inc();
  const std::uint64_t mix = scenario_mix(scenario);
  // Slice key: the scenario's migration type plus a hash-derived role.
  // Either slice owner can price the request (a forecast covers both
  // roles); the role bit spreads one type's traffic over two groups.
  const SliceKey key{scenario.type, (mix & 1U) != 0 ? models::HostRole::kTarget
                                                    : models::HostRole::kSource};
  const std::vector<int>& group = groups_[slice_index(key)];
  if (group.empty()) {
    throw RpcError(RpcErrorCode::kNodeDown, "fleet has no nodes");
  }
  const std::vector<std::uint8_t> request =
      encode_predict_request(PredictRequest{scenario});
  // Rotate the starting replica by scenario hash so replicas share
  // load; remaining replicas are the failover chain.
  const std::size_t offset = (mix >> 1U) % group.size();
  std::string last_error;  // formatted only when a replica fails
  for (std::size_t i = 0; i < group.size(); ++i) {
    const int node = group[(offset + i) % group.size()];
    serve::CircuitBreaker& brk = breaker(node);
    if (!brk.allow()) {
      last_error = "breaker open for node " + std::to_string(node);
      continue;
    }
    try {
      const std::vector<std::uint8_t> raw = transport_.call(node, request);
      const FrameView view = decode_frame(raw);
      if (view.type == static_cast<std::uint16_t>(MsgType::kErrorResponse)) {
        // The node answered: it is healthy even though the request
        // failed. Service errors are deterministic — rethrow, don't
        // failover (every replica serves the same model).
        brk.record_success();
        rethrow_error(decode_error_response(view));
      }
      const PredictResponse resp = decode_predict_response(view);
      brk.record_success();
      return resp.forecast;
    } catch (const serve::PredictError&) {
      throw;
    } catch (const RpcError& e) {
      if (e.code() == RpcErrorCode::kRemoteError) {
        // The node answered with an application-level error (e.g. a
        // contract violation in the request): it is healthy and every
        // replica would answer the same — no failover.
        throw;
      }
      brk.record_failure();
      failovers_.fetch_add(1, std::memory_order_relaxed);
      if (m_failovers_ != nullptr) m_failovers_->inc();
      last_error = e.what();
    }
  }
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  throw RpcError(RpcErrorCode::kNodeDown,
                 "every replica failed; last: " + last_error);
}

EpochAck FleetClient::call_epoch(int node, const std::vector<std::uint8_t>& frame) {
  const std::vector<std::uint8_t> raw = transport_.call(node, frame);
  const FrameView view = decode_frame(raw);
  if (view.type == static_cast<std::uint16_t>(MsgType::kErrorResponse)) {
    rethrow_error(decode_error_response(view));
  }
  return decode_epoch_ack(view);
}

PublishReport FleetClient::publish(const core::Wavm3Model& model) {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  PublishReport report;
  report.nodes = nodes_.size();
  report.epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (m_publishes_ != nullptr) m_publishes_->inc();
  WAVM3_REQUIRE(!nodes_.empty(), "cannot publish to an empty fleet");

  EpochPrepare prepare;
  prepare.epoch = report.epoch;
  for (const migration::MigrationType type : model.fitted_types()) {
    prepare.tables.emplace_back(type, model.coefficients(type));
  }
  const std::vector<std::uint8_t> prepare_frame = encode_epoch_prepare(prepare);

  // Phase 1: stage on every node.
  std::vector<int> acked;
  std::string detail;
  for (const int node : nodes_) {
    try {
      const EpochAck ack = call_epoch(node, prepare_frame);
      if (ack.accepted) {
        acked.push_back(node);
      } else if (detail.empty()) {
        detail = "node " + std::to_string(node) + " rejected prepare: " + ack.reason;
      }
    } catch (const std::exception& e) {
      if (detail.empty()) {
        detail = "node " + std::to_string(node) + " unreachable in prepare: " + e.what();
      }
    }
  }
  report.prepare_acks = acked.size();

  const std::size_t quorum =
      config_.quorum == 0 ? nodes_.size() : std::min(config_.quorum, nodes_.size());
  const auto sweep_rollback = [&](const std::vector<int>& targets) {
    const std::vector<std::uint8_t> frame =
        encode_epoch_rollback(EpochRollback{report.epoch});
    for (const int node : targets) {
      try {
        call_epoch(node, frame);
        ++report.rollbacks_sent;
      } catch (const std::exception&) {
        // Unreachable during the sweep: its staged candidate can never
        // commit (this epoch is burned) and a committed one will be
        // superseded by the next converged round. Nothing else to do
        // over a datagram transport.
      }
    }
  };

  if (acked.size() < quorum) {
    report.detail = detail.empty() ? "quorum not reached" : detail;
    sweep_rollback(acked);
    if (m_rollbacks_ != nullptr) m_rollbacks_->inc();
    return report;
  }

  // Phase 2: commit on every acked node; any failure aborts the round
  // and undoes the commits that already landed.
  const std::vector<std::uint8_t> commit_frame =
      encode_epoch_commit(EpochCommit{report.epoch});
  std::vector<int> committed;
  bool commit_failed = false;
  for (const int node : acked) {
    try {
      const EpochAck ack = call_epoch(node, commit_frame);
      if (ack.accepted) {
        committed.push_back(node);
      } else {
        commit_failed = true;
        if (report.detail.empty()) {
          report.detail =
              "node " + std::to_string(node) + " rejected commit: " + ack.reason;
        }
      }
    } catch (const std::exception& e) {
      commit_failed = true;
      if (report.detail.empty()) {
        report.detail =
            "node " + std::to_string(node) + " unreachable in commit: " + e.what();
      }
    }
  }
  report.commit_acks = committed.size();
  if (commit_failed || committed.size() < quorum) {
    sweep_rollback(acked);
    if (m_rollbacks_ != nullptr) m_rollbacks_->inc();
    return report;
  }
  report.converged = true;
  committed_epoch_.store(report.epoch, std::memory_order_relaxed);
  return report;
}

FleetStatus FleetClient::status() {
  FleetStatus fleet;
  const std::vector<std::uint8_t> request = encode_status_request();
  std::uint64_t lo = ~0ULL;
  std::uint64_t hi = 0;
  for (const int node : nodes_) {
    NodeStatus ns;
    ns.node = node;
    try {
      const std::vector<std::uint8_t> raw = transport_.call(node, request);
      const FrameView view = decode_frame(raw);
      if (view.type == static_cast<std::uint16_t>(MsgType::kErrorResponse)) {
        rethrow_error(decode_error_response(view));
      }
      ns.status = decode_status_response(view);
      ns.reachable = true;
      lo = std::min(lo, ns.status.committed_epoch);
      hi = std::max(hi, ns.status.committed_epoch);
    } catch (const std::exception&) {
      ns.reachable = false;
    }
    fleet.nodes.push_back(ns);
  }
  fleet.epoch_lag = hi >= lo ? hi - lo : 0;
  return fleet;
}

std::uint64_t FleetClient::committed_epoch() const {
  return committed_epoch_.load(std::memory_order_relaxed);
}

}  // namespace wavm3::rpc
