// One fleet member: a serve::PredictionService behind an RpcHandler,
// plus the node-side half of the epoch propagation protocol.
//
// Epoch state machine (driven by FleetClient's two-phase publish):
//
//   prepare(e, tables): validate + stage a candidate model for epoch
//     e. Rejected when e is not newer than anything seen (replaying a
//     rolled-back epoch is forbidden — epochs are single-use). A
//     newer prepare supersedes an older staged candidate, so a
//     coordinator that lost a round can always start the next one.
//   commit(e): swap the staged model into the live coefficient store
//     (PR 5's gated-publish machinery: the version bump self-
//     invalidates every cache entry), remember the previous model so
//     the commit can be undone. Idempotent for the committed epoch.
//   rollback(e): discard the staged candidate, or — when e was already
//     committed — swap the previous model back. Idempotent; rolling
//     back an epoch this node never saw is a no-op ack (the
//     coordinator must be able to sweep a partially prepared fleet).
//
// Per-node metrics live in the shared fleet registry under a
// {"node": "<id>"} label, so one scrape shows the whole fleet.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/messages.hpp"
#include "rpc/transport.hpp"
#include "serve/service.hpp"

namespace wavm3::rpc {

struct FleetNodeConfig {
  int node_id = 0;
  serve::ServiceConfig service = {};
  /// Fleet-shared registry for the per-node labeled metrics. Null =
  /// metrics only in the node's own service registry.
  obs::MetricRegistry* registry = nullptr;
};

class FleetNode final : public RpcHandler {
 public:
  FleetNode(std::shared_ptr<const core::Wavm3Model> model, FleetNodeConfig config);

  /// Dispatches one request frame. Never throws: every failure —
  /// malformed frame, unknown type, service error — is answered with
  /// an ErrorResponse frame.
  std::vector<std::uint8_t> handle(std::span<const std::uint8_t> frame) override;

  serve::PredictionService& service() { return service_; }
  int id() const { return config_.node_id; }

  // Test support: probes of the epoch protocol's state.
  std::uint64_t committed_epoch() const;
  /// 0 when nothing is staged.
  std::uint64_t staged_epoch() const;

 private:
  std::vector<std::uint8_t> handle_predict(const FrameView& frame);
  std::vector<std::uint8_t> handle_prepare(const FrameView& frame);
  std::vector<std::uint8_t> handle_commit(const FrameView& frame);
  std::vector<std::uint8_t> handle_rollback(const FrameView& frame);
  std::vector<std::uint8_t> handle_status();

  struct Staged {
    std::uint64_t epoch = 0;
    std::shared_ptr<const core::Wavm3Model> model;
  };
  struct LastCommit {
    std::uint64_t epoch = 0;
    std::uint64_t prev_epoch = 0;
    std::shared_ptr<const core::Wavm3Model> prev_model;
  };

  /// Swaps `model` in and makes `epoch` the committed one, as one step
  /// for handle_predict's lock-free stamp check. Caller holds
  /// epoch_mutex_.
  void switch_epoch(std::shared_ptr<const core::Wavm3Model> model, std::uint64_t epoch);

  FleetNodeConfig config_;
  serve::PredictionService service_;

  /// Serializes the epoch state machine; predicts never take it.
  mutable std::mutex epoch_mutex_;
  /// Written only by switch_epoch; read lock-free.
  std::atomic<std::uint64_t> committed_epoch_{0};
  /// Odd while switch_epoch runs. A predict whose pricing overlapped a
  /// switch sees it move and prices again, so every answer carries the
  /// epoch and store version whose coefficients priced it.
  std::atomic<std::uint64_t> switch_seq_{0};
  std::uint64_t highest_seen_epoch_ = 0;
  std::optional<Staged> staged_;
  std::optional<LastCommit> last_commit_;

  std::atomic<std::uint64_t> requests_served_{0};

  obs::Counter* m_requests_ = nullptr;   ///< rpc_node_requests_total{node}
  obs::Counter* m_errors_ = nullptr;     ///< rpc_node_errors_total{node}
  obs::Gauge* m_epoch_ = nullptr;        ///< rpc_node_committed_epoch{node}
};

}  // namespace wavm3::rpc
