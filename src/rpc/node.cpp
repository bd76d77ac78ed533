#include "rpc/node.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "serve/errors.hpp"

namespace wavm3::rpc {

namespace {

std::vector<std::uint8_t> error_frame(std::uint16_t code, const std::string& detail) {
  return encode_error_response(ErrorResponse{code, detail});
}

std::vector<std::uint8_t> ack_frame(std::uint64_t epoch, bool accepted,
                                    std::string reason = {}) {
  return encode_epoch_ack(EpochAck{epoch, accepted, std::move(reason)});
}

bool finite_table(const core::Wavm3Coefficients& table) {
  for (const core::RoleCoefficients* role : {&table.source, &table.target}) {
    for (const core::PhaseCoefficients* phase :
         {&role->initiation, &role->transfer, &role->activation}) {
      for (const double v : {phase->alpha, phase->beta, phase->gamma, phase->delta,
                             phase->c}) {
        if (!std::isfinite(v)) return false;
      }
    }
  }
  return true;
}

}  // namespace

FleetNode::FleetNode(std::shared_ptr<const core::Wavm3Model> model,
                     FleetNodeConfig config)
    : config_(config), service_(std::move(model), config.service) {
  if (config_.registry != nullptr) {
    const obs::Labels labels{{"node", std::to_string(config_.node_id)}};
    m_requests_ = &config_.registry->counter(
        "rpc_node_requests_total", "frames handled by this node", labels);
    m_errors_ = &config_.registry->counter(
        "rpc_node_errors_total", "frames answered with an error", labels);
    m_epoch_ = &config_.registry->gauge(
        "rpc_node_committed_epoch", "coefficient epoch this node serves", labels);
  }
}

std::uint64_t FleetNode::committed_epoch() const {
  return committed_epoch_.load(std::memory_order_acquire);
}

std::uint64_t FleetNode::staged_epoch() const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return staged_.has_value() ? staged_->epoch : 0;
}

std::vector<std::uint8_t> FleetNode::handle(std::span<const std::uint8_t> frame) {
  if (m_requests_ != nullptr) m_requests_->inc();
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  try {
    const FrameView view = decode_frame(frame);
    switch (static_cast<MsgType>(view.type)) {
      case MsgType::kPredictRequest: return handle_predict(view);
      case MsgType::kEpochPrepare: return handle_prepare(view);
      case MsgType::kEpochCommit: return handle_commit(view);
      case MsgType::kEpochRollback: return handle_rollback(view);
      case MsgType::kStatusRequest: return handle_status();
      default:
        throw RpcError(RpcErrorCode::kBadType,
                       "node cannot serve frame type " + std::to_string(view.type));
    }
  } catch (const RpcError& e) {
    if (m_errors_ != nullptr) m_errors_->inc();
    return error_frame(
        static_cast<std::uint16_t>(kRpcErrorCodeBase +
                                   static_cast<std::uint16_t>(e.code())),
        e.what());
  } catch (const serve::PredictError& e) {
    if (m_errors_ != nullptr) m_errors_->inc();
    return error_frame(static_cast<std::uint16_t>(e.code()), e.what());
  } catch (const std::exception& e) {
    if (m_errors_ != nullptr) m_errors_->inc();
    return error_frame(
        static_cast<std::uint16_t>(kRpcErrorCodeBase +
                                   static_cast<std::uint16_t>(RpcErrorCode::kRemoteError)),
        e.what());
  }
}

std::vector<std::uint8_t> FleetNode::handle_predict(const FrameView& frame) {
  const PredictRequest req = decode_predict_request(frame);
  const serve::CoefficientStore& store = service_.coeff_store();
  PredictResponse resp;
  for (;;) {
    // Read the stamp before and after pricing, lock-free. The answer
    // goes out only if no epoch switch and no other model swap
    // overlapped the pricing; otherwise it may have been priced with
    // coefficients other than those of the epoch read here. Every read
    // is an acquire, so none moves out of the window it checks.
    const std::uint64_t seq = switch_seq_.load(std::memory_order_acquire);
    resp.coeff_version = store.version();
    resp.forecast = service_.predict(req.scenario);
    resp.epoch = committed_epoch_.load(std::memory_order_acquire);
    if (seq % 2 == 0 && store.version() == resp.coeff_version &&
        switch_seq_.load(std::memory_order_acquire) == seq) {
      return encode_predict_response(resp);
    }
  }
}

void FleetNode::switch_epoch(std::shared_ptr<const core::Wavm3Model> model,
                             std::uint64_t epoch) {
  // Both stores in between release, so a reader that sees either one
  // also sees the sequence number odd or moved on.
  switch_seq_.fetch_add(1, std::memory_order_relaxed);
  service_.swap_model(std::move(model));
  committed_epoch_.store(epoch, std::memory_order_release);
  switch_seq_.fetch_add(1, std::memory_order_release);
  if (m_epoch_ != nullptr) m_epoch_->set(static_cast<double>(epoch));
}

std::vector<std::uint8_t> FleetNode::handle_prepare(const FrameView& frame) {
  const EpochPrepare req = decode_epoch_prepare(frame);
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  if (req.epoch <= committed_epoch_) {
    return ack_frame(req.epoch, false, "epoch is not newer than committed");
  }
  if (staged_.has_value() && staged_->epoch == req.epoch) {
    return ack_frame(req.epoch, true);  // idempotent re-prepare
  }
  if (req.epoch <= highest_seen_epoch_) {
    // Every epoch is single-use: once seen (and later rolled back or
    // superseded), replaying it could resurrect a rejected candidate.
    return ack_frame(req.epoch, false, "epoch was already used");
  }
  auto model = std::make_shared<core::Wavm3Model>();
  for (const auto& [type, table] : req.tables) {
    if (!finite_table(table)) {
      return ack_frame(req.epoch, false, "non-finite coefficient table");
    }
    model->set_coefficients(type, table);
  }
  // A newer prepare supersedes an older staged candidate (the round it
  // belonged to is over — its commit can never arrive now).
  staged_ = Staged{req.epoch, std::move(model)};
  highest_seen_epoch_ = req.epoch;
  return ack_frame(req.epoch, true);
}

std::vector<std::uint8_t> FleetNode::handle_commit(const FrameView& frame) {
  const EpochCommit req = decode_epoch_commit(frame);
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  if (committed_epoch_ == req.epoch) {
    return ack_frame(req.epoch, true);  // idempotent re-commit
  }
  if (!staged_.has_value() || staged_->epoch != req.epoch) {
    return ack_frame(req.epoch, false, "nothing staged for this epoch");
  }
  LastCommit undo;
  undo.epoch = req.epoch;
  undo.prev_epoch = committed_epoch_;
  undo.prev_model = service_.coeff_store().snapshot().model;
  switch_epoch(std::move(staged_->model), req.epoch);
  last_commit_ = std::move(undo);
  staged_.reset();
  return ack_frame(req.epoch, true);
}

std::vector<std::uint8_t> FleetNode::handle_rollback(const FrameView& frame) {
  const EpochRollback req = decode_epoch_rollback(frame);
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  if (staged_.has_value() && staged_->epoch == req.epoch) {
    staged_.reset();
    return ack_frame(req.epoch, true);
  }
  if (last_commit_.has_value() && last_commit_->epoch == req.epoch &&
      committed_epoch_ == req.epoch) {
    // The commit went through before the coordinator aborted the
    // round: undo it by swapping the remembered previous model back.
    switch_epoch(std::move(last_commit_->prev_model), last_commit_->prev_epoch);
    last_commit_.reset();
    return ack_frame(req.epoch, true);
  }
  // Nothing to undo (never prepared here, or already superseded) —
  // still an ack: rollback is the coordinator's sweep and must be
  // idempotent across every partial state.
  return ack_frame(req.epoch, true);
}

std::vector<std::uint8_t> FleetNode::handle_status() {
  StatusResponse resp;
  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    resp.committed_epoch = committed_epoch_;
    resp.staged_epoch = staged_.has_value() ? staged_->epoch : 0;
  }
  resp.coeff_version = service_.coeff_store().version();
  resp.requests_served = requests_served_.load(std::memory_order_relaxed);
  return encode_status_response(resp);
}

}  // namespace wavm3::rpc
