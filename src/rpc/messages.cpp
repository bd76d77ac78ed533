#include "rpc/messages.hpp"

#include <utility>

#include "serve/scenario_key.hpp"

namespace wavm3::rpc {

namespace {

/// Payload sizes, so each encoder's writer allocates once: a forecast
/// is 15 doubles, the round count (u32), the degeneration flag (u8),
/// then epoch and store version (u64 each); a coefficient table is 2
/// roles x 3 phases x 5 doubles.
constexpr std::size_t kPredictResponseBytes = 15 * 8 + 4 + 1 + 2 * 8;
constexpr std::size_t kTableDoubles = 2 * 3 * 5;

void check_type(const FrameView& frame, MsgType expected) {
  if (frame.type != static_cast<std::uint16_t>(expected)) {
    throw RpcError(RpcErrorCode::kBadType,
                   "frame type " + std::to_string(frame.type) + ", expected " +
                       std::to_string(static_cast<std::uint16_t>(expected)));
  }
}

void put_phase(WireWriter& w, const core::PhaseCoefficients& p) {
  w.f64(p.alpha);
  w.f64(p.beta);
  w.f64(p.gamma);
  w.f64(p.delta);
  w.f64(p.c);
}

core::PhaseCoefficients get_phase(WireReader& r) {
  core::PhaseCoefficients p;
  p.alpha = r.f64();
  p.beta = r.f64();
  p.gamma = r.f64();
  p.delta = r.f64();
  p.c = r.f64();
  return p;
}

void put_role(WireWriter& w, const core::RoleCoefficients& role) {
  put_phase(w, role.initiation);
  put_phase(w, role.transfer);
  put_phase(w, role.activation);
}

core::RoleCoefficients get_role(WireReader& r) {
  core::RoleCoefficients role;
  role.initiation = get_phase(r);
  role.transfer = get_phase(r);
  role.activation = get_phase(r);
  return role;
}

/// Hands the writer's frame out with the message type stamped in.
std::vector<std::uint8_t> finish(WireWriter&& w, MsgType type) {
  return std::move(w).frame(static_cast<std::uint16_t>(type));
}

migration::MigrationType get_migration_type(WireReader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > static_cast<std::uint8_t>(migration::MigrationType::kPostCopy)) {
    throw RpcError(RpcErrorCode::kMalformedPayload,
                   "migration type id " + std::to_string(raw));
  }
  return static_cast<migration::MigrationType>(raw);
}

}  // namespace

std::vector<std::uint8_t> encode_predict_request(const PredictRequest& msg) {
  WireWriter w(serve::kScenarioFieldCount * 8);
  for (const double f : serve::scenario_fields(msg.scenario)) w.f64(f);
  return finish(std::move(w), MsgType::kPredictRequest);
}

PredictRequest decode_predict_request(const FrameView& frame) {
  check_type(frame, MsgType::kPredictRequest);
  WireReader r(frame.payload);
  std::array<double, serve::kScenarioFieldCount> fields{};
  for (double& f : fields) f = r.f64();
  r.expect_done();
  PredictRequest msg;
  // scenario_from_fields validates the type discriminant; surface its
  // contract failure as a payload defect, not a server crash.
  try {
    msg.scenario = serve::scenario_from_fields(fields);
  } catch (const std::exception& e) {
    throw RpcError(RpcErrorCode::kMalformedPayload, e.what());
  }
  return msg;
}

std::vector<std::uint8_t> encode_predict_response(const PredictResponse& msg) {
  WireWriter w(kPredictResponseBytes);
  const core::MigrationForecast& f = msg.forecast;
  w.f64(f.times.ms);
  w.f64(f.times.ts);
  w.f64(f.times.te);
  w.f64(f.times.me);
  w.f64(f.bandwidth);
  w.f64(f.total_bytes);
  w.u32(static_cast<std::uint32_t>(f.precopy_rounds));
  w.f64(f.downtime);
  w.u8(f.degenerated_to_nonlive ? 1 : 0);
  w.f64(f.source_energy);
  w.f64(f.target_energy);
  for (const double e : f.source_phase_energy) w.f64(e);
  for (const double e : f.target_phase_energy) w.f64(e);
  w.u64(msg.epoch);
  w.u64(msg.coeff_version);
  return finish(std::move(w), MsgType::kPredictResponse);
}

PredictResponse decode_predict_response(const FrameView& frame) {
  check_type(frame, MsgType::kPredictResponse);
  WireReader r(frame.payload);
  PredictResponse msg;
  core::MigrationForecast& f = msg.forecast;
  f.times.ms = r.f64();
  f.times.ts = r.f64();
  f.times.te = r.f64();
  f.times.me = r.f64();
  f.bandwidth = r.f64();
  f.total_bytes = r.f64();
  f.precopy_rounds = static_cast<int>(r.u32());
  f.downtime = r.f64();
  f.degenerated_to_nonlive = r.u8() != 0;
  f.source_energy = r.f64();
  f.target_energy = r.f64();
  for (double& e : f.source_phase_energy) e = r.f64();
  for (double& e : f.target_phase_energy) e = r.f64();
  msg.epoch = r.u64();
  msg.coeff_version = r.u64();
  r.expect_done();
  return msg;
}

std::vector<std::uint8_t> encode_error_response(const ErrorResponse& msg) {
  WireWriter w(2 + 4 + msg.detail.size());
  w.u16(msg.code);
  w.str(msg.detail);
  return finish(std::move(w), MsgType::kErrorResponse);
}

ErrorResponse decode_error_response(const FrameView& frame) {
  check_type(frame, MsgType::kErrorResponse);
  WireReader r(frame.payload);
  ErrorResponse msg;
  msg.code = r.u16();
  msg.detail = r.str();
  r.expect_done();
  return msg;
}

std::vector<std::uint8_t> encode_epoch_prepare(const EpochPrepare& msg) {
  WireWriter w(8 + 1 + msg.tables.size() * (1 + kTableDoubles * 8));
  w.u64(msg.epoch);
  w.u8(static_cast<std::uint8_t>(msg.tables.size()));
  for (const auto& [type, table] : msg.tables) {
    w.u8(static_cast<std::uint8_t>(type));
    put_role(w, table.source);
    put_role(w, table.target);
  }
  return finish(std::move(w), MsgType::kEpochPrepare);
}

EpochPrepare decode_epoch_prepare(const FrameView& frame) {
  check_type(frame, MsgType::kEpochPrepare);
  WireReader r(frame.payload);
  EpochPrepare msg;
  msg.epoch = r.u64();
  const std::uint8_t count = r.u8();
  if (count == 0) {
    throw RpcError(RpcErrorCode::kMalformedPayload, "prepare carries no tables");
  }
  msg.tables.reserve(count);
  for (std::uint8_t i = 0; i < count; ++i) {
    const migration::MigrationType type = get_migration_type(r);
    core::Wavm3Coefficients table;
    table.source = get_role(r);
    table.target = get_role(r);
    msg.tables.emplace_back(type, table);
  }
  r.expect_done();
  return msg;
}

std::vector<std::uint8_t> encode_epoch_commit(const EpochCommit& msg) {
  WireWriter w(8);
  w.u64(msg.epoch);
  return finish(std::move(w), MsgType::kEpochCommit);
}

EpochCommit decode_epoch_commit(const FrameView& frame) {
  check_type(frame, MsgType::kEpochCommit);
  WireReader r(frame.payload);
  EpochCommit msg;
  msg.epoch = r.u64();
  r.expect_done();
  return msg;
}

std::vector<std::uint8_t> encode_epoch_rollback(const EpochRollback& msg) {
  WireWriter w(8);
  w.u64(msg.epoch);
  return finish(std::move(w), MsgType::kEpochRollback);
}

EpochRollback decode_epoch_rollback(const FrameView& frame) {
  check_type(frame, MsgType::kEpochRollback);
  WireReader r(frame.payload);
  EpochRollback msg;
  msg.epoch = r.u64();
  r.expect_done();
  return msg;
}

std::vector<std::uint8_t> encode_epoch_ack(const EpochAck& msg) {
  WireWriter w(8 + 1 + 4 + msg.reason.size());
  w.u64(msg.epoch);
  w.u8(msg.accepted ? 1 : 0);
  w.str(msg.reason);
  return finish(std::move(w), MsgType::kEpochAck);
}

EpochAck decode_epoch_ack(const FrameView& frame) {
  check_type(frame, MsgType::kEpochAck);
  WireReader r(frame.payload);
  EpochAck msg;
  msg.epoch = r.u64();
  msg.accepted = r.u8() != 0;
  msg.reason = r.str();
  r.expect_done();
  return msg;
}

std::vector<std::uint8_t> encode_status_request() {
  return finish(WireWriter{}, MsgType::kStatusRequest);
}

std::vector<std::uint8_t> encode_status_response(const StatusResponse& msg) {
  WireWriter w(4 * 8);
  w.u64(msg.committed_epoch);
  w.u64(msg.staged_epoch);
  w.u64(msg.coeff_version);
  w.u64(msg.requests_served);
  return finish(std::move(w), MsgType::kStatusResponse);
}

StatusResponse decode_status_response(const FrameView& frame) {
  check_type(frame, MsgType::kStatusResponse);
  WireReader r(frame.payload);
  StatusResponse msg;
  msg.committed_epoch = r.u64();
  msg.staged_epoch = r.u64();
  msg.coeff_version = r.u64();
  msg.requests_served = r.u64();
  r.expect_done();
  return msg;
}

}  // namespace wavm3::rpc
