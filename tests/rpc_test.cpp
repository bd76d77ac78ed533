// RPC wire + codec suite: framing golden cases, a fuzz-ish sweep of
// malformed inputs (truncated at every boundary, oversize length
// prefixes, wrong version, corrupted CRC), and message round trips.
// Every malformed input must produce a typed RpcError and never read
// out of bounds — the suite runs under the ASan CI job to enforce the
// second half of that sentence.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/wavm3_model.hpp"
#include "rpc/messages.hpp"
#include "rpc/ring.hpp"
#include "rpc/wire.hpp"
#include "serve/scenario_key.hpp"

namespace wavm3::rpc {
namespace {

std::vector<std::uint8_t> payload_abc() { return {0x61, 0x62, 0x63}; }

RpcErrorCode code_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const RpcError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected an RpcError";
  return RpcErrorCode::kRemoteError;
}

TEST(Wire, Crc32MatchesKnownVectors) {
  // IEEE CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::vector<std::uint8_t> check{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926U);
  EXPECT_EQ(crc32({}), 0x00000000U);
}

TEST(Wire, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload = payload_abc();
  const std::vector<std::uint8_t> frame = encode_frame(7, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  const FrameView view = decode_frame(frame);
  EXPECT_EQ(view.type, 7);
  EXPECT_EQ(std::vector<std::uint8_t>(view.payload.begin(), view.payload.end()), payload);
}

TEST(Wire, EmptyPayloadRoundTrip) {
  const std::vector<std::uint8_t> frame = encode_frame(1, {});
  const FrameView view = decode_frame(frame);
  EXPECT_EQ(view.type, 1);
  EXPECT_TRUE(view.payload.empty());
}

// The core fuzz-ish sweep: truncate a valid frame at EVERY length
// shorter than itself. Each prefix must throw a typed error (never
// crash, never read past the span).
TEST(Wire, TruncationAtEveryBoundaryIsTyped) {
  const std::vector<std::uint8_t> frame = encode_frame(7, payload_abc());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::span<const std::uint8_t> prefix(frame.data(), len);
    try {
      decode_frame(prefix);
      FAIL() << "prefix of " << len << " bytes decoded";
    } catch (const RpcError& e) {
      // Short header -> kTruncated; full header with missing payload
      // bytes -> kTruncated too.
      EXPECT_EQ(e.code(), RpcErrorCode::kTruncated) << "at length " << len;
    }
  }
}

TEST(Wire, BadMagicRejected) {
  std::vector<std::uint8_t> frame = encode_frame(7, payload_abc());
  frame[0] ^= 0xFFU;
  EXPECT_EQ(code_of([&] { decode_frame(frame); }), RpcErrorCode::kBadMagic);
}

TEST(Wire, WrongVersionRejected) {
  std::vector<std::uint8_t> frame = encode_frame(7, payload_abc());
  frame[4] = static_cast<std::uint8_t>(kProtocolVersion + 1);
  EXPECT_EQ(code_of([&] { decode_frame(frame); }), RpcErrorCode::kBadVersion);
}

TEST(Wire, OversizeLengthPrefixRejected) {
  std::vector<std::uint8_t> frame = encode_frame(7, payload_abc());
  // Declare a payload far beyond kMaxPayloadBytes; the buffer itself
  // stays tiny, so any attempt to honour the prefix would read OOB.
  frame[8] = 0xFF;
  frame[9] = 0xFF;
  frame[10] = 0xFF;
  frame[11] = 0x7F;
  EXPECT_EQ(code_of([&] { decode_frame(frame); }), RpcErrorCode::kOversize);
}

TEST(Wire, LyingLengthPrefixWithinBoundIsTruncated) {
  std::vector<std::uint8_t> frame = encode_frame(7, payload_abc());
  // Declare 16 payload bytes (legal size) while only 3 follow.
  frame[8] = 16;
  EXPECT_EQ(code_of([&] { decode_frame(frame); }), RpcErrorCode::kTruncated);
}

TEST(Wire, TrailingBytesRejected) {
  std::vector<std::uint8_t> frame = encode_frame(7, payload_abc());
  frame.push_back(0x00);
  EXPECT_EQ(code_of([&] { decode_frame(frame); }), RpcErrorCode::kMalformedPayload);
}

TEST(Wire, CorruptedCrcRejected) {
  std::vector<std::uint8_t> frame = encode_frame(7, payload_abc());
  // Flip one payload bit: the stored CRC no longer matches.
  frame[kFrameHeaderBytes] ^= 0x01U;
  EXPECT_EQ(code_of([&] { decode_frame(frame); }), RpcErrorCode::kBadCrc);
  // Flip a CRC byte instead of the payload: same verdict.
  std::vector<std::uint8_t> frame2 = encode_frame(7, payload_abc());
  frame2[12] ^= 0x01U;
  EXPECT_EQ(code_of([&] { decode_frame(frame2); }), RpcErrorCode::kBadCrc);
}

TEST(Wire, EncodeRejectsOversizePayload) {
  const std::vector<std::uint8_t> big(kMaxPayloadBytes + 1, 0x55);
  EXPECT_EQ(code_of([&] { encode_frame(1, big); }), RpcErrorCode::kOversize);
}

TEST(Wire, ReaderScalarsAreLittleEndianAndBounded) {
  WireWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789ABCDEU);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-1234.5);
  w.str("hi");
  const std::vector<std::uint8_t>& bytes = w.bytes();
  // u16 0x3456 serializes low byte first.
  EXPECT_EQ(bytes[1], 0x56);
  EXPECT_EQ(bytes[2], 0x34);
  WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789ABCDEU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5);
  EXPECT_EQ(r.str(), "hi");
  EXPECT_NO_THROW(r.expect_done());
  // Reading past the end is typed, not UB.
  EXPECT_EQ(code_of([&] { r.u8(); }), RpcErrorCode::kMalformedPayload);
}

TEST(Wire, StringWithLyingLengthPrefixRejected) {
  WireWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8('x');    // only 1 does
  WireReader r(w.bytes());
  EXPECT_EQ(code_of([&] { r.str(); }), RpcErrorCode::kMalformedPayload);
}

core::MigrationScenario sample_scenario() {
  core::MigrationScenario sc;
  sc.type = migration::MigrationType::kLive;
  sc.vm_mem_bytes = 1.5e9;
  sc.vm_cpu_vcpus = 2.0;
  sc.vm_dirty_pages_per_s = 4000.0;
  sc.vm_working_set_pages = 120000.0;
  sc.source_cpu_load = 3.0;
  sc.source_cpu_capacity = 8.0;
  sc.target_cpu_load = 1.0;
  sc.target_cpu_capacity = 8.0;
  sc.link_payload_rate = 1.1e8;
  sc.migration.compression_ratio = 0.8;
  sc.bandwidth.min_efficiency = 0.2;
  return sc;
}

TEST(Messages, PredictRequestRoundTrip) {
  const PredictRequest msg{sample_scenario()};
  const std::vector<std::uint8_t> frame = encode_predict_request(msg);
  const PredictRequest back = decode_predict_request(decode_frame(frame));
  EXPECT_EQ(serve::scenario_fields(back.scenario), serve::scenario_fields(msg.scenario));
}

TEST(Messages, PredictRequestWithBogusTypeFieldRejected) {
  PredictRequest msg{sample_scenario()};
  std::array<double, serve::kScenarioFieldCount> fields =
      serve::scenario_fields(msg.scenario);
  fields[0] = 17.0;  // not a MigrationType
  WireWriter w;
  for (const double f : fields) w.f64(f);
  const auto frame = w.frame(static_cast<std::uint16_t>(MsgType::kPredictRequest));
  EXPECT_EQ(code_of([&] { decode_predict_request(decode_frame(frame)); }),
            RpcErrorCode::kMalformedPayload);
}

TEST(Messages, PredictResponseRoundTrip) {
  PredictResponse msg;
  msg.forecast.times = {0.0, 1.5, 20.5, 21.0};
  msg.forecast.bandwidth = 9.9e7;
  msg.forecast.total_bytes = 2.2e9;
  msg.forecast.precopy_rounds = 6;
  msg.forecast.downtime = 0.21;
  msg.forecast.degenerated_to_nonlive = true;
  msg.forecast.source_energy = 3111.0;
  msg.forecast.target_energy = 2999.5;
  for (int i = 0; i < 3; ++i) {
    msg.forecast.source_phase_energy[i] = 100.0 + i;
    msg.forecast.target_phase_energy[i] = 200.0 + i;
  }
  msg.epoch = 42;
  msg.coeff_version = 17;
  const PredictResponse back =
      decode_predict_response(decode_frame(encode_predict_response(msg)));
  EXPECT_DOUBLE_EQ(back.forecast.times.me, 21.0);
  EXPECT_DOUBLE_EQ(back.forecast.bandwidth, 9.9e7);
  EXPECT_EQ(back.forecast.precopy_rounds, 6);
  EXPECT_TRUE(back.forecast.degenerated_to_nonlive);
  EXPECT_DOUBLE_EQ(back.forecast.source_phase_energy[2], 102.0);
  EXPECT_DOUBLE_EQ(back.forecast.target_phase_energy[0], 200.0);
  EXPECT_EQ(back.epoch, 42U);
  EXPECT_EQ(back.coeff_version, 17U);
}

TEST(Messages, WrongFrameTypeIsTyped) {
  const std::vector<std::uint8_t> frame = encode_epoch_commit(EpochCommit{3});
  EXPECT_EQ(code_of([&] { decode_predict_response(decode_frame(frame)); }),
            RpcErrorCode::kBadType);
}

TEST(Messages, EpochPrepareRoundTrip) {
  EpochPrepare msg;
  msg.epoch = 9;
  core::Wavm3Coefficients table;
  table.source.transfer = {1.0, 2.0, 3.0, 4.0, 5.0};
  table.target.activation = {0.5, 0.25, 0.0, 0.0, 99.0};
  msg.tables.emplace_back(migration::MigrationType::kLive, table);
  msg.tables.emplace_back(migration::MigrationType::kNonLive, core::Wavm3Coefficients{});
  const EpochPrepare back = decode_epoch_prepare(decode_frame(encode_epoch_prepare(msg)));
  ASSERT_EQ(back.tables.size(), 2U);
  EXPECT_EQ(back.epoch, 9U);
  EXPECT_EQ(back.tables[0].first, migration::MigrationType::kLive);
  EXPECT_DOUBLE_EQ(back.tables[0].second.source.transfer.gamma, 3.0);
  EXPECT_DOUBLE_EQ(back.tables[0].second.target.activation.c, 99.0);
}

TEST(Messages, EpochPrepareWithNoTablesRejected) {
  WireWriter w;
  w.u64(4);
  w.u8(0);
  const auto frame = w.frame(static_cast<std::uint16_t>(MsgType::kEpochPrepare));
  EXPECT_EQ(code_of([&] { decode_epoch_prepare(decode_frame(frame)); }),
            RpcErrorCode::kMalformedPayload);
}

TEST(Messages, EpochPrepareWithBogusTypeIdRejected) {
  WireWriter w;
  w.u64(4);
  w.u8(1);
  w.u8(250);  // not a MigrationType
  for (int i = 0; i < 30; ++i) w.f64(0.0);
  const auto frame = w.frame(static_cast<std::uint16_t>(MsgType::kEpochPrepare));
  EXPECT_EQ(code_of([&] { decode_epoch_prepare(decode_frame(frame)); }),
            RpcErrorCode::kMalformedPayload);
}

TEST(Messages, EpochPrepareTruncatedTableRejected) {
  WireWriter w;
  w.u64(4);
  w.u8(2);  // claims two tables, carries half of one
  w.u8(0);
  for (int i = 0; i < 12; ++i) w.f64(1.0);
  const auto frame = w.frame(static_cast<std::uint16_t>(MsgType::kEpochPrepare));
  EXPECT_EQ(code_of([&] { decode_epoch_prepare(decode_frame(frame)); }),
            RpcErrorCode::kMalformedPayload);
}

TEST(Messages, AckAndStatusRoundTrip) {
  const EpochAck ack =
      decode_epoch_ack(decode_frame(encode_epoch_ack(EpochAck{5, false, "stale"})));
  EXPECT_EQ(ack.epoch, 5U);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.reason, "stale");
  StatusResponse status;
  status.committed_epoch = 3;
  status.staged_epoch = 4;
  status.coeff_version = 11;
  status.requests_served = 1234;
  const StatusResponse back =
      decode_status_response(decode_frame(encode_status_response(status)));
  EXPECT_EQ(back.committed_epoch, 3U);
  EXPECT_EQ(back.staged_epoch, 4U);
  EXPECT_EQ(back.coeff_version, 11U);
  EXPECT_EQ(back.requests_served, 1234U);
}

TEST(ScenarioFields, RoundTripsBitExactly) {
  const core::MigrationScenario sc = sample_scenario();
  const auto fields = serve::scenario_fields(sc);
  const core::MigrationScenario back = serve::scenario_from_fields(fields);
  EXPECT_EQ(serve::scenario_fields(back), fields);
}

TEST(Ring, ReplicasAreDistinctAndStable) {
  HashRing ring;
  for (int n = 0; n < 4; ++n) ring.add_node(n);
  const SliceKey key{migration::MigrationType::kLive, models::HostRole::kSource};
  const std::vector<int> group = ring.replicas(key, 2);
  ASSERT_EQ(group.size(), 2U);
  EXPECT_NE(group[0], group[1]);
  // Stable: same ring, same key, same group.
  EXPECT_EQ(ring.replicas(key, 2), group);
  // Asking for more replicas than nodes returns every node once.
  EXPECT_EQ(ring.replicas(key, 9).size(), 4U);
}

TEST(Ring, RemovalOnlyMovesAffectedSlices) {
  HashRing a;
  HashRing b;
  for (int n = 0; n < 4; ++n) {
    a.add_node(n);
    b.add_node(n);
  }
  b.remove_node(3);
  // Slices whose primary was not node 3 keep their primary.
  for (const migration::MigrationType type :
       {migration::MigrationType::kNonLive, migration::MigrationType::kLive,
        migration::MigrationType::kPostCopy}) {
    for (const models::HostRole role : {models::HostRole::kSource, models::HostRole::kTarget}) {
      const SliceKey key{type, role};
      const int before = a.replicas(key, 1).at(0);
      const int after = b.replicas(key, 1).at(0);
      if (before != 3) {
        EXPECT_EQ(after, before);
      }
    }
  }
}

TEST(Ring, EmptyRingReturnsNoReplicas) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.replicas({}, 2).empty());
}

}  // namespace
}  // namespace wavm3::rpc
