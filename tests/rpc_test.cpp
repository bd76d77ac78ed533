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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/wavm3_model.hpp"
#include "rpc/messages.hpp"
#include "rpc/ring.hpp"
#include "rpc/wire.hpp"
#include "serve/scenario_key.hpp"

namespace wavm3::rpc {
namespace {

std::vector<std::uint8_t> payload_abc() { return {0x61, 0x62, 0x63}; }

/// A frame around raw payload bytes, built the way every message is.
std::vector<std::uint8_t> encode_frame(std::uint16_t type,
                                       std::span<const std::uint8_t> payload) {
  WireWriter w(payload.size());
  for (const std::uint8_t b : payload) w.u8(b);
  return std::move(w).frame(type);
}

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
  const std::span<const std::uint8_t> bytes = w.bytes();
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
  const auto frame = std::move(w).frame(static_cast<std::uint16_t>(MsgType::kPredictRequest));
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
  const auto frame = std::move(w).frame(static_cast<std::uint16_t>(MsgType::kEpochPrepare));
  EXPECT_EQ(code_of([&] { decode_epoch_prepare(decode_frame(frame)); }),
            RpcErrorCode::kMalformedPayload);
}

TEST(Messages, EpochPrepareWithBogusTypeIdRejected) {
  WireWriter w;
  w.u64(4);
  w.u8(1);
  w.u8(250);  // not a MigrationType
  for (int i = 0; i < 30; ++i) w.f64(0.0);
  const auto frame = std::move(w).frame(static_cast<std::uint16_t>(MsgType::kEpochPrepare));
  EXPECT_EQ(code_of([&] { decode_epoch_prepare(decode_frame(frame)); }),
            RpcErrorCode::kMalformedPayload);
}

TEST(Messages, EpochPrepareTruncatedTableRejected) {
  WireWriter w;
  w.u64(4);
  w.u8(2);  // claims two tables, carries half of one
  w.u8(0);
  for (int i = 0; i < 12; ++i) w.f64(1.0);
  const auto frame = std::move(w).frame(static_cast<std::uint16_t>(MsgType::kEpochPrepare));
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

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4U];
    out += kDigits[b & 0x0FU];
  }
  return out;
}

core::Wavm3Coefficients distinct_table(double base) {
  // Every coefficient distinct and inexact in binary, so each of the
  // 30 doubles exercises all 8 of its bytes on the wire.
  core::Wavm3Coefficients t;
  double v = base;
  for (core::RoleCoefficients* role : {&t.source, &t.target}) {
    for (core::PhaseCoefficients* phase :
         {&role->initiation, &role->transfer, &role->activation}) {
      for (double* c : {&phase->alpha, &phase->beta, &phase->gamma, &phase->delta, &phase->c}) {
        *c = v / 3.0;
        v += 1.0;
      }
    }
  }
  return t;
}

// One frame of every MsgType, pinned to the bytes version 1 of the
// protocol put on the wire. A faster codec must reproduce them exactly.
TEST(Wire, FramesAreByteIdenticalToVersion1) {
  EXPECT_EQ(hex(encode_predict_request(PredictRequest{sample_scenario()})),
            "334d5657010001000801000051a49103000000000000f03f000000c00b5ad641"
            "0000000000000040000000000040af4000000000004cfd400000000000000840"
            "0000000000002040000000000000f03f000000000000204000000000de399a41"
            "000000000000084000000000000009410000000000003d400000000000000840"
            "000000000000904100000000000000000000000084d767410000000084d75741"
            "000000000000d03f9a9999999999c93f9a9999999999e93f333333333333f33f"
            "333333333333e33fcdccccccccccec3f000000000000e03f000000000000e03f"
            "9a9999999999e93f9a9999999999e93f00000000000000400000000000000c40"
            "9a9999999999d93f9a9999999999c93f0000000000000040");

  PredictResponse resp;
  resp.forecast.times = {0.125, 1.0 / 3.0, 20.5, 21.0 + 1.0 / 7.0};
  resp.forecast.bandwidth = 9.9e7;
  resp.forecast.total_bytes = 2.2e9;
  resp.forecast.precopy_rounds = 6;
  resp.forecast.downtime = 0.21;
  resp.forecast.degenerated_to_nonlive = true;
  resp.forecast.source_energy = 3111.0 / 7.0;
  resp.forecast.target_energy = -2999.5;
  for (int i = 0; i < 3; ++i) {
    resp.forecast.source_phase_energy[i] = 100.0 / (i + 3);
    resp.forecast.target_phase_energy[i] = 200.0 + i / 9.0;
  }
  resp.epoch = 0x0102030405060708ULL;
  resp.coeff_version = 17;
  EXPECT_EQ(hex(encode_predict_response(resp)),
            "334d5657010002008d0000001bad0b2c000000000000c03f555555555555d53f"
            "00000000008034404992244992243540000000007b9a9741000000c02a64e041"
            "06000000e17a14ae47e1ca3f016edbb66ddbc67b4000000000006fa7c0abaaaa"
            "aaaaaa4040000000000000394000000000000034400000000000006940398ee3"
            "388e036940721cc7711c07694008070605040302011100000000000000");

  EXPECT_EQ(hex(encode_error_response(ErrorResponse{kRpcErrorCodeBase + 4, "checksum"})),
            "334d5657010003000e0000005459c0a8040108000000636865636b73756d");

  EpochPrepare prepare;
  prepare.epoch = 9;
  prepare.tables.emplace_back(migration::MigrationType::kNonLive, distinct_table(1.0));
  prepare.tables.emplace_back(migration::MigrationType::kLive, distinct_table(31.0));
  prepare.tables.emplace_back(migration::MigrationType::kPostCopy, distinct_table(61.0));
  EXPECT_EQ(hex(encode_epoch_prepare(prepare)),
            "334d565701000400dc0200007e01b35209000000000000000300555555555555"
            "d53f555555555555e53f000000000000f03f555555555555f53fabaaaaaaaaaa"
            "fa3f0000000000000040abaaaaaaaaaa02405555555555550540000000000000"
            "0840abaaaaaaaaaa0a405555555555550d400000000000001040555555555555"
            "1140abaaaaaaaaaa124000000000000014405555555555551540abaaaaaaaaaa"
            "164000000000000018405555555555551940abaaaaaaaaaa1a40000000000000"
            "1c405555555555551d40abaaaaaaaaaa1e400000000000002040abaaaaaaaaaa"
            "204055555555555521400000000000002240abaaaaaaaaaa2240555555555555"
            "2340000000000000244001abaaaaaaaaaa244055555555555525400000000000"
            "002640abaaaaaaaaaa264055555555555527400000000000002840abaaaaaaaa"
            "aa284055555555555529400000000000002a40abaaaaaaaaaa2a405555555555"
            "552b400000000000002c40abaaaaaaaaaa2c405555555555552d400000000000"
            "002e40abaaaaaaaaaa2e405555555555552f4000000000000030405555555555"
            "553040abaaaaaaaaaa304000000000000031405555555555553140abaaaaaaaa"
            "aa314000000000000032405555555555553240abaaaaaaaaaa32400000000000"
            "0033405555555555553340abaaaaaaaaaa334000000000000034400255555555"
            "55553440abaaaaaaaaaa344000000000000035405555555555553540abaaaaaa"
            "aaaa354000000000000036405555555555553640abaaaaaaaaaa364000000000"
            "000037405555555555553740abaaaaaaaaaa3740000000000000384055555555"
            "55553840abaaaaaaaaaa384000000000000039405555555555553940abaaaaaa"
            "aaaa39400000000000003a405555555555553a40abaaaaaaaaaa3a4000000000"
            "00003b405555555555553b40abaaaaaaaaaa3b400000000000003c4055555555"
            "55553c40abaaaaaaaaaa3c400000000000003d405555555555553d40abaaaaaa"
            "aaaa3d400000000000003e40");

  EXPECT_EQ(hex(encode_epoch_commit(EpochCommit{10})),
            "334d56570100050008000000a1c3e2f40a00000000000000");
  EXPECT_EQ(hex(encode_epoch_rollback(EpochRollback{0xFEDCBA9876543210ULL})),
            "334d5657010006000800000032e25d001032547698badcfe");
  EXPECT_EQ(hex(encode_epoch_ack(EpochAck{11, false, "epoch was already used"})),
            "334d56570100070023000000ec00039e0b00000000000000001600000065706f"
            "63682077617320616c72656164792075736564");
  EXPECT_EQ(hex(encode_epoch_ack(EpochAck{12, true, ""})),
            "334d5657010007000d000000c9d6aea80c000000000000000100000000");
  EXPECT_EQ(hex(encode_status_request()), "334d5657010008000000000000000000");

  StatusResponse status;
  status.committed_epoch = 3;
  status.staged_epoch = 4;
  status.coeff_version = 11;
  status.requests_served = 123456789;
  EXPECT_EQ(hex(encode_status_response(status)),
            "334d56570100090020000000d00d30ae03000000000000000400000000000000"
            "0b0000000000000015cd5b0700000000");
}

/// The textbook one-byte-at-a-time reflected CRC-32, no tables.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
  }
  return c ^ 0xFFFFFFFFU;
}

TEST(Wire, Crc32MatchesBytewiseReference) {
  std::vector<std::uint8_t> buf(1100 + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint8_t& b : buf) {
    x ^= x << 13U;
    x ^= x >> 7U;
    x ^= x << 17U;
    b = static_cast<std::uint8_t>(x >> 56U);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), crc32_bytewise(s.data(), s.size()))
          << "offset " << offset << ", length " << len;
    }
  }
  // All-ones input: every table lookup index is 0xFF.
  const std::vector<std::uint8_t> ones(64, 0xFF);
  EXPECT_EQ(crc32(ones), crc32_bytewise(ones.data(), ones.size()));
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

TEST(Ring, EmptyRingReturnsNoReplicas) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.replicas({}, 2).empty());
}

}  // namespace
}  // namespace wavm3::rpc
