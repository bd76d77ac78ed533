#include "rpc/wire.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

namespace wavm3::rpc {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table; tables[k][b] is the
/// CRC of byte b followed by k zero bytes, so one step can fold eight
/// input bytes with eight independent lookups.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8U) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

const char* to_string(RpcErrorCode code) {
  switch (code) {
    case RpcErrorCode::kTruncated: return "truncated";
    case RpcErrorCode::kOversize: return "oversize";
    case RpcErrorCode::kBadMagic: return "bad_magic";
    case RpcErrorCode::kBadVersion: return "bad_version";
    case RpcErrorCode::kBadCrc: return "bad_crc";
    case RpcErrorCode::kBadType: return "bad_type";
    case RpcErrorCode::kMalformedPayload: return "malformed_payload";
    case RpcErrorCode::kNodeDown: return "node_down";
    case RpcErrorCode::kTimeout: return "timeout";
    case RpcErrorCode::kRemoteError: return "remote_error";
  }
  return "unknown";
}

RpcError::RpcError(RpcErrorCode code, const std::string& detail)
    : std::runtime_error(std::string(to_string(code)) + ": " + detail), code_(code) {}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const CrcTables& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFU;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^ t[5][(lo >> 16U) & 0xFFU] ^
        t[4][lo >> 24U] ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8U) & 0xFFU] ^
        t[1][(hi >> 16U) & 0xFFU] ^ t[0][hi >> 24U];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8U);
  return c ^ 0xFFFFFFFFU;
}

FrameView decode_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() < kFrameHeaderBytes) {
    throw RpcError(RpcErrorCode::kTruncated,
                   "frame of " + std::to_string(frame.size()) + " bytes, header needs " +
                       std::to_string(kFrameHeaderBytes));
  }
  const std::uint8_t* header = frame.data();
  if (load_le32(header) != kFrameMagic) {
    throw RpcError(RpcErrorCode::kBadMagic, "first 4 bytes are not a frame");
  }
  const std::uint16_t version = load_le16(header + 4);
  if (version != kProtocolVersion) {
    throw RpcError(RpcErrorCode::kBadVersion,
                   "version " + std::to_string(version) + ", expected " +
                       std::to_string(kProtocolVersion));
  }
  const std::uint16_t type = load_le16(header + 6);
  const std::uint32_t declared = load_le32(header + 8);
  if (declared > kMaxPayloadBytes) {
    throw RpcError(RpcErrorCode::kOversize,
                   "declared payload of " + std::to_string(declared) + " bytes");
  }
  // Bounds check before forming the payload span: a lying length
  // prefix must fail here, not on a later read.
  if (frame.size() - kFrameHeaderBytes < declared) {
    throw RpcError(RpcErrorCode::kTruncated,
                   "declared " + std::to_string(declared) + " payload bytes, " +
                       std::to_string(frame.size() - kFrameHeaderBytes) + " present");
  }
  if (frame.size() - kFrameHeaderBytes > declared) {
    throw RpcError(RpcErrorCode::kMalformedPayload,
                   std::to_string(frame.size() - kFrameHeaderBytes - declared) +
                       " trailing bytes after declared payload");
  }
  const std::span<const std::uint8_t> payload = frame.subspan(kFrameHeaderBytes, declared);
  if (load_le32(header + 12) != crc32(payload)) {
    throw RpcError(RpcErrorCode::kBadCrc, "payload checksum mismatch");
  }
  return FrameView{type, payload};
}

void WireWriter::str(const std::string& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  if (!v.empty()) std::memcpy(grow(v.size()), v.data(), v.size());
}

void WireWriter::enlarge(std::size_t n) {
  buf_.resize(std::max(end_ + n, 2 * buf_.size()));
}

std::vector<std::uint8_t> WireWriter::frame(std::uint16_t type) && {
  const std::span<const std::uint8_t> payload = bytes();
  if (payload.size() > kMaxPayloadBytes) {
    throw RpcError(RpcErrorCode::kOversize,
                   "payload of " + std::to_string(payload.size()) + " bytes");
  }
  std::uint8_t* header = buf_.data();
  store_le32(header, kFrameMagic);
  store_le16(header + 4, kProtocolVersion);
  store_le16(header + 6, type);
  store_le32(header + 8, static_cast<std::uint32_t>(payload.size()));
  store_le32(header + 12, crc32(payload));
  buf_.resize(end_);  // drops the spare room; never reallocates
  return std::move(buf_);
}

void WireReader::overrun(std::size_t n) const {
  throw RpcError(RpcErrorCode::kMalformedPayload,
                 "payload needs " + std::to_string(n) + " more bytes, " +
                     std::to_string(remaining()) + " remain");
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  // take() checks the length against what remains before the bulk
  // read: a lying prefix can never be satisfied.
  const std::uint8_t* at = take(len);
  return std::string(reinterpret_cast<const char*>(at), len);
}

void WireReader::expect_done() const {
  if (pos_ != data_.size()) {
    throw RpcError(RpcErrorCode::kMalformedPayload,
                   std::to_string(data_.size() - pos_) + " trailing payload bytes");
  }
}

}  // namespace wavm3::rpc
