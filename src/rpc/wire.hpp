// Length-prefixed binary framing for the fleet serving protocol.
//
// A frame is a fixed 16-byte little-endian header followed by the
// payload:
//
//   offset  size  field
//   0       4     magic       0x57564D33 ("WVM3" big-endian in memory)
//   4       2     version     protocol version, currently 1
//   6       2     type        MsgType discriminant
//   8       4     payload_len bytes after the header, <= kMaxPayloadBytes
//   12      4     crc         CRC-32 (IEEE, reflected) of the payload
//
// Decoding is strict and total: every malformed input — truncated at
// any boundary, oversize length prefix, wrong magic/version, trailing
// bytes, corrupted CRC — produces a typed RpcError and never reads out
// of bounds; every frame is checked for all of them.
//
// The codec works in place. WireWriter reserves the header up front,
// writes the payload behind it through little-endian store helpers and
// patches length and CRC into the same buffer, so a frame costs one
// allocation. WireReader reads scalars through the matching load
// helpers. The helpers assemble and split values with shifts, so frames
// are byte-identical on every host whatever its byte order; on a
// little-endian host the compiler folds each to one load or store.
// crc32 is slicing-by-8: eight 256-entry tables, eight payload bytes
// per step, a byte-wise tail.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace wavm3::rpc {

enum class RpcErrorCode {
  kTruncated,         ///< input shorter than the header or the declared payload
  kOversize,          ///< payload_len exceeds kMaxPayloadBytes
  kBadMagic,          ///< first 4 bytes are not a frame at all
  kBadVersion,        ///< protocol version mismatch
  kBadCrc,            ///< payload checksum mismatch
  kBadType,           ///< frame type is not the one the decoder expected
  kMalformedPayload,  ///< payload shorter/longer than its message schema
  kNodeDown,          ///< transport: target node unreachable
  kTimeout,           ///< transport: call did not complete in time
  kRemoteError,       ///< peer answered with an error frame
};

const char* to_string(RpcErrorCode code);

/// Typed RPC failure. what() is "<code>: <detail>".
class RpcError : public std::runtime_error {
 public:
  RpcError(RpcErrorCode code, const std::string& detail);
  RpcErrorCode code() const { return code_; }

 private:
  RpcErrorCode code_;
};

inline constexpr std::uint32_t kFrameMagic = 0x57564D33U;  // "WVM3"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Generous for coefficient tables (30 doubles per type) and scenario
/// batches, tight enough that a corrupted length prefix cannot ask the
/// decoder to allocate gigabytes.
inline constexpr std::size_t kMaxPayloadBytes = 1U << 20U;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
std::uint32_t crc32(std::span<const std::uint8_t> data);

// Little-endian scalar stores and loads (see the header comment).
inline void store_le16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8U);
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8U);
  p[2] = static_cast<std::uint8_t>(v >> 16U);
  p[3] = static_cast<std::uint8_t>(v >> 24U);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32U));
}

inline std::uint16_t load_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8U));
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8U) |
         (static_cast<std::uint32_t>(p[2]) << 16U) | (static_cast<std::uint32_t>(p[3]) << 24U);
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_le32(p)) |
         (static_cast<std::uint64_t>(load_le32(p + 4)) << 32U);
}

/// Decoded view into a validated frame. `payload` aliases the input
/// buffer — it is valid only as long as the buffer outlives it.
struct FrameView {
  std::uint16_t type = 0;
  std::span<const std::uint8_t> payload;
};

/// Validates and splits a frame. Throws RpcError on any defect;
/// guarantees no read past `frame.size()`. Trailing bytes after the
/// declared payload are a defect too (kMalformedPayload): a frame is a
/// complete datagram, not a stream prefix.
FrameView decode_frame(std::span<const std::uint8_t> frame);

/// Little-endian scalar serializer for message payloads, writing in
/// place behind a reserved frame header.
class WireWriter {
 public:
  /// Reserves the header plus `payload_bytes`: a writer sized to its
  /// message allocates once. Writing more is fine; the buffer grows.
  explicit WireWriter(std::size_t payload_bytes = 0)
      : buf_(kFrameHeaderBytes + payload_bytes), end_(kFrameHeaderBytes) {}

  void u8(std::uint8_t v) { *grow(1) = v; }
  void u16(std::uint16_t v) { store_le16(grow(2), v); }
  void u32(std::uint32_t v) { store_le32(grow(4), v); }
  void u64(std::uint64_t v) { store_le64(grow(8), v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  void str(const std::string& v);

  /// The payload written so far.
  std::span<const std::uint8_t> bytes() const {
    return {buf_.data() + kFrameHeaderBytes, end_ - kFrameHeaderBytes};
  }
  /// Patches the header of a frame of the given type (length, CRC) in
  /// front of the payload and hands the buffer out; the writer is
  /// spent. Throws RpcError(kOversize) when the payload exceeds
  /// kMaxPayloadBytes.
  std::vector<std::uint8_t> frame(std::uint16_t type) &&;

 private:
  /// Room for `n` more payload bytes, claimed; grows the buffer only
  /// when a message outruns its size hint.
  std::uint8_t* grow(std::size_t n) {
    if (buf_.size() - end_ < n) enlarge(n);
    std::uint8_t* at = buf_.data() + end_;
    end_ += n;
    return at;
  }

  void enlarge(std::size_t n);

  std::vector<std::uint8_t> buf_;  ///< header, payload, then spare room
  std::size_t end_;                ///< one past the last payload byte
};

/// Bounds-checked little-endian deserializer. Every read throws
/// RpcError(kMalformedPayload) instead of running past the end.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return *take(1); }
  std::uint16_t u16() { return load_le16(take(2)); }
  std::uint32_t u32() { return load_le32(take(4)); }
  std::uint64_t u64() { return load_le64(take(8)); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str();

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Schema-completeness check: a payload with trailing bytes was
  /// encoded by a different (newer?) schema — reject rather than
  /// silently ignore.
  void expect_done() const;

 private:
  /// The next `n` bytes, consumed; throws when fewer remain.
  const std::uint8_t* take(std::size_t n) {
    if (remaining() < n) overrun(n);
    const std::uint8_t* at = data_.data() + pos_;
    pos_ += n;
    return at;
  }
  [[noreturn]] void overrun(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace wavm3::rpc
