// FHN1 wire protocol: the length-prefixed binary framing of the network
// front end (src/net/server.hpp) and its client library.
//
// Every message on the wire is one frame:
//
//   offset  size  field
//   0       4     magic "FHN1" (0x314E4846 little-endian) — protocol version
//                 is the trailing digit, so a v2 header is a clean magic
//                 mismatch rather than a silent misparse
//   4       1     opcode (see Opcode)
//   5       1     flags (kFlagStream on requests, kFlagStreamed on the
//                 final frame of a streamed response)
//   6       2     reserved, must be zero
//   8       8     request id — client-chosen, echoed verbatim on every
//                 response frame, which is what makes pipelining work
//   16      4     payload length (bounded; see FrameParser)
//   20      4     payload checksum (FNV-1a 32 over the payload bytes)
//   24      ...   payload
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern (std::bit_cast), so a factorization result decoded from the wire
// is bit-identical to the in-process one — the property the differential
// suite (tests/test_net_differential.cpp) pins.
//
// Malformed input never crashes the peer: the incremental FrameParser
// rejects bad magic / nonzero reserved bits / oversized or undersized
// lengths with ProtocolError (connection-fatal), payload decoders
// (PayloadReader) bounds-check every read, and checksum mismatches from
// bit-flipped payloads are detected before any payload decode. The codec
// fuzz suite (tests/test_net_protocol.cpp) sweeps all of these.
//
// docs/PROTOCOL.md is the operator-facing description with a worked
// hexdump; keep the two in sync.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/factorizer.hpp"
#include "hdc/hypervector.hpp"

namespace factorhd::net {

/// Frame magic: "FHN1" read as a little-endian u32.
inline constexpr std::uint32_t kMagic = 0x314E4846;
/// Fixed frame-header size in bytes (payload follows immediately).
inline constexpr std::size_t kHeaderSize = 24;
/// Default per-frame payload bound — mirrors the 1 MiB pre-allocation
/// guard of hdc/io.cpp: nothing in the protocol legitimately needs more
/// (a D=131072 integer HV is 512 KiB), and a hostile length prefix must
/// never drive allocation.
inline constexpr std::size_t kDefaultMaxPayload = 1 << 20;

/// Frame opcodes. Requests are < 16, responses >= 16, so a peer can
/// cheaply reject a response opcode arriving where a request belongs.
enum class Opcode : std::uint8_t {
  // requests
  kFactorize = 1,  ///< factorize one encoded target (FactorizeRequest)
  kPing = 2,       ///< liveness probe; payload echoed back in kPong
  kStats = 3,      ///< engine + server metrics (payload: u8 format)
  // responses
  kResult = 16,    ///< final factorization result (ResultPayload)
  kPartial = 17,   ///< one streamed FactorizedObject of a multi-object result
  kPong = 18,      ///< kPing echo
  kStatsText = 19, ///< stats rendering (string payload)
  kError = 20,     ///< request failed (ErrorPayload)
  kOverload = 21,  ///< request REJECTED by admission control (OverloadPayload)
};

/// \return Stable lowercase opcode name ("factorize", "overload", ...).
[[nodiscard]] const char* to_string(Opcode op) noexcept;
/// \return True when `raw` is one of the Opcode values above.
[[nodiscard]] bool known_opcode(std::uint8_t raw) noexcept;

/// Request flag: stream each FactorizedObject of the result as its own
/// kPartial frame before the final kResult frame (multi-object results
/// become observable object by object instead of all at once).
inline constexpr std::uint8_t kFlagStream = 0x1;
/// Response flag on the final kResult frame of a streamed response: the
/// objects travelled in preceding kPartial frames and are NOT repeated
/// inline.
inline constexpr std::uint8_t kFlagStreamed = 0x2;

/// Error codes carried by kError frames.
enum class ErrorCode : std::uint16_t {
  kBadPayload = 1,        ///< payload failed to decode (truncated/garbled)
  kBadChecksum = 2,       ///< payload checksum mismatch (bit flip in transit)
  kUnknownOpcode = 3,     ///< request opcode the server does not speak
  kDimensionMismatch = 4, ///< target dimension != served model dimension
  kShuttingDown = 5,      ///< server draining; request not accepted
  kInternal = 6,          ///< engine-side failure (message has detail)
  kBadFrame = 7,          ///< framing violation; the connection is dropped
  kDeadlineExceeded = 8,  ///< still queued when its deadline passed
};

/// Overload codes carried by kOverload frames — admission control said no.
enum class OverloadCode : std::uint16_t {
  kQueueFull = 1,      ///< bounded admission queue at capacity
  kQuotaExceeded = 2,  ///< this client's in-flight quota exhausted
};

/// Connection-fatal framing/decoding violation. The server answers one
/// best-effort kError frame and disconnects; the client library throws it
/// through to the caller.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("net protocol: " + what) {}
};

/// FNV-1a 32-bit over `bytes` — the frame payload checksum. Deliberately
/// tiny and dependency-free; this is bit-flip detection, not cryptography.
[[nodiscard]] std::uint32_t payload_checksum(
    std::span<const std::uint8_t> bytes) noexcept;

struct FrameHeader {
  std::uint8_t opcode = 0;
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t checksum = 0;
};

/// One decoded frame: header plus verified-length payload. The checksum is
/// verified by FrameParser before the frame is surfaced.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] Opcode opcode() const noexcept {
    return static_cast<Opcode>(header.opcode);
  }
};

/// Serializes one frame (header + payload + checksum) ready to write.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    Opcode opcode, std::uint8_t flags, std::uint64_t request_id,
    std::span<const std::uint8_t> payload);

/// Incremental frame decoder for a byte stream: feed() arbitrary chunks
/// (frames may arrive split across reads or several per read) and complete
/// frames come out in order. Stateful per connection.
class FrameParser {
 public:
  /// \param max_payload Frames whose length prefix exceeds this are a
  ///   ProtocolError before any allocation happens.
  explicit FrameParser(std::size_t max_payload = kDefaultMaxPayload);

  /// Consumes `data`, appending every completed frame to `out`.
  /// \throws ProtocolError On bad magic, nonzero reserved bits, an
  ///   oversized length prefix, or a payload checksum mismatch. The parser
  ///   is poisoned afterwards (the connection must be dropped).
  void feed(std::span<const std::uint8_t> data, std::vector<Frame>& out);

  /// \return Bytes buffered toward an incomplete frame (0 at a frame
  ///   boundary) — what the server's partial-frame (slow-loris) timeout
  ///   keys on.
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  bool poisoned_ = false;
};

/// Bounds-checked little-endian payload reader. Every get_* throws
/// ProtocolError instead of reading past the end, so a truncated or
/// hostile payload can only fail cleanly.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int32_t get_i32();
  /// IEEE-754 bit pattern via bit_cast — exact, not formatted.
  [[nodiscard]] double get_f64();
  /// u32 length prefix + raw bytes; length bounded by the remainder.
  [[nodiscard]] std::string get_string();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }
  /// \throws ProtocolError When trailing bytes remain (a payload must be
  ///   consumed exactly — extra bytes mean a garbled message).
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// Little-endian payload builder (the writing twin of PayloadReader).
class PayloadWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v);
  void put_f64(double v);
  void put_string(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// kFactorize request payload: options + deadline hint + target HV.
struct FactorizeRequest {
  core::FactorizeOptions opts;
  /// Deadline hint in microseconds from arrival; 0 means the server
  /// default. Earlier deadlines dispatch first, and a request still queued
  /// at its deadline is answered kError / kDeadlineExceeded.
  std::uint32_t deadline_hint_us = 0;
  hdc::Hypervector target;
};

[[nodiscard]] std::vector<std::uint8_t> encode_factorize_request(
    const FactorizeRequest& req);
/// \throws ProtocolError On truncation, trailing bytes, or an absurd
///   dimension/selected-class count (bounded against the payload size).
[[nodiscard]] FactorizeRequest decode_factorize_request(
    std::span<const std::uint8_t> payload);

/// Encodes one FactorizedObject (the kPartial payload body, also embedded
/// inline in non-streamed kResult payloads).
void encode_factorized_object(PayloadWriter& w,
                              const core::FactorizedObject& obj);
[[nodiscard]] core::FactorizedObject decode_factorized_object(
    PayloadReader& r);

/// kResult payload: the scalar fields of a FactorizeResult, the per-round
/// trace, the object count, and — unless kFlagStreamed — the objects
/// inline. A streamed response sends each object first as
///   kPartial payload = { u32 object_index, FactorizedObject }
/// and the final kResult (with kFlagStreamed) omits the inline objects;
/// reassembly of count-checked partials + final is bit-identical to the
/// non-streamed result.
[[nodiscard]] std::vector<std::uint8_t> encode_result(
    const core::FactorizeResult& result, bool streamed);
/// Decodes a kResult payload; when `streamed`, `partials` supplies the
/// objects collected from the kPartial frames (index-ordered).
/// \throws ProtocolError On decode failure or a partial-count mismatch.
[[nodiscard]] core::FactorizeResult decode_result(
    std::span<const std::uint8_t> payload, bool streamed,
    std::vector<core::FactorizedObject> partials);

/// kPartial payload.
[[nodiscard]] std::vector<std::uint8_t> encode_partial(
    std::uint32_t index, const core::FactorizedObject& obj);
[[nodiscard]] std::pair<std::uint32_t, core::FactorizedObject> decode_partial(
    std::span<const std::uint8_t> payload);

/// kError payload.
[[nodiscard]] std::vector<std::uint8_t> encode_error(ErrorCode code,
                                                     std::string_view message);
[[nodiscard]] std::pair<ErrorCode, std::string> decode_error(
    std::span<const std::uint8_t> payload);

/// kOverload payload: why admission said no, plus the live depth/quota
/// numbers so a client can back off intelligently.
struct OverloadInfo {
  OverloadCode code = OverloadCode::kQueueFull;
  std::uint32_t queue_depth = 0;  ///< admission-queue depth at rejection
  std::uint32_t limit = 0;        ///< the bound that was hit (depth or quota)
  std::string detail;
};
[[nodiscard]] std::vector<std::uint8_t> encode_overload(
    const OverloadInfo& info);
[[nodiscard]] OverloadInfo decode_overload(
    std::span<const std::uint8_t> payload);

}  // namespace factorhd::net
