// The disclosure server's length-prefixed binary wire protocol.
//
// A connection is a byte stream of frames in both directions. Every frame
// is an 8-byte header followed by a bounded payload; all integers are
// little-endian; there is no padding beyond the fields listed.
//
//   Frame layout (all frames, both directions)
//   ┌────────┬──────┬──────────────────────────────────────────────────┐
//   │ offset │ size │ field                                            │
//   ├────────┼──────┼──────────────────────────────────────────────────┤
//   │ 0      │ 4    │ payload_len (u32; bytes after the header,        │
//   │        │      │   must be <= kMaxPayload)                        │
//   │ 4      │ 1    │ type (FrameType)                                 │
//   │ 5      │ 1    │ flags (per-type; undefined bits must be 0)       │
//   │ 6      │ 2    │ reserved (must be 0)                             │
//   │ 8      │ ...  │ payload                                          │
//   └────────┴──────┴──────────────────────────────────────────────────┘
//
//   Per-type payloads
//   ┌──────────────────────┬─────┬───────────────────────────────────────┐
//   │ type                 │ dir │ payload                               │
//   ├──────────────────────┼─────┼───────────────────────────────────────┤
//   │ kHello (1)           │ c→s │ u32 magic kMagic; u16 version; u16    │
//   │                      │     │ reserved(0); principal name (1..      │
//   │                      │     │ kMaxPrincipalLen bytes). Must be the  │
//   │                      │     │ connection's first frame.             │
//   │ kHelloAck (2)        │ s→c │ u64 epoch; u32 max_payload; u32 rsvd. │
//   │ kRegisterTemplate(3) │ c→s │ u32 template_id; Datalog text. Stores │
//   │                      │     │ the parsed query and its label under  │
//   │                      │     │ the (per-connection) id for kSubmit.  │
//   │ kTemplateAck (4)     │ s→c │ u32 template_id.                      │
//   │ kSubmit (5)          │ c→s │ u32 template_id. flags bit0           │
//   │                      │     │ (kFlagExplain): append a diagnosis to │
//   │                      │     │ the decision frame.                   │
//   │ kSubmitText (6)      │ c→s │ Datalog text, parsed per request (the │
//   │                      │     │ slow path). flags bit0 as kSubmit.    │
//   │ kDecision (7)        │ s→c │ u8 allow; u8[3] reserved(0); u64      │
//   │                      │     │ epoch the decision was made under;    │
//   │                      │     │ optional explanation text iff the     │
//   │                      │     │ request carried kFlagExplain.         │
//   │ kStatsRequest (8)    │ c→s │ empty. The /stats + health endpoint.  │
//   │ kStatsJson (9)       │ s→c │ engine::StatsToJson document.         │
//   │ kPing (10)           │ c→s │ empty (health probe).                 │
//   │ kPong (11)           │ s→c │ u64 current epoch.                    │
//   │ kError (12)          │ s→c │ u32 code (ErrorCode); u32 detail      │
//   │                      │     │ (e.g. offending template id); message │
//   │                      │     │ text. Fatal codes (IsFatal) are the   │
//   │                      │     │ connection's last frame — the server  │
//   │                      │     │ flushes it and closes.                │
//   │ kGoingAway (13)      │ s→c │ u64 epoch; reason text. Drain         │
//   │                      │     │ announcement: the server has stopped  │
//   │                      │     │ accepting and will answer every       │
//   │                      │     │ request already received on this      │
//   │                      │     │ connection, then close it. Clients    │
//   │                      │     │ should finish reading staged          │
//   │                      │     │ responses and reconnect elsewhere.    │
//   └──────────────────────┴─────┴───────────────────────────────────────┘
//
// Compatibility: unknown frame types are a fatal protocol error in BOTH
// directions — the receiver answers kError(kUnknownType) (server side) or
// closes (client side) rather than skipping the frame, because a length-
// prefixed stream with a misunderstood frame can smuggle bytes past the
// monitor. Consequence for evolution: new server→client types such as
// kGoingAway (added in protocol revision 13) may only be emitted at points
// where closing the connection is an acceptable outcome for an old client.
// kGoingAway satisfies this by construction — it is only sent when the
// connection is about to end anyway, so a version-1 client that treats it
// as unknown-and-fatal merely closes a connection the server was already
// draining; its staged responses have been flushed ahead of the frame.
//
// Request/response discipline: the server answers every kRegisterTemplate,
// kSubmit, kSubmitText, kStatsRequest and kPing with exactly one frame, in
// request order per connection (responses never reorder even though
// decisions are computed in coalesced cross-connection batches). A
// kSubmitText whose body fails to parse gets a non-fatal kError *in place
// of* its decision frame. Explanations reflect the monitor state after the
// decision was applied (for refusals that equals the pre-decision state —
// refused queries never narrow; for accepts the diagnosed partitions are
// those still consistent after the accept).
//
// Ordering/batching contract: decisions on one connection are applied to
// the principal's cumulative state in frame order; the coalescing layer
// preserves per-principal arrival order across connections, so the
// decision sequence a client observes is bit-identical to issuing the same
// queries directly against DisclosureEngine::Submit in the same order
// (property-tested in tests/server_protocol_test.cc).
//
// Malformed input (bad magic/version, nonzero reserved bits, payload_len
// over kMaxPayload, unknown type, frame before kHello, unregistered or
// re-registered template id, overlong principal) is answered with a fatal
// kError and the connection is closed; bytes after a fatal error are never
// interpreted. Truncated streams (peer died mid-frame) are simply closed.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace fdc::server {

inline constexpr uint32_t kMagic = 0x57434446;  // bytes "FDCW" on the wire
inline constexpr uint16_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderSize = 8;
/// Upper bound on payload_len; a frame never occupies more than
/// kMaxPayload + kFrameHeaderSize bytes of buffer.
inline constexpr uint32_t kMaxPayload = 1u << 20;
inline constexpr size_t kMaxPrincipalLen = 256;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kRegisterTemplate = 3,
  kTemplateAck = 4,
  kSubmit = 5,
  kSubmitText = 6,
  kDecision = 7,
  kStatsRequest = 8,
  kStatsJson = 9,
  kPing = 10,
  kPong = 11,
  kError = 12,
  kGoingAway = 13,
};

/// flags bit0 on kSubmit / kSubmitText: append a decision explanation.
inline constexpr uint8_t kFlagExplain = 0x01;

enum class ErrorCode : uint32_t {
  kBadMagic = 1,
  kBadVersion = 2,
  kOversizedFrame = 3,
  kMalformedFrame = 4,   // short/ill-formed payload, nonzero reserved bits
  kUnknownType = 5,      // unknown or direction-invalid frame type
  kExpectedHello = 6,    // first frame was not kHello
  kDuplicateHello = 7,
  kBadPrincipal = 8,     // empty or overlong principal name
  kBadTemplateId = 9,    // id >= the server's per-connection template cap
  kDuplicateTemplate = 10,
  kUnknownTemplate = 11,  // kSubmit for an id never registered
  kParseError = 12,       // template/text failed to parse (NON-fatal)
  kServerBusy = 13,       // connection limit reached
  kDeadlineExceeded = 14,  // handshake/idle deadline reaped the connection
};

/// Every protocol error closes the connection except kParseError, which is
/// scoped to the request that carried the unparseable text.
inline bool IsFatal(ErrorCode code) { return code != ErrorCode::kParseError; }

const char* ErrorCodeName(ErrorCode code);

// --- little-endian primitives -------------------------------------------

inline void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}
inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}
inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}
inline uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

// --- frame decoding ------------------------------------------------------

/// A decoded frame header + payload view into the caller's buffer.
struct FrameView {
  FrameType type = FrameType::kError;
  uint8_t flags = 0;
  std::span<const uint8_t> payload;
};

enum class DecodeStatus {
  kFrame,     // *out holds one frame; consume `consumed` bytes
  kNeedMore,  // buffer holds a frame prefix; read more bytes
  kError,     // stream is unrecoverable; *error says why
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  size_t consumed = 0;
  ErrorCode error = ErrorCode::kMalformedFrame;
};

/// Decodes the frame at the head of [data, data+size). Validates the
/// header envelope only (length bound, reserved bytes, known type) —
/// per-type payload shape is the caller's job. Never reads past `size`.
DecodeResult DecodeFrame(const uint8_t* data, size_t size, FrameView* out);

/// Typed payload parsers; each returns false on a malformed payload.
struct HelloPayload {
  uint32_t magic = 0;
  uint16_t version = 0;
  std::string_view principal;
};
bool ParseHello(std::span<const uint8_t> payload, HelloPayload* out);

struct DecisionPayload {
  bool allow = false;
  uint64_t epoch = 0;
  std::string_view explanation;
};
bool ParseDecision(std::span<const uint8_t> payload, DecisionPayload* out);

struct ErrorPayload {
  ErrorCode code = ErrorCode::kMalformedFrame;
  uint32_t detail = 0;
  std::string_view message;
};
bool ParseError(std::span<const uint8_t> payload, ErrorPayload* out);

/// kRegisterTemplate: u32 id + text. kSubmit: u32 id alone.
bool ParseTemplateId(std::span<const uint8_t> payload, uint32_t* id,
                     std::string_view* text);

struct GoingAwayPayload {
  uint64_t epoch = 0;
  std::string_view reason;
};
bool ParseGoingAway(std::span<const uint8_t> payload, GoingAwayPayload* out);

// --- frame encoding ------------------------------------------------------
// All encoders append one complete frame to `*out` (a plain byte string —
// connection write queues and client send buffers are both backed by one).

void AppendFrame(std::string* out, FrameType type, uint8_t flags,
                 std::string_view payload);
void AppendHello(std::string* out, std::string_view principal);
void AppendHelloAck(std::string* out, uint64_t epoch, uint32_t max_payload);
void AppendRegisterTemplate(std::string* out, uint32_t template_id,
                            std::string_view datalog);
void AppendTemplateAck(std::string* out, uint32_t template_id);
void AppendSubmit(std::string* out, uint32_t template_id,
                  bool want_explain = false);
void AppendSubmitText(std::string* out, std::string_view datalog,
                      bool want_explain = false);
void AppendDecision(std::string* out, bool allow, uint64_t epoch,
                    std::string_view explanation = {});
void AppendStatsRequest(std::string* out);
void AppendStatsJson(std::string* out, std::string_view json);
void AppendPing(std::string* out);
void AppendPong(std::string* out, uint64_t epoch);
void AppendError(std::string* out, ErrorCode code, uint32_t detail,
                 std::string_view message);
void AppendGoingAway(std::string* out, uint64_t epoch,
                     std::string_view reason);

}  // namespace fdc::server
