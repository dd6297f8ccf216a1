#include "server/protocol.h"

namespace fdc::server {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic: return "BadMagic";
    case ErrorCode::kBadVersion: return "BadVersion";
    case ErrorCode::kOversizedFrame: return "OversizedFrame";
    case ErrorCode::kMalformedFrame: return "MalformedFrame";
    case ErrorCode::kUnknownType: return "UnknownType";
    case ErrorCode::kExpectedHello: return "ExpectedHello";
    case ErrorCode::kDuplicateHello: return "DuplicateHello";
    case ErrorCode::kBadPrincipal: return "BadPrincipal";
    case ErrorCode::kBadTemplateId: return "BadTemplateId";
    case ErrorCode::kDuplicateTemplate: return "DuplicateTemplate";
    case ErrorCode::kUnknownTemplate: return "UnknownTemplate";
    case ErrorCode::kParseError: return "ParseError";
    case ErrorCode::kServerBusy: return "ServerBusy";
    case ErrorCode::kDeadlineExceeded: return "DeadlineExceeded";
  }
  return "UnknownError";
}

DecodeResult DecodeFrame(const uint8_t* data, size_t size, FrameView* out) {
  DecodeResult result;
  if (size < kFrameHeaderSize) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  const uint32_t payload_len = GetU32(data);
  const uint8_t raw_type = data[4];
  const uint8_t flags = data[5];
  const uint16_t reserved = GetU16(data + 6);
  // Envelope validation happens before waiting for the payload: an
  // attacker-supplied length must never make the server buffer (or spin
  // on) a frame it would reject anyway.
  if (payload_len > kMaxPayload) {
    result.status = DecodeStatus::kError;
    result.error = ErrorCode::kOversizedFrame;
    return result;
  }
  if (reserved != 0) {
    result.status = DecodeStatus::kError;
    result.error = ErrorCode::kMalformedFrame;
    return result;
  }
  if (raw_type < static_cast<uint8_t>(FrameType::kHello) ||
      raw_type > static_cast<uint8_t>(FrameType::kGoingAway)) {
    result.status = DecodeStatus::kError;
    result.error = ErrorCode::kUnknownType;
    return result;
  }
  if (size < kFrameHeaderSize + payload_len) {
    result.status = DecodeStatus::kNeedMore;
    return result;
  }
  out->type = static_cast<FrameType>(raw_type);
  out->flags = flags;
  out->payload = std::span<const uint8_t>(data + kFrameHeaderSize,
                                          payload_len);
  result.status = DecodeStatus::kFrame;
  result.consumed = kFrameHeaderSize + payload_len;
  return result;
}

namespace {

std::string_view TailView(std::span<const uint8_t> payload, size_t offset) {
  return std::string_view(reinterpret_cast<const char*>(payload.data()) +
                              offset,
                          payload.size() - offset);
}

}  // namespace

bool ParseHello(std::span<const uint8_t> payload, HelloPayload* out) {
  if (payload.size() < 8) return false;
  out->magic = GetU32(payload.data());
  out->version = GetU16(payload.data() + 4);
  if (GetU16(payload.data() + 6) != 0) return false;
  out->principal = TailView(payload, 8);
  return true;
}

bool ParseDecision(std::span<const uint8_t> payload, DecisionPayload* out) {
  if (payload.size() < 12) return false;
  if (payload[0] > 1 || payload[1] != 0 || payload[2] != 0 ||
      payload[3] != 0) {
    return false;
  }
  out->allow = payload[0] != 0;
  out->epoch = GetU64(payload.data() + 4);
  out->explanation = TailView(payload, 12);
  return true;
}

bool ParseError(std::span<const uint8_t> payload, ErrorPayload* out) {
  if (payload.size() < 8) return false;
  out->code = static_cast<ErrorCode>(GetU32(payload.data()));
  out->detail = GetU32(payload.data() + 4);
  out->message = TailView(payload, 8);
  return true;
}

bool ParseTemplateId(std::span<const uint8_t> payload, uint32_t* id,
                     std::string_view* text) {
  if (payload.size() < 4) return false;
  *id = GetU32(payload.data());
  if (text != nullptr) *text = TailView(payload, 4);
  return true;
}

bool ParseGoingAway(std::span<const uint8_t> payload, GoingAwayPayload* out) {
  if (payload.size() < 8) return false;
  out->epoch = GetU64(payload.data());
  out->reason = TailView(payload, 8);
  return true;
}

void AppendFrame(std::string* out, FrameType type, uint8_t flags,
                 std::string_view payload) {
  uint8_t header[kFrameHeaderSize];
  PutU32(header, static_cast<uint32_t>(payload.size()));
  header[4] = static_cast<uint8_t>(type);
  header[5] = flags;
  PutU16(header + 6, 0);
  out->append(reinterpret_cast<const char*>(header), sizeof(header));
  if (!payload.empty()) out->append(payload.data(), payload.size());
}

void AppendHello(std::string* out, std::string_view principal) {
  uint8_t fixed[8];
  PutU32(fixed, kMagic);
  PutU16(fixed + 4, kProtocolVersion);
  PutU16(fixed + 6, 0);
  std::string payload(reinterpret_cast<const char*>(fixed), sizeof(fixed));
  if (!principal.empty()) payload.append(principal.data(), principal.size());
  AppendFrame(out, FrameType::kHello, 0, payload);
}

void AppendHelloAck(std::string* out, uint64_t epoch, uint32_t max_payload) {
  uint8_t payload[16];
  PutU64(payload, epoch);
  PutU32(payload + 8, max_payload);
  PutU32(payload + 12, 0);
  AppendFrame(out, FrameType::kHelloAck, 0,
              std::string_view(reinterpret_cast<const char*>(payload),
                               sizeof(payload)));
}

void AppendRegisterTemplate(std::string* out, uint32_t template_id,
                            std::string_view datalog) {
  uint8_t fixed[4];
  PutU32(fixed, template_id);
  std::string payload(reinterpret_cast<const char*>(fixed), sizeof(fixed));
  if (!datalog.empty()) payload.append(datalog.data(), datalog.size());
  AppendFrame(out, FrameType::kRegisterTemplate, 0, payload);
}

void AppendTemplateAck(std::string* out, uint32_t template_id) {
  uint8_t payload[4];
  PutU32(payload, template_id);
  AppendFrame(out, FrameType::kTemplateAck, 0,
              std::string_view(reinterpret_cast<const char*>(payload),
                               sizeof(payload)));
}

void AppendSubmit(std::string* out, uint32_t template_id, bool want_explain) {
  uint8_t payload[4];
  PutU32(payload, template_id);
  AppendFrame(out, FrameType::kSubmit, want_explain ? kFlagExplain : 0,
              std::string_view(reinterpret_cast<const char*>(payload),
                               sizeof(payload)));
}

void AppendSubmitText(std::string* out, std::string_view datalog,
                      bool want_explain) {
  AppendFrame(out, FrameType::kSubmitText, want_explain ? kFlagExplain : 0,
              datalog);
}

void AppendDecision(std::string* out, bool allow, uint64_t epoch,
                    std::string_view explanation) {
  uint8_t fixed[12];
  fixed[0] = allow ? 1 : 0;
  fixed[1] = fixed[2] = fixed[3] = 0;
  PutU64(fixed + 4, epoch);
  // The hot path: one reserve, two appends, no intermediate payload string.
  uint8_t header[kFrameHeaderSize];
  PutU32(header, static_cast<uint32_t>(sizeof(fixed) + explanation.size()));
  header[4] = static_cast<uint8_t>(FrameType::kDecision);
  header[5] = 0;
  PutU16(header + 6, 0);
  out->reserve(out->size() + sizeof(header) + sizeof(fixed) +
               explanation.size());
  out->append(reinterpret_cast<const char*>(header), sizeof(header));
  out->append(reinterpret_cast<const char*>(fixed), sizeof(fixed));
  if (!explanation.empty()) out->append(explanation.data(), explanation.size());
}

void AppendStatsRequest(std::string* out) {
  AppendFrame(out, FrameType::kStatsRequest, 0, {});
}

void AppendStatsJson(std::string* out, std::string_view json) {
  AppendFrame(out, FrameType::kStatsJson, 0, json);
}

void AppendPing(std::string* out) { AppendFrame(out, FrameType::kPing, 0, {}); }

void AppendPong(std::string* out, uint64_t epoch) {
  uint8_t payload[8];
  PutU64(payload, epoch);
  AppendFrame(out, FrameType::kPong, 0,
              std::string_view(reinterpret_cast<const char*>(payload),
                               sizeof(payload)));
}

void AppendError(std::string* out, ErrorCode code, uint32_t detail,
                 std::string_view message) {
  uint8_t fixed[8];
  PutU32(fixed, static_cast<uint32_t>(code));
  PutU32(fixed + 4, detail);
  std::string payload(reinterpret_cast<const char*>(fixed), sizeof(fixed));
  // Clamped so the frame always decodes: a longer message is cut, never
  // sent as an oversized payload the peer must reject.
  message = message.substr(0, kMaxPayload - sizeof(fixed));
  if (!message.empty()) payload.append(message.data(), message.size());
  AppendFrame(out, FrameType::kError, 0, payload);
}

void AppendGoingAway(std::string* out, uint64_t epoch,
                     std::string_view reason) {
  uint8_t fixed[8];
  PutU64(fixed, epoch);
  std::string payload(reinterpret_cast<const char*>(fixed), sizeof(fixed));
  if (!reason.empty()) payload.append(reason.data(), reason.size());
  AppendFrame(out, FrameType::kGoingAway, 0, payload);
}

}  // namespace fdc::server
