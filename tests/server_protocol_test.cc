// Serving front end acceptance suite.
//
// Three layers of guarantees:
//   1. Wire safety: randomized frame round-trips (including delivery split
//      across arbitrary read boundaries), plus malformed-input hardening —
//      truncated, oversized, garbage-magic, reserved-bit and random-byte
//      streams must produce clean protocol errors, never crashes or reads
//      past the buffer (the CI ASan+UBSan job runs this suite).
//   2. Decision fidelity: decisions served over a real socket are
//      bit-identical to submitting the same per-principal sequences
//      directly against a twin DisclosureEngine — including the epoch
//      carried in each response across a mid-stream UpdatePolicy.
//   3. Engine coalescing: DisclosureEngine::SubmitCoalesced (the server's
//      entry point) matches per-request Submit exactly for interleaved
//      multi-principal batches, including batches that mix pre-labeled
//      requests (template submits) with unlabeled ones.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/disclosure_engine.h"
#include "engine/stats_json.h"
#include "server/byte_queue.h"
#include "server/client.h"
#include "server/disclosure_server.h"
#include "server/protocol.h"
#include "test_util.h"
#include "cq/printer.h"
#include "workload/policy_generator.h"

namespace fdc::server {
namespace {

using test::FbFixture;
using test::RandomWorkload;

// --- wire safety ---------------------------------------------------------

std::string RandomText(Rng* rng, size_t max_len) {
  std::string s(rng->Below(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>('a' + rng->Below(26));
  return s;
}

TEST(ProtocolTest, RandomFramesRoundTripAcrossSplitReads) {
  Rng rng(0x50c4e7ULL);
  for (int iter = 0; iter < 200; ++iter) {
    // Encode a random frame sequence into one stream.
    struct Expected {
      FrameType type;
      uint8_t flags;
      std::string payload;
    };
    std::string stream;
    std::vector<Expected> expected;
    const int frames = 1 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < frames; ++i) {
      const size_t before = stream.size();
      switch (rng.Below(9)) {
        case 0:
          AppendHello(&stream, RandomText(&rng, 64));
          break;
        case 1:
          AppendHelloAck(&stream, rng.Next(), kMaxPayload);
          break;
        case 2:
          AppendRegisterTemplate(&stream,
                                 static_cast<uint32_t>(rng.Below(1000)),
                                 RandomText(&rng, 200));
          break;
        case 3:
          AppendSubmit(&stream, static_cast<uint32_t>(rng.Below(1000)),
                       rng.Below(2) == 0);
          break;
        case 4:
          AppendSubmitText(&stream, RandomText(&rng, 200),
                           rng.Below(2) == 0);
          break;
        case 5:
          AppendDecision(&stream, rng.Below(2) == 0, rng.Next(),
                         RandomText(&rng, 100));
          break;
        case 6:
          AppendStatsJson(&stream, RandomText(&rng, 300));
          break;
        case 7:
          AppendPong(&stream, rng.Next());
          break;
        default:
          AppendError(&stream, ErrorCode::kParseError,
                      static_cast<uint32_t>(rng.Below(100)),
                      RandomText(&rng, 80));
          break;
      }
      const uint8_t* frame_bytes =
          reinterpret_cast<const uint8_t*>(stream.data()) + before;
      expected.push_back(
          {static_cast<FrameType>(frame_bytes[4]), frame_bytes[5],
           stream.substr(before + kFrameHeaderSize)});
    }

    // Deliver the stream in random-sized chunks; decode as the server
    // does: a ByteQueue fed incrementally, frames peeled off the head.
    ByteQueue q;
    size_t delivered = 0;
    size_t decoded = 0;
    while (decoded < expected.size()) {
      FrameView frame;
      DecodeResult r = DecodeFrame(q.data(), q.size(), &frame);
      ASSERT_NE(r.status, DecodeStatus::kError);
      if (r.status == DecodeStatus::kFrame) {
        const Expected& e = expected[decoded];
        EXPECT_EQ(frame.type, e.type);
        EXPECT_EQ(frame.flags, e.flags);
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(
                                  frame.payload.data()),
                              frame.payload.size()),
                  e.payload);
        q.Consume(r.consumed);
        ++decoded;
        continue;
      }
      ASSERT_LT(delivered, stream.size()) << "decoder starved";
      const size_t chunk =
          std::min(stream.size() - delivered, 1 + rng.Below(13));
      q.Append(stream.data() + delivered, chunk);
      delivered += chunk;
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(ProtocolTest, MalformedEnvelopesAreCleanErrors) {
  FrameView frame;

  // Truncated header: need more, never an error.
  uint8_t header[kFrameHeaderSize] = {0};
  for (size_t n = 0; n < kFrameHeaderSize; ++n) {
    EXPECT_EQ(DecodeFrame(header, n, &frame).status, DecodeStatus::kNeedMore);
  }

  // Oversized length — including values that would overflow a 32-bit
  // total — must fail before any payload arrives.
  for (uint32_t len : {kMaxPayload + 1, 0x7fffffffu, 0xffffffffu}) {
    uint8_t buf[kFrameHeaderSize];
    PutU32(buf, len);
    buf[4] = static_cast<uint8_t>(FrameType::kPing);
    buf[5] = 0;
    PutU16(buf + 6, 0);
    DecodeResult r = DecodeFrame(buf, sizeof(buf), &frame);
    EXPECT_EQ(r.status, DecodeStatus::kError);
    EXPECT_EQ(r.error, ErrorCode::kOversizedFrame);
  }

  // Nonzero reserved bytes.
  {
    uint8_t buf[kFrameHeaderSize];
    PutU32(buf, 0);
    buf[4] = static_cast<uint8_t>(FrameType::kPing);
    buf[5] = 0;
    PutU16(buf + 6, 7);
    DecodeResult r = DecodeFrame(buf, sizeof(buf), &frame);
    EXPECT_EQ(r.status, DecodeStatus::kError);
    EXPECT_EQ(r.error, ErrorCode::kMalformedFrame);
  }

  // Unknown frame types (14 is the first id past kGoingAway).
  for (uint8_t type : {uint8_t{0}, uint8_t{14}, uint8_t{200}}) {
    uint8_t buf[kFrameHeaderSize];
    PutU32(buf, 0);
    buf[4] = type;
    buf[5] = 0;
    PutU16(buf + 6, 0);
    DecodeResult r = DecodeFrame(buf, sizeof(buf), &frame);
    EXPECT_EQ(r.status, DecodeStatus::kError);
    EXPECT_EQ(r.error, ErrorCode::kUnknownType);
  }
}

// Random byte soup through the decoder and every payload parser: the only
// acceptable outcomes are kFrame/kNeedMore/kError (and parser false) —
// never a crash or an out-of-bounds read (ASan+UBSan job enforces that).
TEST(ProtocolTest, ErrorMessagesAreClampedToMaxPayload) {
  std::string frame;
  AppendError(&frame, ErrorCode::kParseError, 7,
              std::string(2 * kMaxPayload, 'e'));
  FrameView view;
  const DecodeResult r = DecodeFrame(
      reinterpret_cast<const uint8_t*>(frame.data()), frame.size(), &view);
  ASSERT_EQ(r.status, DecodeStatus::kFrame);
  EXPECT_EQ(r.consumed, frame.size());
  EXPECT_EQ(view.type, FrameType::kError);
  EXPECT_EQ(view.payload.size(), kMaxPayload);
}

TEST(ProtocolTest, FuzzedBytesNeverCrashDecoderOrParsers) {
  Rng rng(0xf022ULL);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes(rng.Below(64), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next());
    // Bias half the inputs toward valid-looking headers so the payload
    // parsers actually run.
    if (bytes.size() >= kFrameHeaderSize && rng.Below(2) == 0) {
      PutU32(reinterpret_cast<uint8_t*>(bytes.data()),
             static_cast<uint32_t>(rng.Below(bytes.size() + 4)));
      bytes[4] = static_cast<char>(1 + rng.Below(13));
      bytes[6] = bytes[7] = 0;
    }
    const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
    FrameView frame;
    DecodeResult r = DecodeFrame(data, bytes.size(), &frame);
    if (r.status == DecodeStatus::kFrame) {
      HelloPayload hello;
      DecisionPayload decision;
      ErrorPayload error;
      uint32_t id;
      std::string_view text;
      (void)ParseHello(frame.payload, &hello);
      (void)ParseDecision(frame.payload, &decision);
      (void)ParseError(frame.payload, &error);
      (void)ParseTemplateId(frame.payload, &id, &text);
    }
  }
}

// --- tiny JSON validator (for the /stats satellite) ----------------------

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '"') return String();
    if (c == '-' || (c >= '0' && c <= '9')) return Number();
    return Literal("true") || Literal("false") || Literal("null");
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return Expect('"');
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(char c) { return Peek(c); }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(StatsJsonTest, EngineStatsSerializeToValidJson) {
  FbFixture fb;
  engine::DisclosureEngine engine(
      /*db=*/nullptr, &fb.catalog,
      workload::PolicyGenerator(&fb.catalog, {}, 11).Next());
  const auto pool = RandomWorkload(&fb.schema, 2, 50, 0x57a75ULL);
  for (const auto& q : pool) (void)engine.Submit("app", q);

  const std::string json = engine::StatsToJson(engine.Stats());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  for (const char* key :
       {"\"epoch\"", "\"decisions\"", "\"submitted\"", "\"labeler\"",
        "\"interner\"", "\"ebr\"", "\"shadow\"",
        "\"canonicalizations\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Fields removed with the engine's containment cache, the overlay chunk,
  // and the vector mask kernels.
  for (const char* key :
       {"\"containment_cache\"", "\"overlay_chunk_", "\"mode\"",
        "\"simd_isa\"", "\"simd_lanes_used\""}) {
    EXPECT_EQ(json.find(key), std::string::npos) << key;
  }
}

TEST(StatsJsonTest, JsonEscapeHandlesHostileInput) {
  EXPECT_EQ(engine::JsonEscape("plain ascii 123"), "plain ascii 123");
  EXPECT_EQ(engine::JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(engine::JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(engine::JsonEscape("a\nb\tc\rd\be\ff"),
            "a\\nb\\tc\\rd\\be\\ff");
  EXPECT_EQ(engine::JsonEscape(std::string_view("\x00\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  // A name crafted to break out of the string and forge a sibling key.
  EXPECT_EQ(engine::JsonEscape("\",\"accepted\":999999,\"x\":\""),
            "\\\",\\\"accepted\\\":999999,\\\"x\\\":\\\"");
}

TEST(StatsJsonTest, JsonEscapeRejectsInvalidUtf8) {
  // Valid UTF-8 passes through untouched: 2-, 3-, and 4-byte sequences.
  EXPECT_EQ(engine::JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(engine::JsonEscape("\xe2\x82\xac"), "\xe2\x82\xac");  // €
  EXPECT_EQ(engine::JsonEscape("\xf0\x9f\x94\x92"),
            "\xf0\x9f\x94\x92");  // 🔒
  // Invalid bytes become \u00XX escapes so the document stays RFC 8259
  // valid even when the name came out of an arbitrary artifact blob.
  EXPECT_EQ(engine::JsonEscape("\xff"), "\\u00ff");        // never-valid byte
  EXPECT_EQ(engine::JsonEscape("\x80meh"), "\\u0080meh");  // lone continuation
  EXPECT_EQ(engine::JsonEscape("\xc3"), "\\u00c3");        // truncated 2-byte
  EXPECT_EQ(engine::JsonEscape("\xc3x"), "\\u00c3x");      // bad continuation
  EXPECT_EQ(engine::JsonEscape("\xc0\xaf"), "\\u00c0\\u00af");  // overlong '/'
  EXPECT_EQ(engine::JsonEscape("\xe0\x80\x80"),
            "\\u00e0\\u0080\\u0080");  // overlong 3-byte
  EXPECT_EQ(engine::JsonEscape("\xed\xa0\x80"),
            "\\u00ed\\u00a0\\u0080");  // UTF-16 surrogate U+D800
  EXPECT_EQ(engine::JsonEscape("\xf4\x90\x80\x80"),
            "\\u00f4\\u0090\\u0080\\u0080");  // beyond U+10FFFF
  EXPECT_EQ(engine::JsonEscape("\xf0\x9f\x94"), "\\u00f0\\u009f\\u0094");
}

TEST(StatsJsonTest, HostileShadowPolicyNameStaysValidJson) {
  FbFixture fb;
  workload::PolicyGenerator gen(&fb.catalog, {}, 11);
  engine::DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, gen.Next());
  // Operator-supplied shadow-policy name with every class of hostile
  // character: quote, backslash, newline, raw control byte.
  // (split literal: "\x01b" would greedily parse as one 0x1b escape)
  engine.SetShadowPolicy(gen.Next(),
                         std::string("evil\"name\\with\nbad\x01" "bytes"));
  const std::string json = engine::StatsToJson(engine.Stats());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"policy_name\":\"evil\\\"name\\\\with\\nbad"
                      "\\u0001bytes\""),
            std::string::npos)
      << json;
}

// --- end-to-end over a real socket ---------------------------------------

struct ServerFixture {
  FbFixture fb;
  policy::SecurityPolicy policy;
  engine::DisclosureEngine engine;
  DisclosureServer server;

  explicit ServerFixture(uint64_t policy_seed = 3, ServerOptions opts = {})
      : policy([&] {
          workload::PolicyOptions popts;
          popts.max_partitions = 5;
          popts.max_elements_per_partition = 15;
          return workload::PolicyGenerator(&fb.catalog, popts, policy_seed)
              .Next();
        }()),
        engine(/*db=*/nullptr, &fb.catalog, policy),
        server(&engine, opts) {
    Status s = server.Start();
    if (!s.ok()) {
      ADD_FAILURE() << s.ToString();
      std::abort();
    }
  }
  ~ServerFixture() { server.Stop(); }
};

// The tentpole differential: socket decisions (template path and text
// path, pipelined and call/response) are bit-identical to a twin engine
// driven directly, including the epoch in every response across a
// mid-stream UpdatePolicy.
TEST(ServerEndToEndTest, SocketDecisionsMatchDirectEngine) {
  ServerFixture fx;
  // Twin engine fed the exact same per-principal sequences directly.
  engine::DisclosureEngine direct(/*db=*/nullptr, &fx.fb.catalog, fx.policy);

  constexpr int kPrincipals = 4;
  constexpr int kQueries = 240;
  const auto pool = RandomWorkload(&fx.fb.schema, 2, 60, 0xd1ffULL);

  std::vector<BlockingClient> clients(kPrincipals);
  for (int p = 0; p < kPrincipals; ++p) {
    ASSERT_TRUE(clients[p]
                    .Connect("127.0.0.1", fx.server.port(),
                             "app-" + std::to_string(p))
                    .ok());
    for (size_t t = 0; t < pool.size(); ++t) {
      ASSERT_TRUE(clients[p]
                      .RegisterTemplate(static_cast<uint32_t>(t),
                                        cq::ToDatalog(pool[t], fx.fb.schema))
                      .ok());
    }
  }

  // Second policy for the mid-stream epoch bump.
  workload::PolicyOptions popts;
  popts.max_partitions = 4;
  popts.max_elements_per_partition = 12;
  policy::SecurityPolicy policy_b =
      workload::PolicyGenerator(&fx.fb.catalog, popts, 99).Next();

  Rng rng(0x5e11ULL);
  for (int i = 0; i < kQueries; ++i) {
    if (i == kQueries / 2) {
      fx.engine.UpdatePolicy(policy_b);
      direct.UpdatePolicy(policy_b);
    }
    const int p = static_cast<int>(rng.Below(kPrincipals));
    const size_t t = rng.Below(pool.size());
    const std::string principal = "app-" + std::to_string(p);

    ClientResponse resp;
    if (rng.Below(4) == 0) {
      // Text path: parsed server-side per request.
      ASSERT_TRUE(clients[p]
                      .SubmitText(cq::ToDatalog(pool[t], fx.fb.schema), &resp)
                      .ok());
    } else {
      ASSERT_TRUE(clients[p].Submit(static_cast<uint32_t>(t), &resp).ok());
    }
    ASSERT_EQ(resp.type, FrameType::kDecision);

    const uint64_t direct_epoch = direct.Snapshot()->epoch();
    const bool direct_decision = direct.Submit(principal, pool[t]);
    EXPECT_EQ(resp.allow, direct_decision) << "divergence at query " << i;
    EXPECT_EQ(resp.epoch, direct_epoch) << "epoch drift at query " << i;
  }
}

// Pipelining many submits into one flush exercises the coalescing layer:
// responses come back in order, decisions still match the twin engine, and
// the server really did batch (fewer engine passes than decisions).
TEST(ServerEndToEndTest, PipelinedSubmitsCoalesceAndPreserveOrder) {
  ServerFixture fx(/*policy_seed=*/17);
  engine::DisclosureEngine direct(/*db=*/nullptr, &fx.fb.catalog, fx.policy);

  const auto pool = RandomWorkload(&fx.fb.schema, 2, 32, 0x919eULL);
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server.port(), "pipeline").ok());
  for (size_t t = 0; t < pool.size(); ++t) {
    ASSERT_TRUE(client
                    .RegisterTemplate(static_cast<uint32_t>(t),
                                      cq::ToDatalog(pool[t], fx.fb.schema))
                    .ok());
  }

  constexpr int kRounds = 4;
  constexpr int kPerRound = 128;
  Rng rng(0xabcULL);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<size_t> order;
    for (int i = 0; i < kPerRound; ++i) {
      order.push_back(rng.Below(pool.size()));
      client.QueueSubmit(static_cast<uint32_t>(order.back()));
    }
    ASSERT_TRUE(client.Flush().ok());
    for (int i = 0; i < kPerRound; ++i) {
      ClientResponse resp;
      ASSERT_TRUE(client.ReadResponse(&resp).ok());
      ASSERT_EQ(resp.type, FrameType::kDecision);
      EXPECT_EQ(resp.allow, direct.Submit("pipeline", pool[order[i]]))
          << "round " << round << " index " << i;
    }
  }

  const DisclosureServer::Stats stats = fx.server.stats();
  EXPECT_EQ(stats.decisions, kRounds * kPerRound);
  EXPECT_LT(stats.coalesced_batches, stats.decisions);
  EXPECT_GT(stats.max_coalesced_batch, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServerEndToEndTest, ProtocolErrorsAreScopedCorrectly) {
  ServerFixture fx;

  // Fatal: submit before hello closes the connection.
  {
    BlockingClient probe;
    // Hand-rolled: connect without the Hello handshake.
    BlockingClient raw;
    ASSERT_TRUE(raw.Connect("127.0.0.1", fx.server.port(), "x").ok());
    // A fatal error: duplicate hello.
    ClientResponse resp;
    ASSERT_TRUE(raw.SubmitText("nonsense", &resp).ok());
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(resp.error, ErrorCode::kParseError);  // non-fatal
    // Unknown template id is fatal: server answers kError then closes.
    ASSERT_TRUE(raw.Submit(777, &resp).ok());
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(resp.error, ErrorCode::kUnknownTemplate);
    uint64_t epoch;
    EXPECT_FALSE(raw.Ping(&epoch).ok());  // connection is gone
  }

  // Non-fatal kParseError keeps the connection and per-connection order.
  {
    BlockingClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", fx.server.port(), "scoped").ok());
    const auto pool = RandomWorkload(&fx.fb.schema, 2, 1, 0x1ULL);
    const std::string good = cq::ToDatalog(pool[0], fx.fb.schema);
    c.QueueSubmitText(good);
    c.QueueSubmitText("Q(x) :- NoSuchRelation(x)");
    c.QueueSubmitText(good);
    ASSERT_TRUE(c.Flush().ok());
    ClientResponse r1, r2, r3;
    ASSERT_TRUE(c.ReadResponse(&r1).ok());
    ASSERT_TRUE(c.ReadResponse(&r2).ok());
    ASSERT_TRUE(c.ReadResponse(&r3).ok());
    EXPECT_EQ(r1.type, FrameType::kDecision);
    EXPECT_EQ(r2.type, FrameType::kError);
    EXPECT_EQ(r2.error, ErrorCode::kParseError);
    EXPECT_EQ(r3.type, FrameType::kDecision);
    uint64_t epoch = 0;
    EXPECT_TRUE(c.Ping(&epoch).ok());  // still alive
  }

  // Bad magic in the hello is rejected.
  {
    BlockingClient c;
    Status s = c.Connect("127.0.0.1", fx.server.port(), "");
    EXPECT_FALSE(s.ok());  // empty principal → kBadPrincipal
  }
}

// A malformed kSubmitText close to the 1 MiB payload cap gets a kError the
// client can decode (the message quotes an excerpt, and AppendError clamps
// any message to kMaxPayload), and the connection keeps answering.
TEST(ServerEndToEndTest, HugeMalformedTextGetsDecodableError) {
  ServerFixture fx;
  BlockingClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", fx.server.port(), "huge").ok());
  const auto pool = RandomWorkload(&fx.fb.schema, 1, 1, 0x2ULL);
  const std::string good = cq::ToDatalog(pool[0], fx.fb.schema);
  std::string trailing = good + " ";
  trailing.resize(kMaxPayload - 16, '!');
  std::string unknown = "Q(x) :- ";
  unknown.resize(kMaxPayload - 16, 'R');
  unknown += "(x)";
  for (const std::string& text : {trailing, unknown}) {
    ASSERT_LE(text.size(), kMaxPayload);
    ClientResponse resp;
    ASSERT_TRUE(c.SubmitText(text, &resp).ok());
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(resp.error, ErrorCode::kParseError);
    EXPECT_LT(resp.text.size(), 256u);
    ASSERT_TRUE(c.SubmitText(good, &resp).ok());
    EXPECT_EQ(resp.type, FrameType::kDecision);
  }
}

TEST(ServerEndToEndTest, ServedStatsAreValidJsonAndPingReportsEpoch) {
  ServerFixture fx;
  BlockingClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", fx.server.port(), "statsapp").ok());
  const auto pool = RandomWorkload(&fx.fb.schema, 2, 4, 0x77ULL);
  for (const auto& q : pool) {
    ClientResponse resp;
    ASSERT_TRUE(c.SubmitText(cq::ToDatalog(q, fx.fb.schema), &resp).ok());
  }

  std::string json;
  ASSERT_TRUE(c.StatsJson(&json).ok());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"submitted\":4"), std::string::npos) << json;

  uint64_t epoch = 0;
  ASSERT_TRUE(c.Ping(&epoch).ok());
  EXPECT_EQ(epoch, fx.engine.Snapshot()->epoch());

  // Epoch visible over the wire tracks UpdatePolicy.
  fx.engine.UpdatePolicy(fx.policy);
  ASSERT_TRUE(c.Ping(&epoch).ok());
  EXPECT_EQ(epoch, 2u);
}

// Multi-worker path (SO_REUSEPORT or shared accept): many connections land
// on different workers and all serve correctly.
TEST(ServerEndToEndTest, MultiWorkerServesManyConnections) {
  ServerOptions opts;
  opts.workers = 2;
  ServerFixture fx(/*policy_seed=*/5, opts);
  const auto pool = RandomWorkload(&fx.fb.schema, 2, 8, 0x22ULL);

  constexpr int kClients = 8;
  std::vector<BlockingClient> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i]
                    .Connect("127.0.0.1", fx.server.port(),
                             "mw-" + std::to_string(i))
                    .ok());
  }
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < kClients; ++i) {
      ClientResponse resp;
      ASSERT_TRUE(clients[i]
                      .SubmitText(cq::ToDatalog(pool[round % pool.size()],
                                                fx.fb.schema),
                                  &resp)
                      .ok());
      ASSERT_EQ(resp.type, FrameType::kDecision);
    }
  }
  const DisclosureServer::Stats stats = fx.server.stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.decisions, 16u * kClients);
}

// --- pre-labeled templates ------------------------------------------------

// The labeler counters that move whenever a query reaches a label tier.
struct TierCounts {
  uint64_t frozen_hits, overlay_hits, overlay_misses, stateless_fallbacks;
  explicit TierCounts(const engine::ConcurrentLabeler::Stats& s)
      : frozen_hits(s.frozen_hits),
        overlay_hits(s.overlay_hits),
        overlay_misses(s.overlay_misses),
        stateless_fallbacks(s.stateless_fallbacks) {}
  uint64_t total() const {
    return frozen_hits + overlay_hits + overlay_misses + stateless_fallbacks;
  }
};

// A template is labeled once, at registration: its kSubmits (pipelined,
// call/response, with and without kFlagExplain) reach no label tier, and
// each raises prelabeled_decisions by one. A kSubmitText of the same text
// still goes through the labeler and is not counted.
TEST(ServerEndToEndTest, TemplateSubmitsReuseTheRegistrationLabel) {
  ServerFixture fx;
  const auto pool = RandomWorkload(&fx.fb.schema, 2, 24, 0x9a6eULL);
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server.port(), "prelabeled").ok());
  for (size_t t = 0; t < pool.size(); ++t) {
    ASSERT_TRUE(client
                    .RegisterTemplate(static_cast<uint32_t>(t),
                                      cq::ToDatalog(pool[t], fx.fb.schema))
                    .ok());
  }
  const TierCounts before(fx.engine.Stats().labeler);
  const DisclosureServer::Stats server_before = fx.server.stats();
  // Registration resolved every template's label through some tier.
  EXPECT_GE(before.total(), pool.size());

  Rng rng(0x1abe1ULL);
  constexpr int kPipelined = 200;
  for (int i = 0; i < kPipelined; ++i) {
    client.QueueSubmit(static_cast<uint32_t>(rng.Below(pool.size())),
                       /*explain=*/i % 7 == 0);
  }
  ASSERT_TRUE(client.Flush().ok());
  for (int i = 0; i < kPipelined; ++i) {
    ClientResponse resp;
    ASSERT_TRUE(client.ReadResponse(&resp).ok());
    ASSERT_EQ(resp.type, FrameType::kDecision);
    EXPECT_EQ(resp.text.empty(), i % 7 != 0) << "response " << i;
  }
  constexpr int kCalls = 20;
  for (int i = 0; i < kCalls; ++i) {
    ClientResponse resp;
    ASSERT_TRUE(client
                    .Submit(static_cast<uint32_t>(rng.Below(pool.size())),
                            &resp, /*explain=*/i % 2 == 0)
                    .ok());
    ASSERT_EQ(resp.type, FrameType::kDecision);
  }
  constexpr uint64_t kN = kPipelined + kCalls;

  const TierCounts after(fx.engine.Stats().labeler);
  EXPECT_EQ(after.frozen_hits, before.frozen_hits);
  EXPECT_EQ(after.overlay_hits, before.overlay_hits);
  EXPECT_EQ(after.overlay_misses, before.overlay_misses);
  EXPECT_EQ(after.stateless_fallbacks, before.stateless_fallbacks);
  const DisclosureServer::Stats server_after = fx.server.stats();
  EXPECT_EQ(server_after.prelabeled_decisions -
                server_before.prelabeled_decisions,
            kN);
  EXPECT_EQ(server_after.decisions - server_before.decisions, kN);

  ClientResponse resp;
  ASSERT_TRUE(
      client.SubmitText(cq::ToDatalog(pool[0], fx.fb.schema), &resp).ok());
  ASSERT_EQ(resp.type, FrameType::kDecision);
  EXPECT_EQ(TierCounts(fx.engine.Stats().labeler).total(), after.total() + 1);
  EXPECT_EQ(fx.server.stats().prelabeled_decisions,
            server_after.prelabeled_decisions);

  std::string json;
  ASSERT_TRUE(client.StatsJson(&json).ok());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"prelabeled_decisions\":" + std::to_string(kN)),
            std::string::npos)
      << json;
}

// Submit-by-id over the wire is bit-identical to direct Submit(query) on a
// twin engine — decisions, epochs, explanations and shadow divergence
// counts — across a mid-stream UpdatePolicy and a staged shadow policy,
// with half the templates in the frozen tier and half labeled into the
// overlay at registration, and with every round's frames from all
// connections (kSubmit and kSubmitText mixed) in flight at once so that
// coalesced wakes interleave pre-labeled and unlabeled requests.
TEST(ServerEndToEndTest, PrelabeledSubmitsMatchTwinEngine) {
  FbFixture fb;
  const auto pool = RandomWorkload(&fb.schema, 2, 48, 0x7e11ULL);
  const std::span<const cq::ConjunctiveQuery> warm(pool.data(),
                                                   pool.size() / 2);
  workload::PolicyOptions popts;
  popts.max_partitions = 5;
  popts.max_elements_per_partition = 15;
  const policy::SecurityPolicy policy_a =
      workload::PolicyGenerator(&fb.catalog, popts, 21).Next();
  const policy::SecurityPolicy policy_b =
      workload::PolicyGenerator(&fb.catalog, popts, 22).Next();
  const policy::SecurityPolicy candidate =
      workload::PolicyGenerator(&fb.catalog, popts, 23).Next();
  engine::DisclosureEngine served(/*db=*/nullptr, &fb.catalog, policy_a, {},
                                  warm);
  engine::DisclosureEngine twin(/*db=*/nullptr, &fb.catalog, policy_a, {},
                                warm);
  DisclosureServer server(&served, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::vector<BlockingClient> clients(kClients);
  std::vector<std::string> texts;
  for (const auto& q : pool) texts.push_back(cq::ToDatalog(q, fb.schema));
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(clients[c]
                    .Connect("127.0.0.1", server.port(),
                             "twin-" + std::to_string(c))
                    .ok());
    for (size_t t = 0; t < pool.size(); ++t) {
      ASSERT_TRUE(
          clients[c].RegisterTemplate(static_cast<uint32_t>(t), texts[t]).ok());
    }
  }
  // Both tiers served the registrations: the warm half from the frozen
  // tier, the rest labeled into the overlay.
  const TierCounts registered(served.Stats().labeler);
  EXPECT_GT(registered.frozen_hits, 0u);
  EXPECT_GT(registered.overlay_misses, 0u);

  struct Sent {
    size_t query;
    bool text;
    bool explain;
  };
  constexpr int kRounds = 8;
  constexpr int kPerRound = 24;
  Rng rng(0x7a1eULL);
  uint64_t template_submits = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (round == 3) {
      served.UpdatePolicy(policy_b);
      twin.UpdatePolicy(policy_b);
    }
    if (round == 5) {
      served.SetShadowPolicy(candidate, "candidate");
      twin.SetShadowPolicy(candidate, "candidate");
    }
    std::vector<std::vector<Sent>> sent(kClients);
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPerRound; ++i) {
        // Only a connection's last frame of the round asks for a
        // diagnosis: the server explains after the whole wake is decided,
        // so an earlier one could see later decisions' narrowing.
        const bool last = i + 1 == kPerRound;
        Sent s{rng.Below(pool.size()),
               last ? (round + c) % 2 == 1 : rng.Below(3) == 0, last};
        if (s.text) {
          clients[c].QueueSubmitText(texts[s.query], s.explain);
        } else {
          clients[c].QueueSubmit(static_cast<uint32_t>(s.query), s.explain);
          ++template_submits;
        }
        sent[c].push_back(s);
      }
    }
    for (int c = 0; c < kClients; ++c) ASSERT_TRUE(clients[c].Flush().ok());
    for (int c = 0; c < kClients; ++c) {
      const std::string principal = "twin-" + std::to_string(c);
      for (size_t i = 0; i < sent[c].size(); ++i) {
        const Sent& s = sent[c][i];
        ClientResponse resp;
        ASSERT_TRUE(clients[c].ReadResponse(&resp).ok());
        ASSERT_EQ(resp.type, FrameType::kDecision);
        const uint64_t epoch = twin.Snapshot()->epoch();
        EXPECT_EQ(resp.allow, twin.Submit(principal, pool[s.query]))
            << "round " << round << " client " << c << " frame " << i;
        EXPECT_EQ(resp.epoch, epoch)
            << "round " << round << " client " << c << " frame " << i;
        if (s.explain) {
          EXPECT_EQ(resp.text,
                    twin.ExplainQuery(principal, pool[s.query]).ToString())
              << "round " << round << " client " << c;
        }
      }
    }
  }

  const auto got = served.Stats();
  const auto want = twin.Stats();
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.refused, want.refused);
  EXPECT_GT(got.accepted, 0u);
  EXPECT_GT(got.refused, 0u);
  EXPECT_EQ(got.shadow.evaluated, want.shadow.evaluated);
  EXPECT_EQ(got.shadow.agree, want.shadow.agree);
  EXPECT_EQ(got.shadow.shadow_stricter, want.shadow.shadow_stricter);
  EXPECT_EQ(got.shadow.shadow_looser, want.shadow.shadow_looser);
  EXPECT_GT(got.shadow.evaluated, 0u);
  const DisclosureServer::Stats stats = server.stats();
  EXPECT_EQ(stats.decisions, uint64_t{kRounds} * kPerRound * kClients);
  EXPECT_EQ(stats.prelabeled_decisions, template_submits);
  EXPECT_EQ(stats.protocol_errors, 0u);
  server.Stop();
}

// --- engine-level coalescing oracle --------------------------------------

TEST(SubmitCoalescedTest, MatchesSequentialSubmitExactly) {
  FbFixture fb;
  workload::PolicyOptions popts;
  popts.max_partitions = 5;
  popts.max_elements_per_partition = 15;
  for (uint64_t seed : {0x1ULL, 0xabcdULL}) {
    policy::SecurityPolicy policy =
        workload::PolicyGenerator(&fb.catalog, popts, seed).Next();
    engine::DisclosureEngine coalesced(/*db=*/nullptr, &fb.catalog, policy);
    engine::DisclosureEngine sequential(/*db=*/nullptr, &fb.catalog, policy);

    const auto pool = RandomWorkload(&fb.schema, 2, 64, seed ^ 0x777);
    Rng rng(seed + 5);
    std::vector<std::string> principals;
    for (int p = 0; p < 5; ++p) principals.push_back("p" + std::to_string(p));

    int applied = 0;
    while (applied < 400) {
      // Random interleaved cross-principal batch, like one epoll wake.
      const int batch = 1 + static_cast<int>(rng.Below(48));
      std::vector<engine::DisclosureEngine::SubmitRequest> requests;
      for (int i = 0; i < batch; ++i) {
        requests.push_back({principals[rng.Below(principals.size())],
                            &pool[rng.Below(pool.size())]});
      }
      std::vector<bool> decisions;
      std::vector<uint64_t> epochs;
      coalesced.SubmitCoalesced(requests, &decisions, &epochs);
      ASSERT_EQ(decisions.size(), requests.size());
      ASSERT_EQ(epochs.size(), requests.size());
      for (int i = 0; i < batch; ++i) {
        const bool expect = sequential.Submit(
            std::string(requests[i].principal), *requests[i].query);
        ASSERT_EQ(decisions[i], expect)
            << "divergence at offset " << applied + i << " seed " << seed;
        EXPECT_EQ(epochs[i], sequential.Snapshot()->epoch());
      }
      applied += batch;
    }

    // Aggregate accept/refuse counters agree too.
    const auto a = coalesced.Stats();
    const auto b = sequential.Stats();
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_EQ(a.submitted, b.submitted);
  }
}

// Requests that carry their label and requests that do not, interleaved
// in one SubmitCoalesced call: the k-th unlabeled request must receive the
// k-th label of the batched pass, so decisions and epochs match sequential
// Submit exactly. An all-labeled call reaches no label tier.
TEST(SubmitCoalescedTest, PrelabeledAndUnlabeledRequestsInterleave) {
  FbFixture fb;
  workload::PolicyOptions popts;
  popts.max_partitions = 5;
  popts.max_elements_per_partition = 15;
  const policy::SecurityPolicy policy_a =
      workload::PolicyGenerator(&fb.catalog, popts, 0x31).Next();
  const policy::SecurityPolicy policy_b =
      workload::PolicyGenerator(&fb.catalog, popts, 0x32).Next();
  engine::DisclosureEngine coalesced(/*db=*/nullptr, &fb.catalog, policy_a);
  engine::DisclosureEngine sequential(/*db=*/nullptr, &fb.catalog, policy_a);

  const auto pool = RandomWorkload(&fb.schema, 2, 64, 0x1abe1ULL);
  std::vector<label::DisclosureLabel> labels;
  for (const auto& q : pool) labels.push_back(coalesced.Explain(q));
  std::vector<std::string> principals;
  for (int p = 0; p < 5; ++p) principals.push_back("p" + std::to_string(p));

  Rng rng(0xc0a1ULL);
  for (int round = 0; round < 40; ++round) {
    if (round == 20) {
      coalesced.UpdatePolicy(policy_b);
      sequential.UpdatePolicy(policy_b);
    }
    // Every fourth call is all pre-labeled; the rest mix at random.
    const bool all_labeled = round % 4 == 0;
    const int batch = 1 + static_cast<int>(rng.Below(48));
    std::vector<engine::DisclosureEngine::SubmitRequest> requests;
    for (int i = 0; i < batch; ++i) {
      const size_t q = rng.Below(pool.size());
      const bool labeled = all_labeled || rng.Below(2) == 0;
      requests.push_back({principals[rng.Below(principals.size())], &pool[q],
                          labeled ? &labels[q] : nullptr});
    }
    const TierCounts before(coalesced.Stats().labeler);
    std::vector<bool> decisions;
    std::vector<uint64_t> epochs;
    coalesced.SubmitCoalesced(requests, &decisions, &epochs);
    if (all_labeled) {
      EXPECT_EQ(TierCounts(coalesced.Stats().labeler).total(), before.total());
    }
    ASSERT_EQ(decisions.size(), requests.size());
    for (int i = 0; i < batch; ++i) {
      const std::string principal(requests[i].principal);
      ASSERT_EQ(decisions[i], sequential.Submit(principal, *requests[i].query))
          << "round " << round << " offset " << i;
      EXPECT_EQ(epochs[i], sequential.Snapshot()->epoch());
    }
  }
  const auto a = coalesced.Stats();
  const auto b = sequential.Stats();
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_GT(a.accepted, 0u);
  EXPECT_GT(a.refused, 0u);

  // The label overload of ExplainQuery gives the query overload's output.
  for (const std::string& principal : principals) {
    for (size_t q = 0; q < pool.size(); q += 7) {
      EXPECT_EQ(coalesced.ExplainQuery(principal, labels[q]).ToString(),
                coalesced.ExplainQuery(principal, pool[q]).ToString())
          << principal << " query " << q;
    }
  }
}

}  // namespace
}  // namespace fdc::server
