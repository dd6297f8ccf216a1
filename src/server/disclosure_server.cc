#include "server/disclosure_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cq/canonical.h"
#include "cq/datalog_parser.h"
#include "engine/stats_json.h"
#include "policy/explain.h"
#include "server/byte_queue.h"
#include "server/failpoints.h"
#include "server/protocol.h"

namespace fdc::server {

namespace {

/// Per-connection cap on bytes read in one wake: fairness across
/// connections on a worker. Level-triggered epoll re-signals the rest.
constexpr size_t kReadBudget = 256 * 1024;

/// Coarse monotone clock for the deadline machinery; read once per wake.
int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One registered template: its canonical form and the label resolved for
/// it at registration. A label depends only on the query and the engine's
/// catalog, which never changes, so every kSubmit of the template decides
/// on this one label.
struct Template {
  cq::ConjunctiveQuery query;
  label::DisclosureLabel label;
};

struct Connection {
  int fd = -1;
  bool got_hello = false;
  bool want_close = false;  // flush staged output, then close
  bool paused = false;      // EPOLLIN dropped (write-queue backpressure)
  bool epollout = false;    // EPOLLOUT armed (partial write pending)
  bool touched = false;     // has output staged this wake
  bool dead = false;        // fd closed; object destroyed at wake end
  uint32_t pending_submits = 0;  // submits awaiting this wake's batch
  int64_t created_ms = 0;   // accept time: the handshake deadline base
  int64_t last_ms = 0;      // last read/write progress (idle + linger base)
  std::string principal;
  // Registered templates, dense by client-chosen id. unique_ptr for
  // pointer stability: pending submit requests hold raw pointers into
  // this table across the wake.
  std::vector<std::unique_ptr<Template>> templates;
  ByteQueue in;
  ByteQueue out;
};

/// Creates a bound+listening nonblocking IPv4 socket. Returns the fd, -1
/// on hard failure (*error set), or -2 when only the SO_REUSEPORT
/// setsockopt failed (caller may retry in shared-accept mode).
int CreateListenSocket(const std::string& host, uint16_t port,
                       bool reuseport, uint16_t* bound_port,
                       std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    ::close(fd);
    *error = std::string("SO_REUSEPORT: ") + std::strerror(errno);
    return -2;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    *error = "not an IPv4 address: " + host;
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 1024) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

}  // namespace

struct DisclosureServer::Worker {
  DisclosureServer* server = nullptr;
  const ServerOptions* opts = nullptr;
  engine::DisclosureEngine* engine = nullptr;
  int epoll_fd = -1;
  int listen_fd = -1;
  bool owns_listen = false;
  int wake_fd = -1;
  std::thread thread;

  // Reserved fd for EMFILE recovery (held on /dev/null): closing it frees
  // exactly one descriptor slot, so the pending connection can be accepted
  // and refused with a real kServerBusy instead of sitting in the backlog
  // re-signaling the level-triggered listener forever.
  int spare_fd = -1;
  uint32_t listen_events = EPOLLIN;  // to re-arm after an accept pause
  bool accept_paused = false;
  int64_t accept_resume_ms = 0;
  bool drain_announced = false;
  bool force_closing = false;        // inside the drain-deadline sweep
  int64_t drain_deadline_abs = 0;
  int64_t now_ms = 0;                // steady-clock ms, refreshed per wake

  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  // Closed mid-wake: the object outlives the fd until the wake epilogue so
  // staged pointers stay valid even if accept() reuses the fd number.
  std::vector<std::unique_ptr<Connection>> graveyard;

  // --- per-wake coalescing state -----------------------------------------
  // Responses are resolved strictly in arrival order per connection: a
  // non-submit response is staged immediately only while its connection
  // has no submit awaiting the batch; otherwise it rides the op queue so
  // it lands after the decisions that precede it.
  struct PendingOp {
    Connection* conn = nullptr;
    int64_t submit_index = -1;  // index into `requests`, or -1
    uint8_t flags = 0;
    std::string immediate;      // pre-encoded response iff submit_index < 0
  };
  std::vector<PendingOp> ops;
  std::vector<engine::DisclosureEngine::SubmitRequest> requests;
  size_t prelabeled = 0;  // requests carrying a template's label
  std::deque<cq::ConjunctiveQuery> text_queries;  // kSubmitText bodies
  std::vector<Connection*> touched;
  std::vector<bool> decisions;
  std::vector<uint64_t> epochs;

  // Counters. Atomics only because stats() reads them from other threads;
  // each is written by this worker's thread alone (relaxed everywhere).
  std::atomic<uint64_t> c_accepted{0};
  std::atomic<uint64_t> c_rejected{0};
  std::atomic<uint64_t> c_closed{0};
  std::atomic<uint64_t> c_protocol_errors{0};
  std::atomic<uint64_t> c_frames{0};
  std::atomic<uint64_t> c_decisions{0};
  std::atomic<uint64_t> c_prelabeled{0};
  std::atomic<uint64_t> c_batches{0};
  std::atomic<uint64_t> c_max_batch{0};
  std::atomic<uint64_t> c_backpressure{0};
  std::atomic<uint64_t> c_bytes_in{0};
  std::atomic<uint64_t> c_bytes_out{0};
  std::atomic<uint64_t> c_handshake_reaps{0};
  std::atomic<uint64_t> c_idle_reaps{0};
  std::atomic<uint64_t> c_accept_overloads{0};
  std::atomic<uint64_t> c_accept_pauses{0};
  std::atomic<uint64_t> c_goaway{0};
  std::atomic<uint64_t> c_drained{0};
  std::atomic<uint64_t> c_drain_forced{0};

  void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  void Run() {
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    now_ms = NowMs();
    while (server->running_.load(std::memory_order_acquire)) {
      int n = failpoints::EpollWait(epoll_fd, events, kMaxEvents,
                                    EpollTimeoutMs());
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      now_ms = NowMs();
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const uint32_t evs = events[i].events;
        if (fd == wake_fd) {
          uint64_t v;
          while (::read(wake_fd, &v, sizeof(v)) > 0) {
          }
          continue;
        }
        if (fd == listen_fd) {
          Accept();
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        Connection* c = it->second.get();
        if (evs & (EPOLLERR | EPOLLHUP)) {
          CloseConn(c);
          continue;
        }
        if (evs & EPOLLOUT) {
          WriteConn(c);
          if (c->dead) continue;
        }
        if (evs & EPOLLIN) HandleReadable(c);
      }
      // Wake epilogue: one engine pass over everything decoded above,
      // then the deadline machinery, then one write flush per touched
      // connection. BeginDrain sits after the flush so the kGoingAway
      // frame lands behind every response staged this wake.
      FlushCoalesced();
      if (server->draining_.load(std::memory_order_acquire) &&
          !drain_announced) {
        BeginDrain();
      }
      ReapTimeouts();
      MaybeResumeAccept();
      for (Connection* c : touched) {
        c->touched = false;
        if (!c->dead) WriteConn(c);
      }
      touched.clear();
      graveyard.clear();
      if (drain_announced && DrainFinished()) break;
    }
  }

  /// Block indefinitely only while no timed work exists; otherwise wake
  /// at the coarse tick so every deadline fires within one tick of expiry.
  int EpollTimeoutMs() {
    if (drain_announced || accept_paused ||
        server->draining_.load(std::memory_order_relaxed)) {
      return opts->tick_interval_ms;
    }
    if (!conns.empty() &&
        (opts->handshake_timeout_ms > 0 || opts->idle_timeout_ms > 0 ||
         opts->close_linger_ms > 0)) {
      return opts->tick_interval_ms;
    }
    return -1;
  }

  void Accept() {
    while (!accept_paused) {
      int fd = failpoints::Accept4(listen_fd, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EMFILE || errno == ENFILE) {
          HandleFdExhaustion();
          continue;
        }
        return;  // EAGAIN (drained) or a transient error; epoll re-signals
      }
      if (server->live_connections_.load(std::memory_order_relaxed) >=
          opts->max_connections) {
        ShedConnection(fd, "connection limit reached");
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        (void)failpoints::Close(fd);
        continue;
      }
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->created_ms = now_ms;
      conn->last_ms = now_ms;
      conns.emplace(fd, std::move(conn));
      Bump(c_accepted);
      server->live_connections_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// accept() hit EMFILE/ENFILE: every descriptor slot is taken, and the
  /// pending peer will keep the level-triggered listener signaling until
  /// someone accepts it. Free the reserved slot, accept exactly one peer
  /// into it, refuse it with a real kServerBusy, re-reserve — and if even
  /// that cannot make progress, park the listener for accept_pause_ms
  /// instead of hot-spinning.
  void HandleFdExhaustion() {
    Bump(c_accept_overloads);
    if (spare_fd >= 0) {
      ::close(spare_fd);
      spare_fd = -1;
      int fd = failpoints::Accept4(listen_fd, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
      const bool still_exhausted =
          fd < 0 && (errno == EMFILE || errno == ENFILE);
      if (fd >= 0) ShedConnection(fd, "file descriptors exhausted");
      spare_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (spare_fd >= 0 && !still_exhausted) return;
    }
    PauseAccept();
  }

  /// Refuses `fd` with a kServerBusy whose flush is bounded best-effort:
  /// poll for writability up to shed_flush_ms so a normally-draining peer
  /// actually receives the frame (the old nonblocking send racing the
  /// close usually lost it), while a wedged peer cannot hold the accept
  /// loop hostage for more than the budget.
  void ShedConnection(int fd, std::string_view message) {
    // Count before the close: the peer observes the rejection as EOF, and
    // anyone who saw that EOF must also see the counter (on one core the
    // close can wake the peer and deschedule this worker mid-function).
    Bump(c_rejected);
    std::string frame;
    AppendError(&frame, ErrorCode::kServerBusy, 0, message);
    size_t off = 0;
    const int64_t deadline = NowMs() + opts->shed_flush_ms;
    while (off < frame.size()) {
      ssize_t n = failpoints::Send(fd, frame.data() + off,
                                   frame.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        Bump(c_bytes_out, static_cast<uint64_t>(n));
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const int64_t left = deadline - NowMs();
        if (left <= 0) break;
        pollfd pfd{fd, POLLOUT, 0};
        (void)::poll(&pfd, 1, static_cast<int>(left));
        continue;
      }
      break;  // peer already gone
    }
    (void)failpoints::Close(fd);
  }

  void PauseAccept() {
    if (accept_paused) return;
    accept_paused = true;
    accept_resume_ms = now_ms + opts->accept_pause_ms;
    Bump(c_accept_pauses);
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
  }

  void MaybeResumeAccept() {
    if (!accept_paused || drain_announced) return;
    if (now_ms < accept_resume_ms) return;
    accept_paused = false;
    epoll_event ev{};
    ev.events = listen_events;
    ev.data.fd = listen_fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
  }

  /// Drain step 1 (runs once, from the wake epilogue so every response
  /// staged this wake precedes the announcement): stop accepting and
  /// stage kGoingAway on every live connection. The loop keeps answering
  /// whatever the peers already sent — or race in before they see the
  /// frame — and each connection closes when its peer does.
  void BeginDrain() {
    drain_announced = true;
    drain_deadline_abs = now_ms + opts->drain_deadline_ms;
    if (!accept_paused) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
    }
    accept_paused = true;  // permanent: MaybeResumeAccept checks the drain
    const uint64_t epoch = engine->Snapshot()->epoch();
    for (auto& [fd, c] : conns) {
      if (c->dead || c->want_close) continue;
      AppendGoingAway(c->out.tail(), epoch, "server draining");
      Bump(c_goaway);
      Touch(c.get());
    }
  }

  /// Drain step 2 (every tick): done when the last connection closes, or
  /// the budget runs out and the stragglers are hard-closed.
  bool DrainFinished() {
    if (conns.empty()) return true;
    if (now_ms < drain_deadline_abs) return false;
    force_closing = true;
    std::vector<Connection*> rest;
    rest.reserve(conns.size());
    for (auto& [fd, c] : conns) rest.push_back(c.get());
    for (Connection* c : rest) {
      Bump(c_drain_forced);
      CloseConn(c);
    }
    force_closing = false;
    graveyard.clear();
    return true;
  }

  /// The per-tick deadline sweep. Three clocks per connection: handshake
  /// (accept → kHello), idle (last progress on a quiescent session), and
  /// linger (a closing connection whose final flush stopped progressing).
  void ReapTimeouts() {
    if (conns.empty()) return;
    const int hs = opts->handshake_timeout_ms;
    const int idle = opts->idle_timeout_ms;
    const int linger = opts->close_linger_ms;
    if (hs <= 0 && idle <= 0 && linger <= 0) return;
    std::vector<Connection*> stuck;  // CloseConn mutates conns: two-phase
    for (auto& [fd, c] : conns) {
      if (c->dead) continue;
      if (c->want_close) {
        if (linger > 0 && now_ms - c->last_ms >= linger) {
          stuck.push_back(c.get());
        }
        continue;
      }
      if (!c->got_hello) {
        if (hs > 0 && now_ms - c->created_ms >= hs) {
          Bump(c_handshake_reaps);
          Reap(c.get(), "handshake deadline exceeded");
        }
        continue;
      }
      if (idle > 0 && c->out.empty() && c->pending_submits == 0 &&
          now_ms - c->last_ms >= idle) {
        Bump(c_idle_reaps);
        Reap(c.get(), "idle timeout");
      }
    }
    for (Connection* c : stuck) CloseConn(c);
  }

  /// Reaping is an orderly refusal: stage kError(kDeadlineExceeded), then
  /// the normal flush-and-close path (itself bounded by close_linger_ms).
  void Reap(Connection* c, std::string_view why) {
    Bump(c_protocol_errors);
    AppendError(c->out.tail(), ErrorCode::kDeadlineExceeded, 0, why);
    c->want_close = true;
    c->last_ms = now_ms;  // the linger clock starts now
    Touch(c);
  }

  void HandleReadable(Connection* c) {
    char buf[64 * 1024];
    size_t read_this_wake = 0;
    bool eof = false;
    for (;;) {
      ssize_t r = failpoints::Recv(c->fd, buf, sizeof(buf), 0);
      if (r > 0) {
        Bump(c_bytes_in, static_cast<uint64_t>(r));
        c->last_ms = now_ms;
        c->in.Append(buf, static_cast<size_t>(r));
        read_this_wake += static_cast<size_t>(r);
        if (read_this_wake >= kReadBudget) break;
        continue;
      }
      if (r == 0) {  // orderly shutdown: answer what was buffered, then close
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c);
      return;
    }
    ParseFrames(c);
    if (c->dead) return;
    if (eof) {
      c->want_close = true;
      Touch(c);  // epilogue WriteConn flushes any responses, then closes
    }
  }

  void ParseFrames(Connection* c) {
    while (!c->dead && !c->want_close) {
      FrameView frame;
      DecodeResult r = DecodeFrame(c->in.data(), c->in.size(), &frame);
      if (r.status == DecodeStatus::kNeedMore) break;
      if (r.status == DecodeStatus::kError) {
        SendError(c, r.error, 0, "malformed frame envelope");
        c->in.Clear();  // fatal: never interpret bytes past the error
        break;
      }
      Bump(c_frames);
      HandleFrame(c, frame);
      c->in.Consume(r.consumed);
      if (c->want_close) {
        c->in.Clear();
        break;
      }
      if (requests.size() >= opts->max_coalesce) FlushCoalesced();
    }
  }

  void HandleFrame(Connection* c, const FrameView& f) {
    const uint8_t allowed_flags = (f.type == FrameType::kSubmit ||
                                   f.type == FrameType::kSubmitText)
                                      ? kFlagExplain
                                      : 0;
    if ((f.flags & ~allowed_flags) != 0) {
      SendError(c, ErrorCode::kMalformedFrame, f.flags,
                "undefined flag bits");
      return;
    }
    if (!c->got_hello && f.type != FrameType::kHello) {
      SendError(c, ErrorCode::kExpectedHello,
                static_cast<uint32_t>(f.type),
                "first frame must be kHello");
      return;
    }
    switch (f.type) {
      case FrameType::kHello: {
        if (c->got_hello) {
          SendError(c, ErrorCode::kDuplicateHello, 0, "second kHello");
          return;
        }
        HelloPayload hello;
        if (!ParseHello(f.payload, &hello)) {
          SendError(c, ErrorCode::kMalformedFrame, 0, "short kHello payload");
          return;
        }
        if (hello.magic != kMagic) {
          SendError(c, ErrorCode::kBadMagic, hello.magic, "bad magic");
          return;
        }
        if (hello.version != kProtocolVersion) {
          SendError(c, ErrorCode::kBadVersion, hello.version,
                    "unsupported protocol version");
          return;
        }
        if (hello.principal.empty() ||
            hello.principal.size() > kMaxPrincipalLen) {
          SendError(c, ErrorCode::kBadPrincipal,
                    static_cast<uint32_t>(hello.principal.size()),
                    "principal must be 1..256 bytes");
          return;
        }
        c->got_hello = true;
        c->principal.assign(hello.principal);
        std::string ack;
        AppendHelloAck(&ack, engine->Snapshot()->epoch(), kMaxPayload);
        Respond(c, std::move(ack));
        return;
      }
      case FrameType::kRegisterTemplate: {
        uint32_t id = 0;
        std::string_view text;
        if (!ParseTemplateId(f.payload, &id, &text)) {
          SendError(c, ErrorCode::kMalformedFrame, 0,
                    "short kRegisterTemplate payload");
          return;
        }
        if (id >= opts->max_templates) {
          SendError(c, ErrorCode::kBadTemplateId, id,
                    "template id over the per-connection cap");
          return;
        }
        if (id < c->templates.size() && c->templates[id] != nullptr) {
          SendError(c, ErrorCode::kDuplicateTemplate, id,
                    "template id already registered");
          return;
        }
        auto parsed =
            cq::ParseDatalog(text, engine->frozen().catalog().schema());
        if (!parsed.ok()) {
          SendError(c, ErrorCode::kParseError, id, parsed.status().message());
          return;  // non-fatal: the ack slot carries the error instead
        }
        if (id >= c->templates.size()) c->templates.resize(id + 1);
        // Canonicalize and label once at registration: every subsequent
        // submit of this template carries the label into SubmitCoalesced
        // and is decided without touching the labeler.
        auto slot = std::make_unique<Template>();
        slot->query = cq::Canonicalize(std::move(parsed).value());
        slot->label = engine->Explain(slot->query);
        c->templates[id] = std::move(slot);
        std::string ack;
        AppendTemplateAck(&ack, id);
        Respond(c, std::move(ack));
        return;
      }
      case FrameType::kSubmit: {
        uint32_t id = 0;
        if (f.payload.size() != 4 || !ParseTemplateId(f.payload, &id, nullptr)) {
          SendError(c, ErrorCode::kMalformedFrame, 0,
                    "kSubmit payload must be exactly a u32 id");
          return;
        }
        if (id >= c->templates.size() || c->templates[id] == nullptr) {
          SendError(c, ErrorCode::kUnknownTemplate, id,
                    "submit for an unregistered template");
          return;
        }
        const Template& t = *c->templates[id];
        EnqueueSubmit(c, &t.query, &t.label, f.flags);
        return;
      }
      case FrameType::kSubmitText: {
        std::string_view text(reinterpret_cast<const char*>(f.payload.data()),
                              f.payload.size());
        auto parsed =
            cq::ParseDatalog(text, engine->frozen().catalog().schema());
        if (!parsed.ok()) {
          SendError(c, ErrorCode::kParseError, 0, parsed.status().message());
          return;  // non-fatal: kError in place of the decision
        }
        text_queries.push_back(std::move(parsed).value());
        EnqueueSubmit(c, &text_queries.back(), nullptr, f.flags);
        return;
      }
      case FrameType::kStatsRequest: {
        if (!f.payload.empty()) {
          SendError(c, ErrorCode::kMalformedFrame, 0,
                    "kStatsRequest carries no payload");
          return;
        }
        std::string resp;
        AppendStatsJson(&resp,
                        engine::StatsToJson(engine->Stats(), "server",
                                            server->StatsJsonFragment()));
        Respond(c, std::move(resp));
        return;
      }
      case FrameType::kPing: {
        if (!f.payload.empty()) {
          SendError(c, ErrorCode::kMalformedFrame, 0,
                    "kPing carries no payload");
          return;
        }
        std::string resp;
        AppendPong(&resp, engine->Snapshot()->epoch());
        Respond(c, std::move(resp));
        return;
      }
      default:
        SendError(c, ErrorCode::kUnknownType, static_cast<uint32_t>(f.type),
                  "server-to-client frame type from a client");
        return;
    }
  }

  /// `label` is the template's registration-time label, or null for a
  /// kSubmitText body (labeled in the coalesced pass).
  void EnqueueSubmit(Connection* c, const cq::ConjunctiveQuery* query,
                     const label::DisclosureLabel* label, uint8_t flags) {
    requests.push_back({c->principal, query, label});
    if (label != nullptr) ++prelabeled;
    PendingOp op;
    op.conn = c;
    op.submit_index = static_cast<int64_t>(requests.size()) - 1;
    op.flags = flags;
    ops.push_back(std::move(op));
    ++c->pending_submits;
  }

  /// Stages one response frame, preserving per-connection request order:
  /// immediate while no submit is pending, queued behind the batch
  /// otherwise.
  void Respond(Connection* c, std::string&& bytes) {
    if (c->pending_submits > 0) {
      PendingOp op;
      op.conn = c;
      op.immediate = std::move(bytes);
      ops.push_back(std::move(op));
      return;
    }
    c->out.tail()->append(bytes);
    Touch(c);
    CheckBackpressure(c);
  }

  void SendError(Connection* c, ErrorCode code, uint32_t detail,
                 std::string_view message) {
    Bump(c_protocol_errors);
    std::string frame;
    AppendError(&frame, code, detail, message);
    Respond(c, std::move(frame));
    if (IsFatal(code)) c->want_close = true;
  }

  void Touch(Connection* c) {
    if (!c->touched) {
      c->touched = true;
      touched.push_back(c);
    }
  }

  void CheckBackpressure(Connection* c) {
    if (c->dead || c->paused) return;
    if (c->out.size() > opts->write_queue_limit) {
      c->paused = true;
      Bump(c_backpressure);
      UpdateInterest(c);
    }
  }

  /// One engine pass over every submit decoded since the last flush, then
  /// resolve the op queue in arrival order into per-connection out queues.
  void FlushCoalesced() {
    if (ops.empty()) return;
    if (!requests.empty()) {
      engine->SubmitCoalesced(requests, &decisions, &epochs);
      Bump(c_batches);
      Bump(c_decisions, requests.size());
      Bump(c_prelabeled, prelabeled);
      if (requests.size() > c_max_batch.load(std::memory_order_relaxed)) {
        c_max_batch.store(requests.size(), std::memory_order_relaxed);
      }
    }
    for (PendingOp& op : ops) {
      Connection* c = op.conn;
      if (op.submit_index >= 0) {
        const size_t i = static_cast<size_t>(op.submit_index);
        if ((op.flags & kFlagExplain) != 0) {
          // A template's explanation comes from its registration label;
          // a kSubmitText body is labeled again (an overlay hit by now).
          const engine::DisclosureEngine::SubmitRequest& r = requests[i];
          policy::Explanation ex =
              r.label != nullptr ? engine->ExplainQuery(c->principal, *r.label)
                                 : engine->ExplainQuery(c->principal, *r.query);
          AppendDecision(c->out.tail(), decisions[i], epochs[i],
                         ex.ToString());
        } else {
          AppendDecision(c->out.tail(), decisions[i], epochs[i]);
        }
      } else {
        c->out.tail()->append(op.immediate);
      }
      Touch(c);
    }
    for (PendingOp& op : ops) {
      op.conn->pending_submits = 0;
      CheckBackpressure(op.conn);
    }
    ops.clear();
    requests.clear();
    prelabeled = 0;
    text_queries.clear();
  }

  void WriteConn(Connection* c) {
    if (c->dead) return;
    while (!c->out.empty()) {
      ssize_t n = failpoints::Send(c->fd, c->out.data(), c->out.size(),
                                   MSG_NOSIGNAL);
      if (n >= 0) {
        Bump(c_bytes_out, static_cast<uint64_t>(n));
        if (n > 0) c->last_ms = now_ms;
        c->out.Consume(static_cast<size_t>(n));
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c->epollout) {
          c->epollout = true;
          UpdateInterest(c);
        }
        MaybeResume(c);
        return;
      }
      CloseConn(c);  // EPIPE / ECONNRESET / ...
      return;
    }
    if (c->epollout) {
      c->epollout = false;
      UpdateInterest(c);
    }
    if (c->want_close) {
      CloseConn(c);
      return;
    }
    MaybeResume(c);
  }

  void MaybeResume(Connection* c) {
    if (c->paused && !c->want_close &&
        c->out.size() <= opts->write_queue_limit / 2) {
      c->paused = false;
      UpdateInterest(c);
    }
  }

  void UpdateInterest(Connection* c) {
    epoll_event ev{};
    ev.events = (c->paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                (c->epollout ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = c->fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void CloseConn(Connection* c) {
    if (c->dead) return;
    c->dead = true;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    (void)failpoints::Close(c->fd);
    Bump(c_closed);
    if (drain_announced && !force_closing) Bump(c_drained);
    server->live_connections_.fetch_sub(1, std::memory_order_relaxed);
    auto it = conns.find(c->fd);
    if (it != conns.end() && it->second.get() == c) {
      graveyard.push_back(std::move(it->second));
      conns.erase(it);
    }
    c->fd = -1;
  }
};

DisclosureServer::DisclosureServer(engine::DisclosureEngine* engine,
                                   ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

DisclosureServer::~DisclosureServer() { Stop(); }

Status DisclosureServer::Start() {
  if (started_) return Status::Internal("Start() called twice");
  started_ = true;
  // A peer closing mid-write must surface as EPIPE on that connection,
  // never kill the process. Sends also pass MSG_NOSIGNAL; this covers any
  // other code in the process writing to sockets.
  std::signal(SIGPIPE, SIG_IGN);
  // Fault injection for out-of-process runs (the CI stress jobs): a set
  // FDC_FAILPOINTS variable arms the harness; absent or malformed, the
  // zero-overhead disabled path stays in effect.
  failpoints::EnableFromEnv();

  const int nworkers = options_.workers < 1 ? 1 : options_.workers;
  bool reuseport = nworkers > 1;
  std::string error;
  uint16_t bound = 0;
  int first_fd = CreateListenSocket(options_.host, options_.port, reuseport,
                                    &bound, &error);
  if (first_fd == -2) {  // kernel without SO_REUSEPORT: shared accept
    reuseport = false;
    first_fd = CreateListenSocket(options_.host, options_.port, false, &bound,
                                  &error);
  }
  if (first_fd < 0) return Status::InvalidArgument(error);
  port_ = bound;

  auto fail = [&](std::string msg) {
    for (auto& w : workers_) {
      if (w->owns_listen && w->listen_fd >= 0) ::close(w->listen_fd);
      if (w->epoll_fd >= 0) ::close(w->epoll_fd);
      if (w->wake_fd >= 0) ::close(w->wake_fd);
      if (w->spare_fd >= 0) ::close(w->spare_fd);
    }
    workers_.clear();
    ::close(first_fd);
    return Status::Internal(std::move(msg));
  };

  for (int i = 0; i < nworkers; ++i) {
    auto w = std::make_unique<Worker>();
    w->server = this;
    w->opts = &options_;
    w->engine = engine_;
    if (i == 0) {
      w->listen_fd = first_fd;
      w->owns_listen = true;
    } else if (reuseport) {
      uint16_t p = 0;
      int fd = CreateListenSocket(options_.host, port_, true, &p, &error);
      if (fd < 0) {
        workers_.push_back(std::move(w));
        return fail("worker listen socket: " + error);
      }
      w->listen_fd = fd;
      w->owns_listen = true;
    } else {
      w->listen_fd = first_fd;  // shared accept socket
      w->owns_listen = false;
    }
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    w->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->epoll_fd < 0 || w->wake_fd < 0) {
      workers_.push_back(std::move(w));
      return fail(std::string("epoll/eventfd: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->wake_fd;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev);
    ev.events = EPOLLIN;
#ifdef EPOLLEXCLUSIVE
    // Shared accept socket: wake one worker per pending connection instead
    // of the whole herd.
    if (!reuseport && nworkers > 1) ev.events |= EPOLLEXCLUSIVE;
#endif
    ev.data.fd = w->listen_fd;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->listen_fd, &ev);
    w->listen_events = ev.events;
    // Best-effort: with no spare, fd exhaustion degrades to the timed
    // accept pause instead of the shed-with-busy path.
    w->spare_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    workers_.push_back(std::move(w));
  }

  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->thread = std::thread([worker = w.get()] { worker->Run(); });
  }
  return Status::OK();
}

void DisclosureServer::Stop() {
  running_.store(false, std::memory_order_release);
  for (auto& w : workers_) {
    if (w->wake_fd >= 0) {
      uint64_t one = 1;
      ssize_t r;
      do {
        r = ::write(w->wake_fd, &one, sizeof(one));
      } while (r < 0 && errno == EINTR);
    }
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Worker objects survive Stop so stats() keeps answering; only the fds
  // and connection state are torn down.
  for (auto& w : workers_) {
    for (auto& [fd, c] : w->conns) {
      if (c->fd >= 0) ::close(c->fd);
    }
    w->conns.clear();
    w->graveyard.clear();
    if (w->owns_listen && w->listen_fd >= 0) ::close(w->listen_fd);
    if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    if (w->wake_fd >= 0) ::close(w->wake_fd);
    if (w->spare_fd >= 0) ::close(w->spare_fd);
    w->listen_fd = w->epoll_fd = w->wake_fd = w->spare_fd = -1;
  }
}

void DisclosureServer::Shutdown() {
  if (started_ && running_.load(std::memory_order_acquire)) {
    draining_.store(true, std::memory_order_release);
    for (auto& w : workers_) {
      if (w->wake_fd >= 0) {
        uint64_t one = 1;
        ssize_t r;
        do {
          r = ::write(w->wake_fd, &one, sizeof(one));
        } while (r < 0 && errno == EINTR);
      }
    }
    // Workers exit Run() on their own once drained (or at the drain
    // deadline); Stop() below is then pure fd/teardown bookkeeping.
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }
  Stop();
}

DisclosureServer::Stats DisclosureServer::stats() const {
  Stats s;
  for (const auto& w : workers_) {
    s.connections_accepted += w->c_accepted.load(std::memory_order_relaxed);
    s.connections_rejected += w->c_rejected.load(std::memory_order_relaxed);
    s.connections_closed += w->c_closed.load(std::memory_order_relaxed);
    s.protocol_errors +=
        w->c_protocol_errors.load(std::memory_order_relaxed);
    s.frames_received += w->c_frames.load(std::memory_order_relaxed);
    s.decisions += w->c_decisions.load(std::memory_order_relaxed);
    s.prelabeled_decisions += w->c_prelabeled.load(std::memory_order_relaxed);
    s.coalesced_batches += w->c_batches.load(std::memory_order_relaxed);
    const uint64_t mb = w->c_max_batch.load(std::memory_order_relaxed);
    if (mb > s.max_coalesced_batch) s.max_coalesced_batch = mb;
    s.backpressure_pauses +=
        w->c_backpressure.load(std::memory_order_relaxed);
    s.bytes_read += w->c_bytes_in.load(std::memory_order_relaxed);
    s.bytes_written += w->c_bytes_out.load(std::memory_order_relaxed);
    s.handshake_reaps += w->c_handshake_reaps.load(std::memory_order_relaxed);
    s.idle_reaps += w->c_idle_reaps.load(std::memory_order_relaxed);
    s.accept_overloads +=
        w->c_accept_overloads.load(std::memory_order_relaxed);
    s.accept_pauses += w->c_accept_pauses.load(std::memory_order_relaxed);
    s.goaway_sent += w->c_goaway.load(std::memory_order_relaxed);
    s.drained_connections += w->c_drained.load(std::memory_order_relaxed);
    s.drain_forced_closes +=
        w->c_drain_forced.load(std::memory_order_relaxed);
  }
  return s;
}

std::string DisclosureServer::StatsJsonFragment() const {
  const Stats s = stats();
  std::string out = "{";
  bool first = true;
  auto field = [&out, &first](const char* key, uint64_t v) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(key);
    out.append("\":");
    out.append(std::to_string(v));
  };
  field("connections_accepted", s.connections_accepted);
  field("connections_rejected", s.connections_rejected);
  field("connections_closed", s.connections_closed);
  field("protocol_errors", s.protocol_errors);
  field("frames_received", s.frames_received);
  field("decisions", s.decisions);
  field("prelabeled_decisions", s.prelabeled_decisions);
  field("coalesced_batches", s.coalesced_batches);
  field("max_coalesced_batch", s.max_coalesced_batch);
  field("backpressure_pauses", s.backpressure_pauses);
  field("bytes_read", s.bytes_read);
  field("bytes_written", s.bytes_written);
  field("handshake_reaps", s.handshake_reaps);
  field("idle_reaps", s.idle_reaps);
  field("accept_overloads", s.accept_overloads);
  field("accept_pauses", s.accept_pauses);
  field("goaway_sent", s.goaway_sent);
  field("drained_connections", s.drained_connections);
  field("drain_forced_closes", s.drain_forced_closes);
  out.push_back('}');
  return out;
}

}  // namespace fdc::server
