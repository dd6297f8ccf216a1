// DisclosureServer: the daemon front end over engine::DisclosureEngine.
//
// The engine is a thread-safe library; this is the piece that makes it a
// server. N worker threads each run a level-triggered epoll event loop
// over non-blocking TCP connections speaking the binary wire protocol of
// server/protocol.h. The perf-critical design point is the *coalescing
// layer*: every frame readable in one epoll wake — across all of a
// worker's connections — is decoded into one request batch and submitted
// through a single DisclosureEngine::SubmitCoalesced pass, so the batched
// labeling kernel (batch mask evaluation, distinct-structure dedup) runs
// at the wire path's natural batch size instead of degrading to
// per-request Submit calls. A registered template is canonicalized and
// labeled once, at kRegisterTemplate; its kSubmits carry that label into
// the pass and skip labeling altogether, so only kSubmitText bodies reach
// the batch kernel. Responses are staged per connection in request order
// and flushed once per wake.
//
// Flow control: each connection owns bounded read/write byte queues. When
// a connection's response queue exceeds ServerOptions::write_queue_limit
// the server stops reading it (EPOLLIN is dropped) until the peer drains
// half the queue — a slow or absent reader pipelining requests can never
// grow server memory without bound. Writes resume partial sends exactly
// where they stopped; reads and writes retry EINTR and yield on EAGAIN;
// SIGPIPE is ignored process-wide at Start() (sends also pass
// MSG_NOSIGNAL) so a vanished peer surfaces as EPIPE on the affected
// connection only.
//
// Listening: SO_REUSEADDR + port 0 (ephemeral) by default, so tests and
// CI never flake on a busy port — read the actual port back with port().
// With options.workers > 1 each worker binds its own SO_REUSEPORT socket
// to the shared port (kernel-level accept sharding); if SO_REUSEPORT is
// unavailable all workers fall back to a shared accept socket.
//
// The /stats request type answers engine::StatsToJson(engine->Stats()) —
// the same JSON schema examples/end_to_end_monitor.cpp prints — and kPing
// doubles as the health probe (answers the current policy epoch).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/disclosure_engine.h"

namespace fdc::server {

struct ServerOptions {
  /// IPv4 listen address. 0.0.0.0 serves every interface; the default
  /// stays loopback-only (the deployment story is a local sidecar).
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port().
  uint16_t port = 0;
  /// Worker threads, each with its own epoll loop (and, when available,
  /// its own SO_REUSEPORT listening socket).
  int workers = 1;
  /// Accepted connections beyond this are refused with kServerBusy.
  size_t max_connections = 4096;
  /// Per-connection response-queue byte bound: above it the connection's
  /// EPOLLIN interest is dropped (backpressure), restored once the queue
  /// drains below half. Never a hard cap — the queue only grows while we
  /// keep reading, so pausing reads bounds it.
  size_t write_queue_limit = 1 << 20;
  /// Per-connection registered-template cap (ids are dense indexes).
  size_t max_templates = 1 << 16;
  /// Flush the coalesced batch to the engine when it reaches this many
  /// pending submits even mid-wake (bounds decision latency and batch
  /// scratch under extreme pipelining).
  size_t max_coalesce = 4096;

  // --- robustness knobs (all milliseconds; 0 disables the mechanism) ----
  /// A connection that has not completed the kHello handshake within this
  /// window is reaped (kError/kDeadlineExceeded, then close) — half-open
  /// peers cannot hold a connection slot.
  int handshake_timeout_ms = 10'000;
  /// A fully quiescent connection (handshake done, nothing buffered in
  /// either direction) older than this since its last byte is reaped.
  /// Off by default: the sidecar deployment keeps one long-lived
  /// connection per app and reaping it would only force reconnect churn.
  int idle_timeout_ms = 0;
  /// Granularity of the deadline machinery: while any timed work exists
  /// (connections, an accept pause, a drain) the event loop wakes at
  /// least this often; a fully idle worker still blocks indefinitely.
  int tick_interval_ms = 50;
  /// Shutdown() drain budget: connections still open this long after the
  /// drain began are force-closed.
  int drain_deadline_ms = 5'000;
  /// Budget for the bounded best-effort flush of a kServerBusy shed reply
  /// on a connection we are about to close unaccepted.
  int shed_flush_ms = 20;
  /// How long accepting stays paused after unrecoverable fd exhaustion
  /// (EMFILE with the spare fd also gone) before the listener is re-armed.
  int accept_pause_ms = 100;
  /// A closing connection (fatal error or reap) whose final flush makes no
  /// progress for this long is hard-closed — a peer that stops reading
  /// cannot pin a slot via its own error frame.
  int close_linger_ms = 2'000;
};

class DisclosureServer {
 public:
  /// Aggregated across workers; every counter is monotone.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  // kServerBusy refusals
    uint64_t connections_closed = 0;
    uint64_t protocol_errors = 0;       // fatal + non-fatal kError frames
    uint64_t frames_received = 0;
    uint64_t decisions = 0;             // submits answered
    // Of those, kSubmit decisions made on the template's registration-time
    // label (no labeler call); decisions - prelabeled_decisions went
    // through the engine's batched labeling pass.
    uint64_t prelabeled_decisions = 0;
    uint64_t coalesced_batches = 0;     // SubmitCoalesced calls
    uint64_t max_coalesced_batch = 0;   // largest single batch
    uint64_t backpressure_pauses = 0;   // EPOLLIN drops
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t handshake_reaps = 0;       // closed before kHello in time
    uint64_t idle_reaps = 0;            // idle TTL expirations
    uint64_t accept_overloads = 0;      // accept() hit EMFILE/ENFILE
    uint64_t accept_pauses = 0;         // listener parked after exhaustion
    uint64_t goaway_sent = 0;           // kGoingAway frames staged
    uint64_t drained_connections = 0;   // closed cleanly during a drain
    uint64_t drain_forced_closes = 0;   // still open at the drain deadline
  };

  /// `engine` must outlive the server and be started/stopped by the
  /// caller (the server only submits decisions and reads stats).
  DisclosureServer(engine::DisclosureEngine* engine,
                   ServerOptions options = {});
  ~DisclosureServer();  // Stops if still running.

  DisclosureServer(const DisclosureServer&) = delete;
  DisclosureServer& operator=(const DisclosureServer&) = delete;

  /// Binds, listens and spawns the worker threads. Returns the first
  /// socket-layer failure as InvalidArgument/Internal; idempotence is not
  /// supported (one Start per instance).
  Status Start();

  /// Wakes every worker, joins the threads and closes every socket.
  /// In-flight responses already staged are not flushed. Safe to call
  /// twice and from any thread (but not concurrently with Start).
  void Stop();

  /// Graceful drain, then Stop(): workers stop accepting, stage a
  /// kGoingAway frame on every live connection, keep answering requests
  /// already received (and any a client races in before it sees the
  /// announcement), and exit once every peer has closed — or hard-close
  /// whatever remains after ServerOptions::drain_deadline_ms. Safe to
  /// call twice; callable from a signal-driven shutdown path's thread.
  void Shutdown();

  /// The bound listening port (valid after Start; resolves port 0).
  uint16_t port() const { return port_; }

  Stats stats() const;

  /// stats() as one JSON object — the fragment the kStatsRequest handler
  /// splices into engine::StatsToJson under the "server" key.
  std::string StatsJsonFragment() const;

 private:
  struct Worker;

  engine::DisclosureEngine* engine_;
  ServerOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;
  uint16_t port_ = 0;
  std::atomic<size_t> live_connections_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace fdc::server
