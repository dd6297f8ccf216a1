// warm_wire and novel_wire: an in-process DisclosureServer (one worker)
// driven over loopback by 4 long-lived connections, one principal each,
// from one send thread and one receive thread.
//
// A run first serves a fixed amount of work (then reads peak RSS), then
// interleaves kRounds rounds of, on the same connections (so the oracle
// replays one sequence per principal):
//   1. closed loop with a fixed window in flight per connection;
//      decisions_per_s is the median over these segments;
//   2. call/response, one request in flight per connection; p50_us and
//      p99_us are medians over 0.25 s windows of each window's percentile;
//   3. open loop at the workload's reference rate, timed from when each
//      request was due (reported per layer: on a shared machine its tail
//      follows the host's scheduling more than the program);
//   4. one step of the ladder: open-loop steps at fixed offered rates,
//      bisected; slo_rate_dps is the rate achieved at the highest step that
//      meets the latency limit (see StepMeetsLimit).
// The traced run adds client spans, then replays the same request stream
// in wake-sized batches through the public functions of each layer
// (DecodeFrame/ParseTemplateId, cq::ParseDatalog, cq::Canonicalize,
// SubmitCoalesced on a twin engine, LabelBatch on a twin labeler,
// AppendDecision) to price each layer per decision.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "cq/canonical.h"
#include "cq/datalog_parser.h"
#include "cq/printer.h"
#include "engine/labeler.h"
#include "engine/snapshot.h"
#include "env.h"
#include "oracle.h"
#include "procstat.h"
#include "rewriting/fold.h"
#include "server/disclosure_server.h"
#include "server/protocol.h"
#include "stats.h"
#include "trace.h"
#include "traffic.h"

namespace perfbench {

namespace {

using fdc::server::FrameType;

constexpr size_t kRing = 1 << 15;        // per-connection in-flight cap
constexpr int kSetups = 9;               // setups per run (median reported)
constexpr int kPolicyBlobs = 1;
constexpr double kClosedShare = 0.4;     // of --seconds, over all rounds
constexpr double kCallResponseShare = 0.2;
constexpr double kReferenceShare = 0.1;  // the ladder gets the rest
constexpr double kWindowSeconds = 0.25;  // rate and percentile windows
constexpr double kDrainSeconds = 5.0;    // answer deadline after a phase
constexpr double kLadderRatio = 1.1;     // between adjacent rungs
// Smallest window whose p99 has ten samples beyond it; ladder steps at low
// rates accept windows of 100 samples.
constexpr size_t kMinWindow = 1000;
constexpr size_t kMinStepWindow = 100;
constexpr size_t kMaxWindowSamples = 20'000;
constexpr double kFixedWorkDeadline = 60;  // seconds, RunFixed safety bound
constexpr int kRounds = 8;  // closed / call-response / open-loop rounds
// Which warmup-pool templates each connection registers, and the repeated
// texts of novel_wire, are the deployment's configuration: fixed, so that
// --seed changes the request sequence, not the set of hot requests.
constexpr uint64_t kTemplateSeed = 0x7e3a'91a7ULL;
constexpr uint64_t kPopularTextSeed = 0x9a2b'7e57ULL;
// The same CPU for each busy thread on every run (see PinThread).
constexpr int kWorkerCpuSlot = 0;
constexpr int kSendCpuSlot = 1;
constexpr int kReceiveCpuSlot = 2;
constexpr int kMainCpuSlot = 3;  // set-up
constexpr double kNovelRateGuess = 15'000;  // novel_wire, decisions/s

/// The fixed open-loop settings of one wire workload.
struct WireSettings {
  double reference_dps;
  double limit_us;             // p99 latency limit of the ladder
  std::vector<double> ladder;  // offered rates, ascending
  size_t replay_cap;           // traced replay, requests
  uint64_t window;             // closed loop, in flight per connection
  uint64_t priming;            // fixed work before peak RSS, per connection
};

WireSettings SettingsFor(bool novel) {
  if (novel) {
    return {8'000, 20'000, GeometricLadder(2'000, kLadderRatio, 48), 40'000, 64,
            1 << 13};
  }
  return {100'000, 10'000, GeometricLadder(25'000, kLadderRatio, 60), 300'000,
          1024, 1 << 18};
}

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Die(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
}

/// Blocking read of exactly one frame (setup only).
fdc::server::FrameView ReadFrame(int fd, std::vector<uint8_t>* buf,
                                 size_t* len) {
  for (;;) {
    fdc::server::FrameView view;
    const auto d = fdc::server::DecodeFrame(buf->data(), *len, &view);
    if (d.status == fdc::server::DecodeStatus::kFrame) {
      // Copy the payload out before compacting the buffer.
      static thread_local std::vector<uint8_t> payload;
      payload.assign(view.payload.begin(), view.payload.end());
      std::memmove(buf->data(), buf->data() + d.consumed, *len - d.consumed);
      *len -= d.consumed;
      view.payload = payload;
      return view;
    }
    if (d.status == fdc::server::DecodeStatus::kError) Die("bad frame in setup");
    const ssize_t n = ::recv(fd, buf->data() + *len, buf->size() - *len, 0);
    if (n <= 0) Die("connection closed during setup");
    *len += static_cast<size_t>(n);
  }
}

/// One long-lived client connection and its request stream.
struct Conn {
  int fd = -1;
  std::string principal;
  std::optional<WireStream> stream;
  std::string out;
  std::vector<int64_t> due = std::vector<int64_t>(kRing);
  // The send and receive threads' fields sit on separate cache lines.
  alignas(64) uint64_t issued = 0;   // send thread
  std::atomic<uint64_t> sent{0};     // published by the send thread
  alignas(64) std::atomic<uint64_t> answered{0};  // by the receive thread
  std::vector<uint8_t> in = std::vector<uint8_t>(1 << 18);
  size_t in_len = 0;
  Digest digest;                     // receive thread
  uint64_t failed = 0;               // receive thread

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

/// Everything setup builds; torn down in reverse order.
struct WireSystem {
  std::unique_ptr<Catalog> catalog;
  std::vector<fdc::cq::ConjunctiveQuery> warmup;
  std::vector<std::vector<uint8_t>> blobs;
  std::unique_ptr<fdc::engine::DisclosureEngine> engine;
  std::unique_ptr<fdc::server::DisclosureServer> server;
  std::vector<pid_t> worker_tids;
  std::vector<std::unique_ptr<Conn>> conns;
  // Per connection: warmup-pool index of each registered template id.
  std::vector<std::vector<size_t>> templates;
};

/// What one phase saw.
struct PhaseResult {
  double seconds = 0;
  uint64_t answered = 0;        // answered by the phase's end time
  uint64_t backlog_end = 0;     // due but unanswered at the end time
  uint64_t failed = 0;
  bool aborted = false;         // overloaded step cut short
  // Latency (from due time) and generator lateness, by the window of the
  // request's due time.
  std::vector<std::vector<double>> latency_us;
  std::vector<std::vector<double>> late_us;
  std::vector<double> window_dps;        // closed loop, untraced windows
  std::vector<double> traced_window_dps; // closed loop, traced windows
  std::vector<double> segment_dps;       // closed loop, one per phase run
  std::vector<double> segment_dpcs;      // same, per worker CPU-second
  double send_cpu_s = 0, recv_cpu_s = 0, worker_cpu_s = 0;

  /// Folds another run of the same phase kind into this one.
  void Append(PhaseResult&& o) {
    seconds += o.seconds;
    answered += o.answered;
    backlog_end = std::max(backlog_end, o.backlog_end);
    failed += o.failed;
    aborted = aborted || o.aborted;
    for (auto& w : o.latency_us) latency_us.push_back(std::move(w));
    for (auto& w : o.late_us) late_us.push_back(std::move(w));
    for (auto [to, from] : {std::pair{&window_dps, &o.window_dps},
                            std::pair{&traced_window_dps, &o.traced_window_dps},
                            std::pair{&segment_dps, &o.segment_dps},
                            std::pair{&segment_dpcs, &o.segment_dpcs}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    send_cpu_s += o.send_cpu_s;
    recv_cpu_s += o.recv_cpu_s;
    worker_cpu_s += o.worker_cpu_s;
  }
};

class WireLoad {
 public:
  WireLoad(WireSystem* sys, DistinctQueries* texts, bool trace)
      : sys_(sys), texts_(texts), trace_(trace) {}

  /// Closed loop for `seconds`, rate sampled per window; in a traced run
  /// tracing is on in every other window.
  PhaseResult RunClosed(double seconds, uint64_t window) {
    return Run(/*rate=*/0, seconds, /*record=*/false, window);
  }
  /// Closed loop until every connection has issued `per_connection`
  /// requests in total: a fixed amount of work, whatever its speed.
  void RunFixed(uint64_t per_connection, uint64_t window) {
    cap_ = per_connection;
    Run(/*rate=*/0, kFixedWorkDeadline, /*record=*/false, window);
    cap_ = UINT64_MAX;
  }
  /// Call/response: one request in flight per connection, latencies
  /// recorded from each send.
  PhaseResult RunCallResponse(double seconds) {
    return Run(/*rate=*/0, seconds, /*record=*/true, /*window=*/1);
  }
  /// Open loop at `rate` decisions/s for `seconds`.
  PhaseResult RunOpen(double rate, double seconds) {
    return Run(rate, seconds, /*record=*/true, 0);
  }

  Tracer& send_tracer() { return send_tracer_; }
  Tracer& recv_tracer() { return recv_tracer_; }
  bool broken() const { return broken_; }

 private:
  void Issue(Conn& c, int64_t due) {
    const WireRequest r = c.stream->Next();
    if (r.text) {
      texts_->Ensure(r.query + 1);
      fdc::server::AppendSubmitText(&c.out, texts_->text(r.query));
    } else {
      fdc::server::AppendSubmit(&c.out, r.template_id);
    }
    c.due[c.issued & (kRing - 1)] = due;
    ++c.issued;
  }

  uint64_t TotalAnswered() const {
    uint64_t total = 0;
    for (const auto& c : sys_->conns) {
      total += c->answered.load(std::memory_order_acquire);
    }
    return total;
  }

  void SendClosed(int64_t end_ns, uint64_t window, bool spin) {
    while (NowNs() < end_ns) {
      bool capped = true;
      for (const auto& c : sys_->conns) capped = capped && c->issued >= cap_;
      if (capped) {
        done_early_.store(true, std::memory_order_release);
        return;
      }
      const uint64_t seen = progress_.load(std::memory_order_acquire);
      bool any = false;
      const bool traced = tracing_.load(std::memory_order_relaxed);
      const int64_t start = traced ? NowNs() : 0;
      uint64_t frames = 0;
      for (auto& cp : sys_->conns) {
        Conn& c = *cp;
        const uint64_t in_flight =
            c.issued - c.answered.load(std::memory_order_acquire);
        if (in_flight + std::max<uint64_t>(1, window / 4) > window) continue;
        const uint64_t n = std::min(window - in_flight, cap_ - std::min(cap_, c.issued));
        if (n == 0) continue;
        const int64_t now = NowNs();
        for (uint64_t j = 0; j < n; ++j) Issue(c, now);
        frames += n;
        c.sent.store(c.issued, std::memory_order_release);
        SendAll(c.fd, c.out);
        c.out.clear();
        any = true;
      }
      if (traced && any) {
        send_tracer_.Add("client.send", send_tracer_.NewBatch(), start,
                         NowNs(), frames);
      }
      // The throughput phase parks on a futex, so client.busy_frac counts
      // real work; latency phases spin on their own CPU so the send
      // thread's wake-up is not part of every measured round trip.
      if (!any && !spin) progress_.wait(seen, std::memory_order_acquire);
    }
  }

  void SendOpen(double rate, int64_t t0, int64_t end_ns, PhaseResult* out) {
    const double period = 1e9 / rate;
    const uint64_t total = static_cast<uint64_t>((end_ns - t0) / period);
    // Cut an overloaded step short once the backlog is far past anything
    // the step could pass with; the step then counts as a miss.
    const uint64_t abort_backlog =
        std::max<uint64_t>(4096, static_cast<uint64_t>(rate * 0.05));
    const size_t n_conns = sys_->conns.size();
    uint64_t i = 0;
    while (i < total) {
      const int64_t now = NowNs();
      if (now >= end_ns) break;
      const uint64_t due_count = std::min<uint64_t>(
          total, static_cast<uint64_t>((now - t0) / period) + 1);
      if (i >= due_count) {
        const int64_t next_due = t0 + static_cast<int64_t>(i * period);
        if (next_due - now > 60'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(next_due - now - 40'000));
        }
        continue;
      }
      for (; i < due_count; ++i) {
        Conn& c = *sys_->conns[i % n_conns];
        if (c.issued - c.answered.load(std::memory_order_acquire) >= kRing) {
          break;  // ring full: the request waits, and shows as late
        }
        const int64_t due = t0 + static_cast<int64_t>(i * period);
        Issue(c, due);
        if (i % stride_ == 0) {
          out->late_us[Window(due, t0, out)].push_back(
              static_cast<double>(now - due) * 1e-3);
        }
      }
      for (auto& cp : sys_->conns) {
        if (cp->out.empty()) continue;
        cp->sent.store(cp->issued, std::memory_order_release);
        SendAll(cp->fd, cp->out);
        cp->out.clear();
      }
      if (i > TotalAnsweredSince() + abort_backlog) {
        out->aborted = true;
        break;
      }
    }
  }

  static size_t Window(int64_t due, int64_t t0, const PhaseResult* out) {
    const auto w = static_cast<size_t>(
        std::max<int64_t>(0, due - t0) / static_cast<int64_t>(kWindowSeconds * 1e9));
    return std::min(w, out->latency_us.size() - 1);
  }

  // Answers within the current phase.
  uint64_t TotalAnsweredSince() const { return TotalAnswered() - phase_base_; }

  void Receive(bool record, int64_t t0, int64_t deadline_ns, PhaseResult* out) {
    const size_t n = sys_->conns.size();
    std::vector<pollfd> pfds(n);
    for (size_t i = 0; i < n; ++i) pfds[i] = {sys_->conns[i]->fd, POLLIN, 0};
    for (;;) {
      if (send_done_.load(std::memory_order_acquire)) {
        bool all = true;
        for (const auto& c : sys_->conns) {
          all = all && c->answered.load(std::memory_order_relaxed) ==
                           c->sent.load(std::memory_order_acquire);
        }
        if (all) break;
      }
      if (NowNs() > deadline_ns) {
        broken_ = true;
        break;
      }
      // Latency phases poll without sleeping: a receive thread parked in
      // the kernel adds its own wake-up latency to every measured decision.
      // The throughput phase blocks, so client.busy_frac counts real work.
      if (::poll(pfds.data(), n, record ? 0 : 1) <= 0) continue;
      const int64_t now = NowNs();
      uint64_t frames = 0;
      for (size_t i = 0; i < n; ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = *sys_->conns[i];
        const ssize_t got = ::recv(c.fd, c.in.data() + c.in_len,
                                   c.in.size() - c.in_len, MSG_DONTWAIT);
        if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
          broken_ = true;
          pfds[i].fd = -1;
          continue;
        }
        if (got < 0) continue;
        c.in_len += static_cast<size_t>(got);
        size_t off = 0;
        uint64_t k = c.answered.load(std::memory_order_relaxed);
        for (;;) {
          fdc::server::FrameView view;
          const auto d =
              fdc::server::DecodeFrame(c.in.data() + off, c.in_len - off, &view);
          if (d.status == fdc::server::DecodeStatus::kNeedMore) break;
          if (d.status == fdc::server::DecodeStatus::kError) {
            broken_ = true;
            break;
          }
          off += d.consumed;
          fdc::server::DecisionPayload decision;
          if (view.type == FrameType::kDecision &&
              fdc::server::ParseDecision(view.payload, &decision)) {
            c.digest.Add(decision.allow);
          } else {
            ++c.failed;  // an error frame in place of a decision
          }
          if (record && k % stride_ == 0) {
            const int64_t due = c.due[k & (kRing - 1)];
            out->latency_us[Window(due, t0, out)].push_back(
                static_cast<double>(now - due) * 1e-3);
          }
          ++k;
          ++frames;
        }
        std::memmove(c.in.data(), c.in.data() + off, c.in_len - off);
        c.in_len -= off;
        c.answered.store(k, std::memory_order_release);
      }
      if (frames != 0) {
        progress_.fetch_add(1, std::memory_order_release);
        progress_.notify_one();
        if (tracing_.load(std::memory_order_relaxed)) {
          recv_tracer_.Add("client.recv", recv_tracer_.NewBatch(), now,
                           NowNs(), frames);
        }
      }
    }
  }

  PhaseResult Run(double rate, double seconds, bool record, uint64_t window) {
    // Record every stride-th request: at most kMaxWindowSamples per window,
    // so memory does not follow the offered rate.
    stride_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(rate * kWindowSeconds / kMaxWindowSamples));
    PhaseResult out;
    if (broken_) return out;
    const bool closed = rate == 0;
    phase_base_ = TotalAnswered();
    uint64_t failed_base = 0;
    for (const auto& c : sys_->conns) failed_base += c->failed;
    send_done_.store(false);
    done_early_.store(false);
    if (record) {
      const size_t windows =
          std::max<size_t>(1, static_cast<size_t>(seconds / kWindowSeconds + 0.5));
      out.latency_us.resize(windows);
      out.late_us.resize(windows);
      for (size_t w = 0; w < windows; ++w) {
        out.latency_us[w].reserve(kMaxWindowSamples + 16);
        out.late_us[w].reserve(kMaxWindowSamples + 16);
      }
    }
    const int64_t t0 = NowNs() + 1'000'000;
    const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
    std::atomic<pid_t> send_tid{0}, recv_tid{0};
    std::thread receiver([&] {
      recv_tid = CurrentThreadId();
      PinThread(recv_tid, kReceiveCpuSlot);
      Receive(record, t0, end + static_cast<int64_t>(kDrainSeconds * 1e9), &out);
    });
    std::thread sender([&] {
      send_tid = CurrentThreadId();
      PinThread(send_tid, kSendCpuSlot);
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      while (NowNs() < t0) {
      }
      if (closed) {
        SendClosed(end, window, /*spin=*/record);
      } else {
        SendOpen(rate, t0, end, &out);
      }
      send_done_.store(true, std::memory_order_release);
    });
    while (send_tid == 0 || recv_tid == 0) std::this_thread::yield();
    auto cpu = [&] {
      double w = 0;
      for (pid_t tid : sys_->worker_tids) w += ThreadCpuSeconds(tid);
      return std::array<double, 3>{ThreadCpuSeconds(send_tid),
                                   ThreadCpuSeconds(recv_tid), w};
    };
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t0)));
    const auto cpu0 = cpu();
    if (closed) {
      const int windows = std::max(1, static_cast<int>(seconds / kWindowSeconds));
      uint64_t last = TotalAnswered();
      int64_t last_t = NowNs();
      for (int w = 0; w < windows && !done_early_.load(); ++w) {
        const bool traced = trace_ && w % 2 == 1;
        tracing_.store(traced, std::memory_order_relaxed);
        const int64_t until =
            t0 + static_cast<int64_t>((w + 1) * seconds / windows * 1e9);
        if (cap_ == UINT64_MAX) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(until)));
        }
        while (NowNs() < until && !done_early_.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const uint64_t now_answered = TotalAnswered();
        const int64_t now_t = NowNs();
        const double dps = static_cast<double>(now_answered - last) /
                           (static_cast<double>(now_t - last_t) * 1e-9);
        (traced ? out.traced_window_dps : out.window_dps).push_back(dps);
        last = now_answered;
        last_t = now_t;
      }
      tracing_.store(false, std::memory_order_relaxed);
    } else {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(end)));
    }
    const auto cpu1 = cpu();
    out.answered = TotalAnswered() - phase_base_;
    if (!closed) {
      const uint64_t due = static_cast<uint64_t>(seconds * rate);
      out.backlog_end = due > out.answered ? due - out.answered : 0;
    }
    out.seconds = static_cast<double>(
                      (closed ? NowNs() : std::min(NowNs(), end)) - t0) * 1e-9;
    if (closed) out.segment_dps.push_back(static_cast<double>(out.answered) / out.seconds);
    // Wake a send thread parked on a full window so it sees the end time.
    progress_.fetch_add(1, std::memory_order_release);
    progress_.notify_all();
    sender.join();
    progress_.notify_all();
    receiver.join();
    out.send_cpu_s = cpu1[0] - cpu0[0];
    out.recv_cpu_s = cpu1[1] - cpu0[1];
    out.worker_cpu_s = cpu1[2] - cpu0[2];
    if (closed && out.worker_cpu_s > 0) {
      out.segment_dpcs.push_back(static_cast<double>(out.answered) / out.worker_cpu_s);
    }
    uint64_t failed = 0;
    for (const auto& c : sys_->conns) failed += c->failed;
    out.failed = failed - failed_base;
    return out;
  }

  WireSystem* sys_;
  DistinctQueries* texts_;
  bool trace_;
  bool broken_ = false;
  uint64_t phase_base_ = 0;
  uint64_t stride_ = 1;
  uint64_t cap_ = UINT64_MAX;  // per-connection issue cap (RunFixed)
  std::atomic<bool> done_early_{false};
  std::atomic<bool> send_done_{false};
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> progress_{0};
  Tracer send_tracer_;
  Tracer recv_tracer_;
};

/// Builds the serving system and connects the clients. Timed as setup_s.
std::unique_ptr<WireSystem> Setup(bool novel, const WireTrafficShape& shape) {
  auto sys = std::make_unique<WireSystem>();
  sys->catalog = BuildCatalog(/*synthetic=*/novel);
  sys->warmup = WarmupPool(*sys->catalog);
  sys->blobs = PolicyBlobs(*sys->catalog, kPolicyBlobs);
  sys->engine = MakeEngine(*sys->catalog, sys->blobs[0], sys->warmup);
  fdc::server::ServerOptions options;
  options.workers = 1;
  sys->server = std::make_unique<fdc::server::DisclosureServer>(
      sys->engine.get(), options);
  const std::vector<pid_t> before = ListThreads();
  if (fdc::Status s = sys->server->Start(); !s.ok()) {
    Die("server start: " + s.ToString());
  }
  for (pid_t tid : ListThreads()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      sys->worker_tids.push_back(tid);
      PinThread(tid, kWorkerCpuSlot);
    }
  }
  fdc::Rng rng(kTemplateSeed);
  for (int c = 0; c < shape.connections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->principal = "app-" + std::to_string(c);
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) Die("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(sys->server->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string hello;
    fdc::server::AppendHello(&hello, conn->principal);
    std::vector<size_t> chosen;
    if (!novel) {
      // 64 distinct templates from the warmup pool, registered in one
      // pipelined burst.
      std::vector<size_t> order(sys->warmup.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (int t = 0; t < shape.templates_per_connection; ++t) {
        std::swap(order[t], order[t + rng.Below(order.size() - t)]);
        chosen.push_back(order[t]);
        fdc::server::AppendRegisterTemplate(
            &hello, static_cast<uint32_t>(t),
            fdc::cq::ToDatalog(sys->warmup[order[t]], sys->catalog->schema));
      }
    }
    SendAll(conn->fd, hello);
    const size_t expect = 1 + chosen.size();
    for (size_t f = 0; f < expect; ++f) {
      const auto view = ReadFrame(conn->fd, &conn->in, &conn->in_len);
      const FrameType want =
          f == 0 ? FrameType::kHelloAck : FrameType::kTemplateAck;
      if (view.type != want) Die("unexpected frame during setup");
    }
    sys->templates.push_back(std::move(chosen));
    sys->conns.push_back(std::move(conn));
  }
  return sys;
}

void Teardown(std::unique_ptr<WireSystem> sys) {
  if (sys == nullptr) return;
  sys->conns.clear();
  if (sys->server != nullptr) sys->server->Stop();
  sys->server.reset();
  sys->engine.reset();
}

double PerDecision(double total_ns, uint64_t n) {
  return n == 0 ? 0 : total_ns / static_cast<double>(n);
}

}  // namespace

WorkloadResult RunWire(const RunOptions& options, bool novel) {
  WorkloadResult result;
  const WireSettings settings = SettingsFor(novel);
  const WireTrafficShape shape;
  const ZipfSampler template_zipf(shape.templates_per_connection,
                                  shape.template_zipf);
  const ZipfSampler popular_zipf(shape.popular_texts, shape.popular_zipf);
  {
    std::string ladder;
    for (double r : settings.ladder) ladder += (ladder.empty() ? "" : ",") + Format("%.0f", r);
    result.metadata.push_back({"ladder_dps", "[" + ladder + "]"});
    result.metadata.push_back({"latency_limit_us", Format("%.0f", settings.limit_us)});
    result.metadata.push_back({"reference_dps", Format("%.0f", settings.reference_dps)});
  }

  // --- set-up, repeated; the last system serves the run --------------------
  std::vector<double> setup_s;
  std::unique_ptr<WireSystem> sys;
  {
    const ScopedPin pin(kMainCpuSlot);
    for (int i = 0; i < kSetups; ++i) {
      Teardown(std::move(sys));
      const int64_t t = NowNs();
      sys = Setup(novel, shape);
      setup_s.push_back(static_cast<double>(NowNs() - t) * 1e-9);
    }
  }
  const fdc::engine::DisclosureEngine::EngineStats engine0 = sys->engine->Stats();
  const fdc::server::DisclosureServer::Stats server0 = sys->server->stats();
  const uint64_t fold0 = fdc::rewriting::FoldScratchReuses();

  // --- inputs (not part of set-up) ------------------------------------------
  DistinctQueries texts(sys->catalog.get(), sys->warmup, shape.popular_texts,
                        kPopularTextSeed, StreamSeed(options.seed, 42));
  if (novel) {
    // Never-seen structures for an average rate of kNovelRateGuess over the
    // run; the send thread extends the stream on demand past that.
    texts.Ensure(shape.popular_texts +
                 static_cast<size_t>(kNovelRateGuess * options.seconds *
                                     shape.novel_share));
  }
  for (int c = 0; c < shape.connections; ++c) {
    sys->conns[c]->stream.emplace(&shape, &template_zipf, &popular_zipf, novel,
                                  c, options.seed);
  }
  WireLoad load(sys.get(), &texts, options.trace);

  // --- 0. priming: fixed work, then peak RSS --------------------------------
  // Read after a fixed number of decisions rather than at the end, so it
  // does not grow with throughput (novel_wire interns every never-seen
  // structure it serves) and overloaded ladder steps cannot inflate it.
  load.RunFixed(settings.priming, settings.window);
  const double peak_rss = PeakRssMb();
  // --- 1-4. interleaved rounds: closed loop, call/response, open loop at
  // the reference rate, then one ladder step. A slow spell of the machine
  // lands on every phase kind alike instead of on one of them. The ladder
  // is bisected over its fixed rungs; steps left after the rounds run last.
  PhaseResult closed, call, reference;
  uint64_t closed_decisions = 0, closed_batches = 0;
  LadderSearch ladder(settings.ladder.size());
  std::vector<StepResult> steps;
  const double step_seconds = options.seconds *
                              (1 - kClosedShare - kCallResponseShare - kReferenceShare) /
                              kRounds;
  auto run_step = [&] {
    const double rate = settings.ladder[ladder.next()];
    PhaseResult p = load.RunOpen(rate, step_seconds);
    StepResult step;
    step.offered_dps = rate;
    step.achieved_dps = static_cast<double>(p.answered) / p.seconds;
    step.p50_us = WindowedPercentile(p.latency_us, 0.5, kMinStepWindow);
    step.p99_us = WindowedPercentile(p.latency_us, 0.99, kMinStepWindow);
    step.late_p99_us = WindowedPercentile(p.late_us, 0.99, kMinStepWindow);
    step.backlog_end = p.backlog_end;
    step.failed = p.failed + (p.aborted ? 1 : 0);
    const bool pass = StepMeetsLimit(step, settings.limit_us);
    result.Note(Format(
        "ladder step %.0f/s: achieved %.0f/s p50 %.1f us p99 %.1f us (n=%zu) "
        "gen late p99 %.1f us backlog %llu%s -> %s",
        rate, step.achieved_dps, step.p50_us.value, step.p99_us.value,
        step.p99_us.samples, step.late_p99_us.value,
        static_cast<unsigned long long>(step.backlog_end),
        p.aborted ? " (cut short: overloaded)" : "",
        pass ? "meets limit" : "misses limit"));
    steps.push_back(step);
    ladder.Report(pass);
  };
  for (int round = 0; round < kRounds; ++round) {
    const auto before = sys->server->stats();
    closed.Append(load.RunClosed(options.seconds * kClosedShare / kRounds,
                                   settings.window));
    const auto after = sys->server->stats();
    closed_decisions += after.decisions - before.decisions;
    closed_batches += after.coalesced_batches - before.coalesced_batches;
    call.Append(load.RunCallResponse(options.seconds * kCallResponseShare / kRounds));
    reference.Append(load.RunOpen(settings.reference_dps,
                                    options.seconds * kReferenceShare / kRounds));
    if (!ladder.done()) run_step();
  }
  while (!ladder.done()) run_step();
  const int best = ladder.best();
  const auto engine1 = sys->engine->Stats();
  const auto server1 = sys->server->stats();
  const uint64_t fold1 = fdc::rewriting::FoldScratchReuses();

  // --- accounting -----------------------------------------------------------
  uint64_t attempted = 0, answered = 0, failed_frames = 0;
  for (const auto& c : sys->conns) {
    attempted += c->issued;
    answered += c->answered.load();
    failed_frames += c->failed;
  }
  result.attempted = attempted;
  result.failed = (attempted - answered) + failed_frames;
  if (load.broken()) result.Fail("a connection broke or a phase did not drain");

  // --- oracle ---------------------------------------------------------------
  std::vector<std::vector<std::string>> names(sys->conns.size());
  std::vector<std::vector<Digest>> observed(sys->conns.size());
  std::vector<ShareCounter> shares(sys->conns.size());
  std::vector<OracleJob> jobs;
  for (size_t c = 0; c < sys->conns.size(); ++c) {
    Conn& conn = *sys->conns[c];
    names[c] = {conn.principal};
    observed[c] = {conn.digest};
    OracleJob job;
    job.make_engine = [&] {
      return MakeEngine(*sys->catalog, sys->blobs[0], sys->warmup);
    };
    job.principals = &names[c];
    job.count = conn.issued;
    job.observed = &observed[c];
    auto stream = std::make_shared<WireStream>(&shape, &template_zipf,
                                               &popular_zipf, novel,
                                               static_cast<int>(c), options.seed);
    ShareCounter* counter = &shares[c];
    const std::vector<size_t>* chosen = &sys->templates[c];
    // Texts are parsed here; repeated ones once per job.
    auto parsed = std::make_shared<std::unordered_map<size_t, fdc::cq::ConjunctiveQuery>>();
    auto scratch = std::make_shared<fdc::cq::ConjunctiveQuery>();
    const Catalog* catalog = sys->catalog.get();
    job.next = [stream, counter, chosen, parsed, scratch, catalog, &texts, &sys, c,
                &shape](uint64_t, size_t* principal,
                        const fdc::cq::ConjunctiveQuery** query) {
      const WireRequest r = stream->Next();
      *principal = 0;
      if (r.text) {
        auto parse = [&](size_t i) {
          auto q = fdc::cq::ParseDatalog(texts.text(i), catalog->schema);
          if (!q.ok()) Die("oracle: a request text does not parse");
          return std::move(q).value();
        };
        if (r.novel) {
          *scratch = parse(r.query);
          *query = scratch.get();
        } else {
          auto it = parsed->find(r.query);
          if (it == parsed->end()) it = parsed->emplace(r.query, parse(r.query)).first;
          *query = &it->second;
        }
        counter->Count(r.novel ? shape.popular_texts : r.query, c, r.novel);
      } else {
        *query = &sys->warmup[(*chosen)[r.template_id]];
        counter->Count(c * shape.templates_per_connection + r.template_id, c,
                       false);
      }
    };
    jobs.push_back(std::move(job));
  }
  // The live system goes first so its memory and threads are not held
  // while the oracle's fresh engines run.
  sys->conns.clear();
  sys->server->Stop();
  sys->server.reset();
  sys->engine.reset();
  const OracleReport oracle = RunOracle(jobs, static_cast<int>(jobs.size()));
  ShareCounter share;
  for (const auto& s : shares) share.Merge(s);
  if (oracle.mismatched != 0) {
    result.Fail(Format("oracle: %llu of %llu principals disagree (first: %s)",
                       static_cast<unsigned long long>(oracle.mismatched),
                       static_cast<unsigned long long>(oracle.principals),
                       oracle.first_mismatch.c_str()));
  }
  result.Note(Format("oracle: %llu decisions replayed through Submit, %llu "
                     "principals, %llu mismatched",
                     static_cast<unsigned long long>(oracle.replayed),
                     static_cast<unsigned long long>(oracle.principals),
                     static_cast<unsigned long long>(oracle.mismatched)));
  // Novel texts are all counted under one item so the top-10 share is over
  // the repeated texts (and templates) only.
  result.Note(Format("measured shares: top-10 template share %.4f, principal "
                     "revisit share %.4f, novel share %.4f",
                     share.TopTenShare(), share.RevisitShare(),
                     share.NovelShare()));

  // --- end-to-end metrics ---------------------------------------------------
  const double dps = Median(closed.segment_dps);
  const Percentile p50 = WindowedPercentile(call.latency_us, 0.5, kMinWindow);
  const Percentile p90 = WindowedPercentile(call.latency_us, 0.90, kMinWindow);
  const Percentile p99 = WindowedPercentile(call.latency_us, 0.99, kMinWindow);
  const Percentile open50 = WindowedPercentile(reference.latency_us, 0.5, kMinWindow);
  const Percentile open99 = WindowedPercentile(reference.latency_us, 0.99, kMinWindow);
  const Percentile late99 = WindowedPercentile(reference.late_us, 0.99, kMinWindow);
  double slo = 0;
  for (const StepResult& step : steps) {
    if (best >= 0 && step.offered_dps == settings.ladder[best]) slo = step.achieved_dps;
  }
  if (best < 0) result.Note("no ladder step met the latency limit");
  result.Note(Format("call/response (1 in flight per connection): p50 %.2f us "
                     "p99 %.2f us over %zu samples",
                     p50.value, p99.value, p50.samples));
  result.Note(Format("reference rate %.0f/s, open loop: p50 %.2f us p99 %.2f us "
                     "over %zu samples, gen late p99 %.2f us, backlog %llu%s",
                     settings.reference_dps, open50.value, open99.value,
                     open50.samples, late99.value,
                     static_cast<unsigned long long>(reference.backlog_end),
                     reference.aborted ? " (overloaded)" : ""));
  result.Note(Format("failed_frac %.6f (%llu of %llu requests had no decision)",
                     attempted == 0 ? 0.0 : double(result.failed) / attempted,
                     static_cast<unsigned long long>(result.failed),
                     static_cast<unsigned long long>(attempted)));
  result.end_to_end = {
      {"decisions_per_cpu_s", Median(closed.segment_dpcs), "decisions/cpu-s"},
      {"p50_us", p50.value, "us"},
      {"p90_us", p90.value, "us"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
  result.unbounded = {
      {"decisions_per_s", dps, "decisions/s"},
      {"p99_us", p99.value, "us"},
      {"slo_rate_dps", slo, "decisions/s"},
  };

  // --- per-layer metrics (traced run) -----------------------------------------
  if (options.trace) {
    Tracer replay;
    const size_t batch_size = std::max<size_t>(
        1, closed_batches == 0 ? 1 : closed_decisions / closed_batches);
    // Twin engine and twin labeler, fed the request stream from its start
    // in round-robin wake-sized batches.
    auto twin = MakeEngine(*sys->catalog, sys->blobs[0], sys->warmup);
    fdc::engine::ConcurrentLabeler twin_labeler(
        fdc::engine::FrozenCatalog::Build(
            sys->catalog->views.get(),
            std::span(sys->warmup.data(), sys->warmup.size())));
    std::vector<WireStream> streams;
    for (size_t c = 0; c < names.size(); ++c) {
      streams.emplace_back(&shape, &template_zipf, &popular_zipf, novel,
                           static_cast<int>(c), options.seed);
    }
    // Template queries as the server holds them: parsed from their text,
    // then canonicalized once at registration.
    std::vector<std::vector<fdc::cq::ConjunctiveQuery>> parsed_templates;
    for (size_t c = 0; c < names.size(); ++c) {
      parsed_templates.emplace_back();
      for (size_t pool_index : sys->templates[c]) {
        auto q = fdc::cq::ParseDatalog(
            fdc::cq::ToDatalog(sys->warmup[pool_index], sys->catalog->schema),
            sys->catalog->schema);
        if (!q.ok()) Die("template does not parse");
        parsed_templates.back().push_back(fdc::cq::Canonicalize(q.value()));
      }
    }
    const uint64_t replay_n = std::min<uint64_t>(attempted, settings.replay_cap);
    std::string bytes;
    std::string encoded;
    std::vector<size_t> conn_of;
    std::vector<fdc::cq::ConjunctiveQuery> batch_queries;
    std::vector<const fdc::cq::ConjunctiveQuery*> query_ptrs;
    std::vector<fdc::engine::DisclosureEngine::SubmitRequest> requests;
    std::vector<bool> decisions;
    double decode_ns = 0, parse_ns = 0, canon_ns = 0, submit_ns = 0,
           label_ns = 0, encode_ns = 0;
    uint64_t replayed = 0, parsed = 0;
    size_t rr = 0;
    while (replayed < replay_n) {
      const size_t n = std::min<uint64_t>(batch_size, replay_n - replayed);
      bytes.clear();
      conn_of.clear();
      for (size_t j = 0; j < n; ++j, ++rr) {
        const size_t c = rr % streams.size();
        const WireRequest r = streams[c].Next();
        if (r.text) {
          texts.Ensure(r.query + 1);
          fdc::server::AppendSubmitText(&bytes, texts.text(r.query));
        } else {
          fdc::server::AppendSubmit(&bytes, r.template_id);
        }
        conn_of.push_back(c);
      }
      // Child spans of this batch: {name, start, end, items}; the
      // labeler's is the labeling share of engine.submit.
      struct Piece {
        const char* name;
        int64_t start, end;
        uint64_t items;
      };
      std::vector<Piece> pieces;
      const int64_t b0 = NowNs();
      // Decode (envelope + template id) over the request bytes.
      batch_queries.clear();
      query_ptrs.clear();
      std::vector<std::string_view> frame_texts;
      std::vector<uint32_t> ids;
      int64_t t = NowNs();
      {
        const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
        size_t off = 0;
        while (off < bytes.size()) {
          fdc::server::FrameView view;
          const auto d = fdc::server::DecodeFrame(data + off, bytes.size() - off, &view);
          if (d.status != fdc::server::DecodeStatus::kFrame) Die("replay decode");
          off += d.consumed;
          if (view.type == FrameType::kSubmit) {
            uint32_t id = 0;
            std::string_view unused;
            fdc::server::ParseTemplateId(view.payload, &id, &unused);
            ids.push_back(id);
          } else {
            frame_texts.emplace_back(
                reinterpret_cast<const char*>(view.payload.data()),
                view.payload.size());
          }
        }
      }
      int64_t t1 = NowNs();
      decode_ns += static_cast<double>(t1 - t);
      pieces.push_back({"server.decode", t, t1, n});
      if (!frame_texts.empty()) {
        t = NowNs();
        for (std::string_view text : frame_texts) {
          auto q = fdc::cq::ParseDatalog(text, sys->catalog->schema);
          if (!q.ok()) Die("replay parse");
          batch_queries.push_back(std::move(q).value());
        }
        t1 = NowNs();
        parse_ns += static_cast<double>(t1 - t);
        parsed += frame_texts.size();
        pieces.push_back({"cq.parse", t, t1, frame_texts.size()});
        t = NowNs();
        for (const auto& q : batch_queries) {
          const auto canonical = fdc::cq::Canonicalize(q);
          asm volatile("" : : "r"(&canonical) : "memory");
        }
        canon_ns += static_cast<double>(NowNs() - t);
      }
      requests.clear();
      for (size_t j = 0; j < n; ++j) {
        const size_t c = conn_of[j];
        const fdc::cq::ConjunctiveQuery* q =
            frame_texts.empty() ? &parsed_templates[c][ids[j]] : &batch_queries[j];
        query_ptrs.push_back(q);
        requests.push_back({names[c][0], q});
      }
      t = NowNs();
      twin->SubmitCoalesced(requests, &decisions);
      t1 = NowNs();
      submit_ns += static_cast<double>(t1 - t);
      pieces.push_back({"engine.submit", t, t1, n});
      encoded.clear();
      t = NowNs();
      for (size_t j = 0; j < n; ++j) {
        fdc::server::AppendDecision(&encoded, decisions[j], 1);
      }
      t1 = NowNs();
      encode_ns += static_cast<double>(t1 - t);
      pieces.push_back({"server.encode", t, t1, n});
      const uint64_t batch = replay.NewBatch();
      const uint64_t root = replay.Add("server.batch", batch, b0, NowNs(), n);
      // The twin labeler runs after the batch's root span closes; its span
      // is the labeling share of engine.submit (monitor = submit self time).
      t = NowNs();
      const auto labels = twin_labeler.LabelBatch(
          std::span<const fdc::cq::ConjunctiveQuery* const>(query_ptrs));
      t1 = NowNs();
      label_ns += static_cast<double>(t1 - t);
      pieces.push_back({"labeler.label", t, t1, labels.size()});
      uint64_t submit_span = 0;
      for (const Piece& piece : pieces) {
        const bool labeling = std::strcmp(piece.name, "labeler.label") == 0;
        const uint64_t id =
            replay.Add(piece.name, batch, piece.start, piece.end, piece.items,
                       labeling ? submit_span : root);
        if (std::strcmp(piece.name, "engine.submit") == 0) submit_span = id;
      }
      replayed += n;
    }
    // Client spans of the traced closed-loop windows, then the replay.
    Tracer& final_trace = replay;
    for (const Tracer* part : {&load.send_tracer(), &load.recv_tracer()}) {
      for (const Span& s : part->spans()) {
        final_trace.Add(s.name, final_trace.NewBatch(), s.start_ns, s.end_ns,
                        s.items);
      }
    }
    const std::string path =
        options.trace_dir + "/" + options.workload + "-" +
        std::to_string(options.seed) + ".jsonl";
    if (!final_trace.WriteJsonLines(path)) result.Note("could not write " + path);
    result.Note("trace spans written to " + path);
    const auto layers = final_trace.Layers();
    for (const auto& [name, layer] : layers) {
      result.Note(Format("self time %-16s %10.1f ns/item over %llu items, %llu spans",
                         name.c_str(), PerDecision(layer.self_ns, layer.items),
                         static_cast<unsigned long long>(layer.items),
                         static_cast<unsigned long long>(layer.spans)));
    }

    const double decode = PerDecision(decode_ns, replayed);
    const double encode = PerDecision(encode_ns, replayed);
    const double parse = PerDecision(parse_ns, replayed);
    const double submit = PerDecision(submit_ns, replayed);
    const double label = PerDecision(label_ns, replayed);
    const double per_decision_ns = dps > 0 ? 1e9 / dps : 0;
    const double wire_ns = per_decision_ns - (decode + parse + submit + encode);
    auto frac = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    const double untraced = Median(closed.window_dps);
    const double traced = closed.traced_window_dps.empty()
                              ? untraced
                              : Median(closed.traced_window_dps);
    const double server_decisions =
        static_cast<double>(server1.decisions - server0.decisions);
    result.per_layer = result.unbounded;
    result.per_layer.insert(result.per_layer.end(), {
        {"server.decode_ns", decode, "ns"},
        {"server.encode_ns", encode, "ns"},
        {"server.batch_size", frac(double(closed_decisions), double(closed_batches)), "decisions"},
        {"server.bytes_per_decision",
         frac(double((server1.bytes_read + server1.bytes_written) -
                     (server0.bytes_read + server0.bytes_written)),
              server_decisions),
         "B"},
        {"server.backpressure_pauses",
         double(server1.backpressure_pauses - server0.backpressure_pauses), "count"},
        {"server.worker_busy_frac", frac(closed.worker_cpu_s, closed.seconds), "ratio"},
        {"client.busy_frac",
         frac(std::max(closed.send_cpu_s, closed.recv_cpu_s), closed.seconds), "ratio"},
        {"server.wire_ns", wire_ns, "ns"},
        {"openloop.p50_us", open50.value, "us"},
        {"openloop.p99_us", open99.value, "us"},
        {"cq.parse_ns", frac(parse_ns, double(parsed)), "ns"},
        {"cq.canonicalize_ns", frac(canon_ns, double(parsed)), "ns"},
        {"labeler.label_ns", label, "ns"},
        {"engine.submit_ns", submit, "ns"},
        {"engine.monitor_ns", submit - label, "ns"},
        {"snapshot.update_policy_us", 0, "us"},
        {"ebr.pending_max", double(std::max(engine0.ebr.pending, engine1.ebr.pending)),
         "count"},
        {"gen.late_us_p99", late99.value, "us"},
        {"trace.overhead_frac", untraced > 0 ? 1 - traced / untraced : 0, "ratio"},
        {"trace.unaccounted_frac", frac(wire_ns, per_decision_ns), "ratio"},
    });
    const auto counters = EngineCounterMetrics(engine0, engine1, fold1 - fold0);
    result.per_layer.insert(result.per_layer.end(), counters.begin(), counters.end());
  }
  Teardown(std::move(sys));
  return result;
}

}  // namespace perfbench
