// Socket serving benchmark: closed-loop load against the disclosure
// server over loopback, measuring end-to-end wire throughput (decode →
// coalesced SubmitBatch → encode) and request tail latency.
//
// Series:
//   * ServerLoad/pipelined/conns/N — N connections, each pipelining
//     kPipeline template submits per flush (the shape the per-wake
//     coalescing layer is designed for). Counter: decisions_per_second.
//     The process *hard-fails* if any response is missing, reordered onto
//     the wrong connection, or a protocol error — the throughput number is
//     only meaningful if every submitted request produced exactly one
//     decision.
//   * ServerLoad/latency — one connection, strict call/response (each
//     submit waits for its decision): the unloaded full-stack RTT.
//     Counters: p50_us / p99_us / p999_us.
//
// By default each run spins up an in-process server (1 worker — the CI
// container is single-core; client and server share it, so the closed
// loop ping-pongs through the loopback socket). Set
// FDC_SERVER_CONNECT=host:port to drive an external disclosure_serverd
// daemon instead (the CI integration job does this); the daemon must host
// the §7.2 Facebook catalog.
//
// bench/run_benchmarks.sh folds the series into BENCH_hotpath.json as the
// `fig_server` block next to the 1M decisions/s acceptance floor.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "cq/printer.h"
#include "engine/disclosure_engine.h"
#include "server/client.h"
#include "server/disclosure_server.h"
#include "server/failpoints.h"
#include "workload/policy_generator.h"

namespace fdc::bench {
namespace {

constexpr int kTemplates = 64;   // registered per connection
constexpr int kPipeline = 256;   // submits per connection per flush
constexpr int kPoolSize = 512;
constexpr int kSubqueries = 2;

const std::vector<cq::ConjunctiveQuery>& Pool() {
  static const std::vector<cq::ConjunctiveQuery> pool =
      MakeQueryPool(kSubqueries, kPoolSize, 0x5e43ULL);
  return pool;
}

/// The serving endpoint: an in-process DisclosureServer by default, or an
/// external daemon named by FDC_SERVER_CONNECT=host:port.
struct ServeEndpoint {
  std::unique_ptr<engine::DisclosureEngine> engine;  // in-process only
  std::unique_ptr<server::DisclosureServer> server;  // in-process only
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  bool external = false;

  ServeEndpoint() {
    if (const char* target = std::getenv("FDC_SERVER_CONNECT")) {
      const std::string spec(target);
      const size_t colon = spec.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "FDC_SERVER_CONNECT must be host:port, got %s\n",
                     target);
        std::abort();
      }
      host = spec.substr(0, colon);
      port = static_cast<uint16_t>(std::stoi(spec.substr(colon + 1)));
      external = true;
      return;
    }
    workload::PolicyOptions options;
    options.max_partitions = 5;
    options.max_elements_per_partition = 15;
    workload::PolicyGenerator generator(FacebookEnv::Get().catalog.get(),
                                        options, 0x5107'e002);
    // Warm the frozen label tier with the template pool: registered
    // templates re-parsed from Datalog are structurally identical, so
    // serving-time labeling resolves lock-free (the deployment shape — a
    // daemon pre-labels its app ecosystem's known templates at startup).
    const auto& pool = Pool();
    engine = std::make_unique<engine::DisclosureEngine>(
        /*db=*/nullptr, FacebookEnv::Get().catalog.get(), generator.Next(),
        engine::EngineOptions{}, std::span(pool.data(), pool.size()));
    server::ServerOptions sopts;
    sopts.workers = 1;
    server = std::make_unique<server::DisclosureServer>(engine.get(), sopts);
    Status s = server->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "server start: %s\n", s.ToString().c_str());
      std::abort();
    }
    port = server->port();
  }

  static ServeEndpoint& Get() {
    static ServeEndpoint endpoint;
    return endpoint;
  }
};

void Die(const char* what, const Status& s) {
  std::fprintf(stderr, "fig_server: %s: %s\n", what, s.ToString().c_str());
  std::abort();
}

/// Connects one client and registers the template pool prefix.
server::BlockingClient MakeClient(const std::string& principal) {
  ServeEndpoint& ep = ServeEndpoint::Get();
  server::BlockingClient client;
  if (Status s = client.Connect(ep.host, ep.port, principal); !s.ok()) {
    Die("connect", s);
  }
  const auto& pool = Pool();
  const cq::Schema& schema = FacebookEnv::Get().schema;
  for (int t = 0; t < kTemplates; ++t) {
    if (Status s = client.RegisterTemplate(
            static_cast<uint32_t>(t), cq::ToDatalog(pool[t], schema));
        !s.ok()) {
      Die("register template", s);
    }
  }
  return client;
}

// Unique principal names across benchmark runs so every run starts from
// fresh monitor state instead of a saturated wall.
std::string NextPrincipal() {
  static int serial = 0;
  return "load-" + std::to_string(serial++);
}

// Reference series without sockets: the same cross-connection batch shape
// handed straight to SubmitCoalesced, each request carrying its template's
// label resolved once before the loop, as the server resolves it at
// registration. The gap between this and ServerLoad/pipelined is the wire
// cost (decode + encode + syscalls + scheduler ping-pong on a shared core).
void BM_SubmitCoalescedOnly(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  workload::PolicyOptions options;
  options.max_partitions = 5;
  options.max_elements_per_partition = 15;
  workload::PolicyGenerator generator(FacebookEnv::Get().catalog.get(),
                                      options, 0x5107'e002);
  const auto& pool = Pool();
  engine::DisclosureEngine engine(
      /*db=*/nullptr, FacebookEnv::Get().catalog.get(), generator.Next(), {},
      std::span(pool.data(), pool.size()));
  std::vector<label::DisclosureLabel> labels;
  for (int t = 0; t < kTemplates; ++t) labels.push_back(engine.Explain(pool[t]));
  std::vector<std::string> principals;
  for (int i = 0; i < conns; ++i) principals.push_back(NextPrincipal());
  Rng rng(0xe6'917eULL);
  std::vector<engine::DisclosureEngine::SubmitRequest> requests;
  std::vector<bool> decisions;
  std::vector<uint64_t> epochs;
  for (auto _ : state) {
    requests.clear();
    for (int i = 0; i < conns; ++i) {
      for (int j = 0; j < kPipeline; ++j) {
        const size_t t = rng.Below(kTemplates);
        requests.push_back({principals[i], &pool[t], &labels[t]});
      }
    }
    engine.SubmitCoalesced(requests, &decisions, &epochs);
    benchmark::DoNotOptimize(decisions);
  }
  const int per_iteration = conns * kPipeline;
  state.SetItemsProcessed(state.iterations() * per_iteration);
  state.counters["decisions_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * per_iteration,
      benchmark::Counter::kIsRate);
}

void BM_ServerPipelined(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  std::vector<server::BlockingClient> clients;
  clients.reserve(conns);
  for (int i = 0; i < conns; ++i) clients.push_back(MakeClient(NextPrincipal()));

  Rng rng(0xc0'77ec7 + static_cast<uint64_t>(conns));
  uint64_t submitted = 0;
  uint64_t answered = 0;
  uint64_t batches_before = 0;
  uint64_t decisions_before = 0;
  if (!ServeEndpoint::Get().external) {
    const auto before = ServeEndpoint::Get().server->stats();
    batches_before = before.coalesced_batches;
    decisions_before = before.decisions;
  }
  for (auto _ : state) {
    // Closed loop: burst every connection's pipeline, then drain every
    // connection's responses. One burst lands as few epoll wakes on the
    // server, so the decode batch spans connections.
    for (auto& client : clients) {
      for (int j = 0; j < kPipeline; ++j) {
        client.QueueSubmit(static_cast<uint32_t>(rng.Below(kTemplates)));
      }
      if (Status s = client.Flush(); !s.ok()) Die("flush", s);
      submitted += kPipeline;
    }
    for (auto& client : clients) {
      for (int j = 0; j < kPipeline; ++j) {
        server::ClientResponse resp;
        if (Status s = client.ReadResponse(&resp); !s.ok()) Die("read", s);
        if (resp.type != server::FrameType::kDecision) {
          std::fprintf(stderr,
                       "fig_server: frame %d of pipeline was type %u, not a "
                       "decision\n",
                       j, static_cast<unsigned>(resp.type));
          std::abort();
        }
        ++answered;
      }
    }
  }
  // The acceptance gate: every submit produced exactly one decision on its
  // own connection, in order (ReadResponse would have desynced otherwise).
  if (answered != submitted) {
    std::fprintf(stderr, "fig_server: %llu submits but %llu decisions\n",
                 static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(answered));
    std::abort();
  }
  const int per_iteration = conns * kPipeline;
  state.SetItemsProcessed(state.iterations() * per_iteration);
  state.counters["decisions_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * per_iteration,
      benchmark::Counter::kIsRate);
  if (!ServeEndpoint::Get().external) {
    const auto stats = ServeEndpoint::Get().server->stats();
    state.counters["max_coalesced_batch"] = benchmark::Counter(
        static_cast<double>(stats.max_coalesced_batch));
    const uint64_t batches = stats.coalesced_batches - batches_before;
    state.counters["avg_coalesced_batch"] = benchmark::Counter(
        batches == 0 ? 0.0
                     : static_cast<double>(stats.decisions - decisions_before) /
                           static_cast<double>(batches));
  }
}

void BM_ServerLatency(benchmark::State& state) {
  server::BlockingClient client = MakeClient(NextPrincipal());
  Rng rng(0x1a7e'c1ULL);
  std::vector<double> samples_us;
  samples_us.reserve(1 << 16);
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    server::ClientResponse resp;
    if (Status s = client.Submit(
            static_cast<uint32_t>(rng.Below(kTemplates)), &resp);
        !s.ok()) {
      Die("submit", s);
    }
    if (resp.type != server::FrameType::kDecision) {
      std::fprintf(stderr, "fig_server: latency probe got frame type %u\n",
                   static_cast<unsigned>(resp.type));
      std::abort();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    samples_us.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }
  std::sort(samples_us.begin(), samples_us.end());
  auto percentile = [&](double p) {
    if (samples_us.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(p * (samples_us.size() - 1));
    return samples_us[idx];
  };
  state.SetItemsProcessed(state.iterations());
  state.counters["decisions_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = benchmark::Counter(percentile(0.50));
  state.counters["p99_us"] = benchmark::Counter(percentile(0.99));
  state.counters["p999_us"] = benchmark::Counter(percentile(0.999));
}

// Degraded-mode series: the same closed-loop burst shape as /pipelined,
// but with ~1% benign (EINTR/EAGAIN/short IO) and ~0.2% lethal
// (ECONNRESET/EPIPE) faults injected into the server's recv/send path,
// and clients that reconnect (fresh session + template re-registration)
// whenever a lethal fault kills their connection mid-burst. Submits lost
// with a killed connection are not counted — decisions_per_second is
// *answered* decisions, so the clean/degraded ratio in BENCH_hotpath.json
// honestly prices both the fault overhead and the reconnect churn.
// In-process only (the failpoints live in this process); registered last
// so the clean series always runs first.
void BM_ServerDegraded(benchmark::State& state) {
  if (ServeEndpoint::Get().external) {
    state.SkipWithError("degraded series needs the in-process server");
    return;
  }
  const int conns = static_cast<int>(state.range(0));

  server::RetryOptions retry;
  retry.max_attempts = 12;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 20;
  // Registration (64 call/response roundtrips per client) runs under the
  // storm too, so clients are built with the retry machinery armed.
  auto make_degraded_client = [&](const std::string& principal) {
    server::BlockingClient client;
    client.EnableRetry(retry);
    if (Status s = client.SetCallDeadline(5000); !s.ok()) Die("deadline", s);
    Status s = Status::OK();
    for (int attempt = 0; attempt < 8; ++attempt) {
      s = client.Connect(ServeEndpoint::Get().host, ServeEndpoint::Get().port,
                         principal);
      if (s.ok()) break;
    }
    if (!s.ok()) Die("connect", s);
    const auto& pool = Pool();
    const cq::Schema& schema = FacebookEnv::Get().schema;
    for (int t = 0; t < kTemplates; ++t) {
      if (Status st = client.RegisterTemplate(
              static_cast<uint32_t>(t), cq::ToDatalog(pool[t], schema));
          !st.ok()) {
        Die("register template", st);
      }
    }
    return client;
  };

  server::failpoints::Config cfg;
  cfg.seed = 0xdecadeULL + static_cast<uint64_t>(conns);
  cfg.rate = 0.01;
  cfg.lethal_rate = 0.002;
  cfg.short_io = 0.5;
  cfg.ops = server::failpoints::kRecv | server::failpoints::kSend;
  server::failpoints::ScopedFailpoints scoped(cfg);

  std::vector<std::string> principals;
  std::vector<server::BlockingClient> clients;
  clients.reserve(conns);
  for (int i = 0; i < conns; ++i) {
    principals.push_back(NextPrincipal());
    clients.push_back(make_degraded_client(principals.back()));
  }

  Rng rng(0xdeadULL + static_cast<uint64_t>(conns));
  uint64_t answered = 0;
  uint64_t reconnects = 0;
  for (auto _ : state) {
    for (int i = 0; i < conns; ++i) {
      // Pipelined bursts are outside the retry machinery by design: when
      // a lethal fault kills the connection mid-burst the unanswered
      // remainder is abandoned and the client rebuilt — the recovery
      // policy a real pipelining caller would implement.
      auto& client = clients[static_cast<size_t>(i)];
      for (int j = 0; j < kPipeline; ++j) {
        client.QueueSubmit(static_cast<uint32_t>(rng.Below(kTemplates)));
      }
      bool alive = client.Flush().ok();
      for (int j = 0; alive && j < kPipeline; ++j) {
        server::ClientResponse resp;
        if (!client.ReadResponse(&resp).ok()) {
          alive = false;
          break;
        }
        if (resp.type == server::FrameType::kDecision) ++answered;
      }
      if (!alive) {
        ++reconnects;
        clients[static_cast<size_t>(i)] =
            make_degraded_client(principals[static_cast<size_t>(i)]);
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(answered));
  state.counters["decisions_per_second"] = benchmark::Counter(
      static_cast<double>(answered), benchmark::Counter::kIsRate);
  state.counters["reconnects"] =
      benchmark::Counter(static_cast<double>(reconnects));
  const server::failpoints::Stats fstats = server::failpoints::Current();
  state.counters["injected_faults"] =
      benchmark::Counter(static_cast<double>(fstats.faults));
}

BENCHMARK(BM_SubmitCoalescedOnly)
    ->Arg(1)
    ->Arg(16)
    ->Name("ServerLoad/engine_only/conns");
BENCHMARK(BM_ServerPipelined)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->UseRealTime()
    ->Name("ServerLoad/pipelined/conns");
BENCHMARK(BM_ServerLatency)
    ->UseRealTime()
    ->Name("ServerLoad/latency");
BENCHMARK(BM_ServerDegraded)
    ->Arg(4)
    ->UseRealTime()
    ->Name("ServerLoad/degraded/conns");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
