// embedded_churn: the embedded monitor at ecosystem scale, no sockets.
//
// Two caller threads call DisclosureEngine::Submit, each owning its own
// principals. Principals are Zipfian over a population 8x the principal
// map's live-slot capacity, so the tail is evicted and returning narrowed
// principals rehydrate their residuals. The Zipf exponents and the 8x
// ratio are assumptions of the benchmark, not taken from a published
// figure (see the README's "Traffic shape" section). A shadow policy stays staged for
// the whole run. Every kSwapEvery decisions per thread the callers meet at
// a barrier and the last to arrive installs the next compiled policy blob
// (artifact::LoadPolicyBlob + UpdatePolicy). Queries come from the warmup
// pool, so every label is a frozen-tier hit.
//
// A run first makes a fixed number of decisions (then reads peak RSS),
// then runs kSegments closed-loop segments (decisions_per_s as the median
// over segments; p50/p99 per Submit call, every 8th call sampled, as
// medians over 0.25 s windows). There is no open loop: the callers are the
// application, so there is no offered rate to hold.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "artifact/policy_blob.h"
#include "bench.h"
#include "engine/labeler.h"
#include "engine/snapshot.h"
#include "env.h"
#include "oracle.h"
#include "procstat.h"
#include "rewriting/fold.h"
#include "stats.h"
#include "trace.h"
#include "traffic.h"

namespace perfbench {

namespace {

constexpr int kThreads = 2;
// Assumed shape, no published source: 8x more principals than live slots
// forces capacity evictions and residual rehydration; Zipf(0.9) keeps
// most requests on revisited principals while the tail still evicts.
constexpr size_t kPopulationPerThread = 4096;
constexpr size_t kMaxPrincipals = 1024;  // population is 8x this
constexpr double kPrincipalZipf = 0.9;
constexpr double kQueryZipf = 1.0;       // assumed, as the wire templates
constexpr uint64_t kSwapEvery = 1 << 18;  // per caller thread
constexpr int kLivePolicies = 8;          // blobs 0..7 rotate; 8 is shadow
constexpr int kSetups = 9;
constexpr int kSegments = 8;               // closed-loop segments per run
constexpr int kMainCpuSlot = 3;            // set-up; callers use slots 0, 1
constexpr uint64_t kPrimingPerCaller = 1 << 19;
constexpr double kWindowSeconds = 0.25;
constexpr size_t kLatencySampleEvery = 8;
// Smallest window whose p99 has ten samples beyond it.
constexpr size_t kMinWindow = 1000;
constexpr size_t kTraceBatch = 256;       // submits per traced span
constexpr size_t kReplayCap = 300'000;
constexpr size_t kWindowReserve = 40'000;  // sampled latencies per window

struct System {
  std::unique_ptr<Catalog> catalog;
  std::vector<fdc::cq::ConjunctiveQuery> warmup;
  std::vector<std::vector<uint8_t>> blobs;
  std::unique_ptr<fdc::engine::DisclosureEngine> engine;
};

fdc::engine::EngineOptions LiveOptions() {
  fdc::engine::EngineOptions options;
  options.principals.max_principals = kMaxPrincipals;
  return options;
}

std::unique_ptr<System> Setup() {
  auto sys = std::make_unique<System>();
  sys->catalog = BuildCatalog(/*synthetic=*/false);
  sys->warmup = WarmupPool(*sys->catalog);
  sys->blobs = PolicyBlobs(*sys->catalog, kLivePolicies + 1);
  sys->engine =
      MakeEngine(*sys->catalog, sys->blobs[0], sys->warmup, LiveOptions());
  auto shadow = fdc::artifact::LoadPolicyBlob(sys->blobs[kLivePolicies]);
  if (!shadow.ok() || !sys->engine->SetShadowPolicy(shadow.value()).ok()) {
    Die("staging the shadow policy failed");
  }
  return sys;
}

/// One caller thread's deterministic request stream.
class ChurnStream {
 public:
  ChurnStream(const ZipfSampler* principals, const ZipfSampler* queries,
              int thread, uint64_t seed)
      : principals_(principals),
        queries_(queries),
        rng_(StreamSeed(seed, 2000 + static_cast<uint64_t>(thread))) {}
  void Next(size_t* principal, size_t* query) {
    *principal = principals_->Sample(rng_);
    *query = queries_->Sample(rng_);
  }

 private:
  const ZipfSampler* principals_;
  const ZipfSampler* queries_;
  fdc::Rng rng_;
};

struct Caller {
  int index = 0;
  std::unique_ptr<ChurnStream> stream;
  std::vector<std::string> names;
  std::vector<Digest> digests;
  uint64_t issued = 0;
  std::atomic<uint64_t> done{0};
  // This caller's request index at each policy swap, in swap order.
  std::vector<uint64_t> swap_positions;
  // Sampled latencies (every kLatencySampleEvery-th request), by window of
  // the current phase.
  std::vector<std::vector<double>> latency_us;
  double submit_ns = 0;  // summed Submit time
  uint64_t submits_timed = 0;
  double cpu_s = 0;  // CPU time of the caller's last closed-loop run
  Tracer tracer;
};

/// Policy swaps at deterministic points. Caller 0 leads: at each multiple
/// of kSwapEvery of its own requests it announces swap k and waits; every
/// other caller parks before its next request, and once all are parked the
/// leader installs the next compiled blob (artifact::LoadPolicyBlob +
/// UpdatePolicy) and records every caller's request index, which is where
/// the oracle replays the swap. A phase ending first withdraws the swap;
/// the leader retries it at the same point in the next phase.
class SwapBarrier {
 public:
  SwapBarrier(System* sys, std::vector<std::unique_ptr<Caller>>* callers,
              const std::atomic<bool>* tracing, Tracer* tracer)
      : sys_(sys), callers_(callers), tracing_(tracing), tracer_(tracer) {}

  uint64_t swaps() const { return swaps_.load(std::memory_order_acquire); }
  /// Cheap check for followers before each request.
  bool Requested() const {
    return requested_.load(std::memory_order_acquire) >
           swaps_.load(std::memory_order_relaxed);
  }

  /// Leader side; returns false if the phase ended first.
  bool Lead(uint64_t k) {
    std::unique_lock<std::mutex> lock(mu_);
    requested_.store(k, std::memory_order_release);
    const int followers = static_cast<int>(callers_->size()) - 1;
    cv_.wait(lock, [&] { return arrived_ == followers || stop_; });
    if (arrived_ < followers) {
      requested_.store(swaps_.load(), std::memory_order_release);
      cv_.notify_all();
      return false;
    }
    const int64_t t0 = NowNs();
    auto loaded = fdc::artifact::LoadPolicyBlob(sys_->blobs[k % kLivePolicies]);
    if (!loaded.ok() || !sys_->engine->UpdatePolicy(loaded.value()).ok()) {
      Die("installing policy blob failed");
    }
    const int64_t t1 = NowNs();
    update_us_.push_back(static_cast<double>(t1 - t0) * 1e-3);
    pending_max_ =
        std::max<uint64_t>(pending_max_, sys_->engine->Stats().ebr.pending);
    if (tracing_->load(std::memory_order_relaxed)) {
      tracer_->Add("snapshot.update_policy", tracer_->NewBatch(), t0, t1, 1);
    }
    for (auto& c : *callers_) c->swap_positions.push_back(c->issued);
    arrived_ = 0;
    swaps_.store(k, std::memory_order_release);
    cv_.notify_all();
    return true;
  }

  /// Follower side; returns false if the phase ended first.
  bool Follow() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t k = requested_.load();
    if (k <= swaps_.load()) return true;  // already done or withdrawn
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] {
      return swaps_.load() >= k || stop_ || requested_.load() < k;
    });
    if (swaps_.load() >= k) return true;
    --arrived_;
    return false;
  }

  void Start() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  const std::vector<double>& update_us() const { return update_us_; }
  uint64_t pending_max() const { return pending_max_; }

 private:
  System* sys_;
  std::vector<std::unique_ptr<Caller>>* callers_;
  const std::atomic<bool>* tracing_;
  Tracer* tracer_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool stop_ = false;
  std::atomic<uint64_t> requested_{0};
  std::atomic<uint64_t> swaps_{0};
  std::vector<double> update_us_;
  uint64_t pending_max_ = 0;
};

class ChurnLoad {
 public:
  ChurnLoad(System* sys, std::vector<std::unique_ptr<Caller>>* callers,
              bool trace)
      : sys_(sys), callers_(callers), trace_(trace),
        barrier_(sys, callers, &tracing_, &swap_tracer_) {}

  SwapBarrier& barrier() { return barrier_; }
  Tracer& swap_tracer() { return swap_tracer_; }

  struct ClosedResult {
    std::vector<double> untraced, traced;  // per-window rates
    std::vector<double> segment_dps;       // one per closed-loop run
    std::vector<double> segment_dpcs;      // same, per caller CPU-second
    std::vector<std::vector<double>> latency_us;  // sampled, by window

    void Append(ClosedResult&& o) {
      untraced.insert(untraced.end(), o.untraced.begin(), o.untraced.end());
      traced.insert(traced.end(), o.traced.begin(), o.traced.end());
      segment_dps.insert(segment_dps.end(), o.segment_dps.begin(), o.segment_dps.end());
      segment_dpcs.insert(segment_dpcs.end(), o.segment_dpcs.begin(), o.segment_dpcs.end());
      for (auto& w : o.latency_us) latency_us.push_back(std::move(w));
    }
  };

  /// Closed loop until every caller has made `per_caller` requests in
  /// total: a fixed amount of work, whatever its speed.
  void RunFixed(uint64_t per_caller) {
    Begin(1);
    cap_ = per_caller;
    std::vector<std::thread> threads;
    for (auto& c : *callers_) {
      threads.emplace_back([this, caller = c.get()] {
        ClosedLoop(*caller);
        if (caller->index != 0) ParkAtCap();
      });
    }
    for (auto& t : threads) t.join();
    cap_ = UINT64_MAX;
  }

  /// Closed loop for `seconds`; tracing (in a traced run) is on in every
  /// other window.
  ClosedResult RunClosed(double seconds) {
    const int windows = std::max(1, static_cast<int>(seconds / kWindowSeconds));
    Begin(windows);
    ClosedResult out;
    std::vector<double>& untraced = out.untraced;
    std::vector<double>& traced = out.traced;
    std::vector<std::thread> threads;
    for (auto& c : *callers_) {
      threads.emplace_back([this, caller = c.get()] { ClosedLoop(*caller); });
    }
    const int64_t t0 = NowNs();
    const uint64_t base = Done();
    uint64_t last = base;
    int64_t last_t = t0;
    for (int w = 0; w < windows; ++w) {
      const bool on = trace_ && w % 2 == 1;
      tracing_.store(on, std::memory_order_relaxed);
      window_.store(w, std::memory_order_relaxed);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(
              t0 + static_cast<int64_t>((w + 1) * seconds / windows * 1e9))));
      const uint64_t now_done = Done();
      const int64_t now_t = NowNs();
      (on ? traced : untraced)
          .push_back(static_cast<double>(now_done - last) /
                     (static_cast<double>(now_t - last_t) * 1e-9));
      last = now_done;
      last_t = now_t;
    }
    End(threads);
    tracing_.store(false);
    out.segment_dps.push_back(static_cast<double>(last - base) /
                              (static_cast<double>(last_t - t0) * 1e-9));
    double cpu_s = 0;
    for (auto& c : *callers_) cpu_s += c->cpu_s;
    if (cpu_s > 0) {
      out.segment_dpcs.push_back(static_cast<double>(Done() - base) / cpu_s);
    }
    out.latency_us.resize(windows);
    for (auto& c : *callers_) {
      for (int w = 0; w < windows; ++w) {
        out.latency_us[w].insert(out.latency_us[w].end(), c->latency_us[w].begin(),
                                 c->latency_us[w].end());
      }
    }
    return out;
  }

 private:
  uint64_t Done() const {
    uint64_t total = 0;
    for (const auto& c : *callers_) total += c->done.load(std::memory_order_relaxed);
    return total;
  }
  void Begin(int windows) {
    stop_.store(false);
    window_.store(0);
    barrier_.Start();
    for (auto& c : *callers_) {
      // Fixed reservations, so peak RSS does not follow the sample count.
      c->latency_us.assign(windows, {});
      for (auto& w : c->latency_us) w.reserve(kWindowReserve);
    }
  }
  void End(std::vector<std::thread>& threads) {
    stop_.store(true);
    barrier_.Stop();
    for (auto& t : threads) t.join();
  }

  /// A follower that reached the cap keeps parking for the leader's swaps
  /// until the leader reaches the cap too; otherwise a leader slower than
  /// half a follower's speed would wait for an arrival that never comes.
  /// The swap is then recorded at the follower's final request index.
  void ParkAtCap() {
    const Caller& leader = *callers_->front();
    while (leader.done.load(std::memory_order_relaxed) < cap_) {
      if (barrier_.Requested()) {
        barrier_.Follow();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  /// Takes part in a pending policy swap before the next request.
  bool AtSwapPoint(Caller& c) {
    if (c.index != 0) return !barrier_.Requested() || barrier_.Follow();
    if (c.issued == 0 || c.issued % kSwapEvery != 0) return true;
    const uint64_t k = c.issued / kSwapEvery;
    return barrier_.swaps() >= k || barrier_.Lead(k);
  }

  bool SubmitNext(Caller& c, int64_t* start, int64_t* finish) {
    if (!AtSwapPoint(c)) return false;
    size_t principal = 0, query = 0;
    c.stream->Next(&principal, &query);
    *start = NowNs();
    const bool allow =
        sys_->engine->Submit(c.names[principal], sys_->warmup[query]);
    *finish = NowNs();
    c.digests[principal].Add(allow);
    ++c.issued;
    c.done.store(c.issued, std::memory_order_relaxed);
    return true;
  }

  void ClosedLoop(Caller& c) {
    PinThread(CurrentThreadId(), c.index);
    const double cpu0 = CurrentThreadCpuSeconds();
    int64_t batch_start = NowNs();
    double batch_submit_ns = 0;
    size_t in_batch = 0;
    while (!stop_.load(std::memory_order_relaxed) && c.issued < cap_) {
      int64_t start = 0, finish = 0;
      if (!SubmitNext(c, &start, &finish)) break;
      const double ns = static_cast<double>(finish - start);
      if (c.issued % kLatencySampleEvery == 0) {
        c.latency_us[window_.load(std::memory_order_relaxed)].push_back(ns * 1e-3);
      }
      c.submit_ns += ns;
      ++c.submits_timed;
      batch_submit_ns += ns;
      if (++in_batch == kTraceBatch) {
        const int64_t now = NowNs();
        if (tracing_.load(std::memory_order_relaxed)) {
          // One span per batch; the engine.submit child aggregates the
          // batch's Submit calls (their summed time from the batch start).
          const uint64_t batch = c.tracer.NewBatch();
          const uint64_t root =
              c.tracer.Add("caller.batch", batch, batch_start, now, in_batch);
          c.tracer.Add("engine.submit", batch, batch_start,
                       batch_start + static_cast<int64_t>(batch_submit_ns),
                       in_batch, root);
        }
        batch_start = now;
        batch_submit_ns = 0;
        in_batch = 0;
      }
    }
    c.cpu_s = CurrentThreadCpuSeconds() - cpu0;
  }

  System* sys_;
  std::vector<std::unique_ptr<Caller>>* callers_;
  bool trace_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> tracing_{false};
  std::atomic<int> window_{0};
  uint64_t cap_ = UINT64_MAX;  // per-caller request cap (RunFixed)
  Tracer swap_tracer_;
  SwapBarrier barrier_;
};

}  // namespace

WorkloadResult RunEmbeddedChurn(const RunOptions& options) {
  WorkloadResult result;
  result.metadata.push_back({"ladder_dps", "none (closed loop only)"});
  result.metadata.push_back({"latency_limit_us", "none"});
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  {
    const ScopedPin pin(kMainCpuSlot);
    for (int i = 0; i < kSetups; ++i) {
      sys.reset();
      const int64_t t = NowNs();
      sys = Setup();
      setup_s.push_back(static_cast<double>(NowNs() - t) * 1e-9);
    }
  }
  const ZipfSampler principal_zipf(kPopulationPerThread, kPrincipalZipf);
  const ZipfSampler query_zipf(sys->warmup.size(), kQueryZipf);
  std::vector<std::unique_ptr<Caller>> callers;
  for (int t = 0; t < kThreads; ++t) {
    auto c = std::make_unique<Caller>();
    c->index = t;
    c->stream = std::make_unique<ChurnStream>(&principal_zipf, &query_zipf, t,
                                              options.seed);
    for (size_t p = 0; p < kPopulationPerThread; ++p) {
      c->names.push_back("t" + std::to_string(t) + "-app-" + std::to_string(p));
    }
    c->digests.resize(kPopulationPerThread);
    callers.push_back(std::move(c));
  }
  const auto stats0 = sys->engine->Stats();
  const uint64_t fold0 = fdc::rewriting::FoldScratchReuses();
  ChurnLoad load(sys.get(), &callers, options.trace);

  // --- 0. priming: fixed work, then peak RSS --------------------------------
  // Read after a fixed number of decisions rather than at the end, so it
  // does not follow throughput.
  load.RunFixed(kPrimingPerCaller);
  const double peak_rss = PeakRssMb();
  // --- 1. closed-loop segments ----------------------------------------------
  ChurnLoad::ClosedResult closed;
  for (int segment = 0; segment < kSegments; ++segment) {
    closed.Append(load.RunClosed(options.seconds / kSegments));
  }
  double submit_ns = 0;
  uint64_t submits = 0;
  for (auto& c : callers) {
    submit_ns += c->submit_ns;
    submits += c->submits_timed;
  }
  const Percentile p50 = WindowedPercentile(closed.latency_us, 0.5, kMinWindow);
  const Percentile p90 = WindowedPercentile(closed.latency_us, 0.90, kMinWindow);
  const Percentile p99 = WindowedPercentile(closed.latency_us, 0.99, kMinWindow);
  closed.latency_us = {};
  const std::vector<double>& untraced = closed.untraced;
  const std::vector<double>& traced = closed.traced;
  for (auto& c : callers) c->latency_us = {};
  const auto stats1 = sys->engine->Stats();
  const uint64_t fold1 = fdc::rewriting::FoldScratchReuses();

  // --- oracle ---------------------------------------------------------------
  uint64_t attempted = 0;
  std::vector<ShareCounter> shares(callers.size());
  std::vector<OracleJob> jobs;
  const uint64_t swaps = load.barrier().swaps();
  for (auto& cp : callers) {
    Caller& c = *cp;
    attempted += c.issued;
    OracleJob job;
    job.make_engine = [&] {
      return MakeEngine(*sys->catalog, sys->blobs[0], sys->warmup);
    };
    job.principals = &c.names;
    job.count = c.issued;
    job.observed = &c.digests;
    for (uint64_t k = 1; k <= swaps; ++k) {
      job.swap_at.push_back(c.swap_positions[k - 1]);
      job.swap_blobs.push_back(&sys->blobs[k % kLivePolicies]);
    }
    auto stream = std::make_shared<ChurnStream>(&principal_zipf, &query_zipf,
                                                c.index, options.seed);
    ShareCounter* counter = &shares[c.index];
    const size_t base = static_cast<size_t>(c.index) * kPopulationPerThread;
    job.next = [stream, counter, base, &sys](uint64_t, size_t* principal,
                                             const fdc::cq::ConjunctiveQuery** q) {
      size_t query = 0;
      stream->Next(principal, &query);
      *q = &sys->warmup[query];
      counter->Count(query, base + *principal, false);
    };
    jobs.push_back(std::move(job));
  }
  const OracleReport oracle = RunOracle(jobs, kThreads);
  result.attempted = attempted;
  result.failed = 0;  // Submit always returns a decision
  if (oracle.mismatched != 0) {
    result.Fail(Format("oracle: %llu of %llu principals disagree (first: %s)",
                       static_cast<unsigned long long>(oracle.mismatched),
                       static_cast<unsigned long long>(oracle.principals),
                       oracle.first_mismatch.c_str()));
  }
  result.Note(Format("oracle: %llu decisions replayed through Submit, %llu "
                     "principals, %llu mismatched, %llu policy swaps",
                     static_cast<unsigned long long>(oracle.replayed),
                     static_cast<unsigned long long>(oracle.principals),
                     static_cast<unsigned long long>(oracle.mismatched),
                     static_cast<unsigned long long>(swaps)));
  ShareCounter share;
  for (const auto& s : shares) share.Merge(s);
  result.Note(Format("measured shares: top-10 template share %.4f, principal "
                     "revisit share %.4f, novel share %.4f",
                     share.TopTenShare(), share.RevisitShare(),
                     share.NovelShare()));
  result.Note(Format("closed loop: p50 %.3f us p99 %.3f us per Submit over %zu "
                     "samples; failed_frac 0",
                     p50.value, p99.value, p50.samples));

  const double dps = Median(closed.segment_dps);
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
      {"slo_rate_dps", 0, "decisions/s"},  // no open loop (wire only)
  };

  if (options.trace) {
    // Twin labeler fed caller 0's stream in the same order, in batches.
    fdc::engine::ConcurrentLabeler twin(fdc::engine::FrozenCatalog::Build(
        sys->catalog->views.get(),
        std::span(sys->warmup.data(), sys->warmup.size())));
    ChurnStream stream(&principal_zipf, &query_zipf, 0, options.seed);
    const uint64_t n = std::min<uint64_t>(callers[0]->issued, kReplayCap);
    std::vector<const fdc::cq::ConjunctiveQuery*> batch;
    double label_ns = 0;
    Tracer& tracer = callers[0]->tracer;
    for (uint64_t i = 0; i < n;) {
      batch.clear();
      for (; batch.size() < kTraceBatch && i < n; ++i) {
        size_t principal = 0, query = 0;
        stream.Next(&principal, &query);
        batch.push_back(&sys->warmup[query]);
      }
      const int64_t t0 = NowNs();
      const auto labels = twin.LabelBatch(
          std::span<const fdc::cq::ConjunctiveQuery* const>(batch));
      const int64_t t1 = NowNs();
      label_ns += static_cast<double>(t1 - t0);
      tracer.Add("labeler.label", tracer.NewBatch(), t0, t1, labels.size());
    }
    Tracer all;
    for (const Tracer* part :
         {&callers[0]->tracer, &callers[1]->tracer, &load.swap_tracer()}) {
      std::unordered_map<uint64_t, uint64_t> remap;
      for (const Span& s : part->spans()) {
        remap[s.id] = all.Add(s.name, all.NewBatch(), s.start_ns, s.end_ns,
                              s.items, s.parent == 0 ? 0 : remap.at(s.parent));
      }
    }
    const std::string path = options.trace_dir + "/" + options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (!all.WriteJsonLines(path)) result.Note("could not write " + path);
    result.Note("trace spans written to " + path);
    const auto layers = all.Layers();
    for (const auto& [name, layer] : layers) {
      result.Note(Format("self time %-24s %10.1f ns/item over %llu items, %llu spans",
                         name.c_str(),
                         layer.items == 0 ? 0.0 : layer.self_ns / layer.items,
                         static_cast<unsigned long long>(layer.items),
                         static_cast<unsigned long long>(layer.spans)));
    }
    double unaccounted = 0;
    if (auto it = layers.find("caller.batch"); it != layers.end() &&
                                               it->second.total_ns > 0) {
      unaccounted = it->second.self_ns / it->second.total_ns;
    }
    auto frac = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    const double submit = frac(submit_ns, double(submits));
    const double label = frac(label_ns, double(n));
    const double untraced_dps = Median(untraced);
    const double traced_dps = traced.empty() ? untraced_dps : Median(traced);
    std::vector<double> update_us = load.barrier().update_us();
    result.per_layer = result.unbounded;
    result.per_layer.insert(result.per_layer.end(), {
        {"server.decode_ns", 0, "ns"},
        {"server.encode_ns", 0, "ns"},
        {"server.batch_size", 0, "decisions"},
        {"server.bytes_per_decision", 0, "B"},
        {"server.backpressure_pauses", 0, "count"},
        {"server.worker_busy_frac", 0, "ratio"},
        {"client.busy_frac", 0, "ratio"},
        {"server.wire_ns", 0, "ns"},
        {"openloop.p50_us", 0, "us"},
        {"openloop.p99_us", 0, "us"},
        {"cq.parse_ns", 0, "ns"},
        {"cq.canonicalize_ns", 0, "ns"},
        {"labeler.label_ns", label, "ns"},
        {"engine.submit_ns", submit, "ns"},
        {"engine.monitor_ns", submit - label, "ns"},
        {"snapshot.update_policy_us", update_us.empty() ? 0 : Median(update_us), "us"},
        {"ebr.pending_max", double(load.barrier().pending_max()), "count"},
        {"gen.late_us_p99", 0, "us"},
        {"trace.overhead_frac", untraced_dps > 0 ? 1 - traced_dps / untraced_dps : 0, "ratio"},
        {"trace.unaccounted_frac", unaccounted, "ratio"},
    });
    const auto counters = EngineCounterMetrics(stats0, stats1, fold1 - fold0);
    result.per_layer.insert(result.per_layer.end(), counters.begin(), counters.end());
  }
  return result;
}

}  // namespace perfbench
