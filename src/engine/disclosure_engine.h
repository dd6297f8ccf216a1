// DisclosureEngine: the shard-aware, thread-safe enforcement core.
//
// One engine instance serves any number of threads. The paper's
// per-principal reference monitor (§3.4/§6.2) is preserved exactly — the
// engine is decision-for-decision identical to the seed
// ReferenceMonitor/GuardedDatabase path (property-tested) — but the state
// behind it is restructured into three tiers:
//
//   1. frozen shared state (engine/snapshot.h): the interned view catalog,
//      precomputed view labels, the rewriting-order closure, and a frozen
//      warmup label table, built once and read lock-free;
//   2. sharded concurrency: the dynamic labeling overlay behind a
//      reader/writer lock (engine/labeler.h) and per-principal monitor
//      state in a sharded open-addressed map (engine/principal_map.h) —
//      Submit / SubmitBatch from N threads on distinct principals touch
//      disjoint shard locks, and frozen-tier labels take no lock at all;
//   3. policy epochs: UpdatePolicy compiles a new EngineSnapshot and
//      publishes it atomically. Every request loads the snapshot exactly
//      once, so it sees one consistent policy — never a half-updated one —
//      and per-principal state is epoch-tagged so stale consistency bits
//      can never leak across policies. Requests pin an epoch::Guard and
//      load the published raw pointer with one acquire load — no lock, no
//      refcount traffic — and a displaced snapshot is reclaimed through
//      epoch::Domain once every in-flight reader has unpinned.
//
// Oracle baseline: the seed single-threaded path is kept intact behind
// GuardedDatabase's use_engine=false mode and LabelingPipeline;
// bench/fig_engine_scaling.cc sweeps 1→N threads against this facade.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "common/locks.h"
#include "common/result.h"
#include "cq/query.h"
#include "cq/sql_parser.h"
#include "engine/labeler.h"
#include "engine/principal_map.h"
#include "engine/snapshot.h"
#include "label/compressed_label.h"
#include "policy/explain.h"
#include "policy/policy.h"
#include "storage/database.h"
#include "storage/tuple.h"

namespace fdc::artifact {
class LoadedPolicyBlob;
}  // namespace fdc::artifact

namespace fdc::engine {

struct EngineOptions {
  /// Per-principal monitor-state lifecycle: shard count, live-slot
  /// capacity, idle TTL (see PrincipalMapOptions). The defaults preserve
  /// the unbounded pre-lifecycle behavior.
  PrincipalMapOptions principals;
  /// Decisions between automatic principal sweeps (each sweep advances the
  /// map's idle clock one tick and reclaims slots idle longer than
  /// principals.idle_ttl_ticks). 0 = sweep only via SweepPrincipals().
  uint64_t principal_sweep_interval = 0;
  /// Dynamic-labeler bounds (see ConcurrentLabeler::Options).
  ConcurrentLabeler::Options labeler;
  /// Dissection options shared by every tier (must not vary per request:
  /// labels are memoized).
  label::DissectOptions dissect;
};

class DisclosureEngine {
 public:
  /// `db` may be null for decision-only use (Submit/SubmitBatch/Explain*);
  /// Query/QuerySql then return InvalidArgument. `catalog` must outlive
  /// the engine. `policy` is copied into the first snapshot (epoch 1).
  /// `warmup` queries are pre-labeled into the lock-free frozen tier.
  DisclosureEngine(const storage::Database* db,
                   const label::ViewCatalog* catalog,
                   policy::SecurityPolicy policy, EngineOptions options = {},
                   std::span<const cq::ConjunctiveQuery> warmup = {});

  /// The current policy snapshot as an owning handle (one shared-lock
  /// acquisition; hold the returned pointer for request scope and every
  /// read is consistent). This is the ownership-transferring API for
  /// control-plane callers (server hello/drain frames, tests); the request
  /// hot path uses the internal epoch-pinned raw-pointer load instead and
  /// never touches this lock.
  std::shared_ptr<const EngineSnapshot> Snapshot() const {
    std::shared_lock<locks::CountedSharedMutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Compiles `policy` into a new snapshot and publishes it atomically.
  /// In-flight requests finish against the snapshot they already loaded
  /// (until the residual drop below refuses them into a retry);
  /// principals' cumulative state restarts at the new epoch. Publishing
  /// also drops every evicted-principal residual narrowed under an older
  /// epoch — consistency bits never transfer across policies, so an epoch
  /// swap is the residual store's natural TTL. Returns the new epoch id.
  /// Safe from any thread; publishers are serialized.
  uint64_t UpdatePolicy(policy::SecurityPolicy policy);

  /// Zero-parse policy rollout: validates the loaded artifact's frozen
  /// layout against this engine's catalog (artifact::ValidateAgainstCatalog
  /// — a blob compiled against a different catalog is rejected, never
  /// misinterpreted), reconstructs the compiled policy, and publishes it.
  /// Returns the new epoch id.
  Result<uint64_t> UpdatePolicy(const artifact::LoadedPolicyBlob& blob);

  /// Shadow-policy mode (staged-rollout divergence auditing): every
  /// subsequent Submit/SubmitBatch/SubmitCoalesced decision is *also*
  /// evaluated against `policy` over an independent per-principal state
  /// map, and the agreement is counted in Stats().shadow — evaluated,
  /// agree, shadow_stricter (live accepted, shadow would refuse),
  /// shadow_looser (live refused, shadow would accept). The returned
  /// decisions and all live monitor state are never affected
  /// (property-tested in tests/shadow_policy_test.cc). Replacing the
  /// shadow policy resets its per-principal state; the divergence
  /// counters are cumulative across shadow policies. Returns the shadow
  /// epoch id. Under concurrent same-principal traffic the live and
  /// shadow orderings can interleave differently, so divergence counts
  /// are exact per-decision comparisons but not a replayable transcript.
  uint64_t SetShadowPolicy(policy::SecurityPolicy policy,
                           std::string policy_name = std::string());

  /// Blob form: validates against this engine's catalog first, and uses
  /// the artifact's embedded policy name for Stats().shadow.policy_name.
  Result<uint64_t> SetShadowPolicy(const artifact::LoadedPolicyBlob& blob);

  /// Stops shadow evaluation and releases the shadow policy and its
  /// per-principal state. The cumulative divergence counters survive.
  void ClearShadowPolicy();

  bool ShadowEnabled() const {
    return shadow_enabled_.load(std::memory_order_acquire);
  }

  /// Advances the principal map's idle clock one tick and reclaims every
  /// slot idle for more than the configured TTL (narrowed slots leave a
  /// resumable residual behind). Returns the number of slots evicted.
  /// Cheap when nothing is idle; safe from any thread. Also runs
  /// automatically every principal_sweep_interval decisions when that
  /// option is set.
  size_t SweepPrincipals();

  /// Stateful decision only (no evaluation): answers iff the principal's
  /// cumulative disclosure stays below some partition of the current
  /// policy; on accept the principal's state narrows. If the principal's
  /// state advanced to a newer epoch while this request held an older
  /// snapshot (a lost race with UpdatePolicy), the request transparently
  /// reloads the current snapshot and retries — slots never regress.
  bool Submit(std::string_view principal, const cq::ConjunctiveQuery& query);

  /// Batched decisions for one principal against one snapshot: the whole
  /// batch is labeled first (sharing the batch's distinct structures), then
  /// submitted under a single shard-lock acquisition. Decision-identical to
  /// calling Submit per query with no interleaved policy swap.
  std::vector<bool> SubmitBatch(std::string_view principal,
                                std::span<const cq::ConjunctiveQuery> queries);

  /// One request of a coalesced cross-principal batch (SubmitCoalesced).
  /// `principal` and `*query` must stay valid for the duration of the call;
  /// the serving front end points these at per-connection state.
  struct SubmitRequest {
    std::string_view principal;
    const cq::ConjunctiveQuery* query = nullptr;
    /// Optional pre-resolved label. When set, it must be the label of
    /// `*query` on this engine's catalog (what Explain(*query) returns) and
    /// must outlive the call; SubmitCoalesced then decides on it without
    /// relabeling. Labels depend only on the query and the catalog, which
    /// never changes, so a label resolved once (the server does it at
    /// template registration) stays valid across policy swaps. Null: the
    /// request is labeled in the call's batched pass.
    const label::DisclosureLabel* label = nullptr;
  };

  /// Coalesced decisions across principals: every request of one
  /// event-loop wake that carries no label goes through a single batched
  /// labeling pass (the batch kernel labels each distinct structure once,
  /// at the wire path's natural batch size; pre-labeled requests skip it),
  /// then one decide step per distinct principal group (arrival order
  /// preserved within each principal).
  /// Decision-identical to calling Submit per request in order: principals'
  /// monitor states are independent, so only the per-principal order
  /// matters.
  /// `decisions` is resized to requests.size(); when `epochs` is non-null
  /// it receives the epoch each request's decision was made under (groups
  /// racing UpdatePolicy may land on different epochs, exactly like
  /// sequential Submit calls would).
  void SubmitCoalesced(std::span<const SubmitRequest> requests,
                       std::vector<bool>* decisions,
                       std::vector<uint64_t>* epochs = nullptr);

  /// Full guarded query: decide, then evaluate against the database.
  Result<std::vector<storage::Tuple>> Query(const std::string& principal,
                                            const cq::ConjunctiveQuery& query);
  Result<std::vector<storage::Tuple>> QuerySql(const std::string& principal,
                                               const std::string& sql);

  /// The label the monitor uses for `query` (thread-safe; warms caches).
  label::DisclosureLabel Explain(const cq::ConjunctiveQuery& query) {
    return labeler_.Label(query);
  }

  /// Per-partition diagnosis of the decision the monitor *would* make for
  /// `principal` right now, against one consistent snapshot; mutates no
  /// monitor state. Labels `query`, then forwards to the label overload.
  policy::Explanation ExplainQuery(const std::string& principal,
                                   const cq::ConjunctiveQuery& query);

  /// The same diagnosis from an already-resolved label (the label of some
  /// query on this engine's catalog, e.g. a SubmitRequest::label).
  policy::Explanation ExplainQuery(const std::string& principal,
                                   const label::DisclosureLabel& label);

  /// Remaining consistent partitions under the current epoch (all
  /// partitions if the principal has not submitted since it began).
  uint64_t ConsistentPartitions(std::string_view principal) const;

  const FrozenCatalog& frozen() const { return *frozen_; }

  /// One aggregated view of every tier's counters (per-shard counters
  /// summed; see individual Stats types for the exact meaning of each).
  struct EngineStats {
    uint64_t epoch = 0;
    size_t num_principals = 0;
    /// Principal-lifecycle counters: evictions (capacity + TTL), residual
    /// store occupancy/bytes, resumed returning principals.
    PrincipalStateMap::Stats principal_map;
    size_t frozen_labels = 0;  // structures pre-labeled in the frozen tier
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t refused = 0;
    ConcurrentLabeler::Stats labeler;
    cq::QueryInterner::Stats interner;  // dynamic overlay interner
    /// Folding's atom-drop hom searches served by a warm thread-local
    /// scratch arena. Process-wide (rewriting::FoldScratchReuses), not
    /// per-engine: it counts every consumer in the process.
    uint64_t fold_scratch_reuses = 0;
    /// Snapshot reclamation: the shared epoch::Domain counters
    /// (process-wide — every retired snapshot passes through the domain).
    epoch::DomainStats ebr;
    /// Shadow-policy divergence audit (SetShadowPolicy). The counters are
    /// cumulative across shadow policies; epoch/policy_name describe the
    /// currently staged one (enabled=false leaves them zero/empty).
    struct ShadowStats {
      bool enabled = false;
      uint64_t epoch = 0;
      std::string policy_name;
      /// Always agree + shadow_stricter + shadow_looser, in any snapshot.
      uint64_t evaluated = 0;
      uint64_t agree = 0;
      /// Live accepted, shadow would have refused.
      uint64_t shadow_stricter = 0;
      /// Live refused, shadow would have accepted.
      uint64_t shadow_looser = 0;
    };
    ShadowStats shadow;
  };
  EngineStats Stats() const;

 private:
  // Request-path snapshot loads: one acquire load of the published raw
  // pointer. The caller must hold an epoch::Guard for as long as it uses
  // the result — retired snapshots pass through epoch::Domain, so the
  // pointer stays valid until the guard drops. Holding one guard across a
  // retry loop is safe: a pinned epoch also protects pointers published
  // *after* the pin (they retire at an epoch the pin blocks from expiring).
  const EngineSnapshot* LoadSnapshot() const {
    return snapshot_ptr_.load(std::memory_order_acquire);
  }
  /// Current shadow snapshot, or nullptr when no shadow policy is staged.
  const EngineSnapshot* LoadShadow() const {
    return shadow_ptr_.load(std::memory_order_acquire);
  }

  const storage::Database* db_;
  std::shared_ptr<const FrozenCatalog> frozen_;
  ConcurrentLabeler labeler_;
  PrincipalStateMap principals_;
  // Snapshot publication. The shared_ptr under the rwlock is the owning
  // store (and what Snapshot() copies for control-plane callers;
  // deliberately not std::atomic<std::shared_ptr>, whose libstdc++
  // _Sp_atomic spin-bit protocol trips ThreadSanitizer). The raw pointer
  // below is the request path: published with a release store inside the
  // writer section, loaded with one acquire load under an epoch::Guard, and
  // the displaced snapshot's ownership is parked in a heap holder retired
  // through epoch::Domain so its refcount cannot drop while any reader is
  // still pinned.
  mutable locks::CountedSharedMutex snapshot_mu_;
  std::shared_ptr<const EngineSnapshot> snapshot_;
  std::atomic<const EngineSnapshot*> snapshot_ptr_{nullptr};
  uint64_t next_epoch_ = 2;  // guarded by snapshot_mu_; epoch 1 = ctor
  // Cache-line isolation: the per-decision counters below (accepted_ /
  // refused_, the shadow tallies, decisions_since_sweep_) are written by
  // every caller thread, and the read-mostly fields every decision loads
  // (snapshot_ptr_, shadow_enabled_, sweep_interval_) must not share a
  // line with them. Each group starts a line of its own (alignas(64)), so
  // a size change in a member above cannot create false sharing.
  alignas(64) std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  // Shadow-policy state. The snapshot and name share snapshot_mu_ (shadow
  // epochs come from the same counter, so live and shadow epochs are
  // totally ordered); the flag is the request fast path — when false the
  // only shadow cost per decision is one relaxed-ish atomic load.
  alignas(64) std::atomic<bool> shadow_enabled_{false};
  std::shared_ptr<const EngineSnapshot> shadow_snapshot_;  // snapshot_mu_
  // Request path for the shadow snapshot, mirroring snapshot_ptr_
  // (nullptr = no shadow staged).
  std::atomic<const EngineSnapshot*> shadow_ptr_{nullptr};
  std::string shadow_name_;                                // snapshot_mu_
  // Shadow decisions narrow their *own* per-principal states; live
  // monitor state is never read or written by shadow evaluation — that
  // separation is what makes shadow mode decision-invisible.
  PrincipalStateMap shadow_principals_;
  // Every shadow-evaluated decision lands in exactly one of these three;
  // Stats() derives `evaluated` as their sum so no separate total can
  // drift out of step in a concurrent snapshot.
  alignas(64) std::atomic<uint64_t> shadow_agree_{0};
  std::atomic<uint64_t> shadow_stricter_{0};
  std::atomic<uint64_t> shadow_looser_{0};
  /// The one per-principal decide step behind Submit, SubmitBatch and
  /// SubmitCoalesced (§6.2): against one pinned snapshot, runs the
  /// monitor's Submit for each label in order under a single shard-lock
  /// acquisition, reloading and retrying when it loses a race with a
  /// policy swap. Writes labels.size() decisions into `decisions`, counts
  /// them, replays the same span against the shadow policy when one is
  /// staged, and returns the epoch the decisions were made under.
  uint64_t Decide(std::string_view principal,
                  std::span<const label::DisclosureLabel* const> labels,
                  bool* decisions);
  /// Replays one principal's just-decided labels against the shadow
  /// policy and tallies agreement; `live` holds the live decisions in
  /// `labels` order. The caller holds an epoch::Guard.
  void ShadowEvaluate(std::string_view principal,
                      std::span<const label::DisclosureLabel* const> labels,
                      const bool* live);
  /// Auto-sweep cadence: the thread whose decision count crosses a
  /// multiple of principal_sweep_interval runs one sweep.
  alignas(64) uint64_t sweep_interval_;
  alignas(64) std::atomic<uint64_t> decisions_since_sweep_{0};
  void MaybeAutoSweep(uint64_t decisions);
};

}  // namespace fdc::engine
