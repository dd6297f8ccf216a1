// Reader-side lock instrumentation for the engine's read path.
//
// Policy and shadow snapshots are read under an epoch::Guard with no lock,
// and frozen-tier labels are read lock-free; only the labeler's dynamic
// overlay takes a reader lock. Tests prove both halves by counting: every
// shared (reader) acquisition of a counted lock bumps a thread-local
// counter, so a warm Submit/SubmitBatch/SubmitCoalesced served by the
// frozen tier must leave the counter unchanged, and overlay-warm traffic
// must move it by exactly the labeler's overlay_reader_locks count.
//
// Exclusive (writer) acquisitions are deliberately NOT counted: writers may
// lock freely. Principal-map shard locks are also uncounted — they are
// writer-side by role (per-principal state mutation), not part of the
// shared read path.

#ifndef FDC_COMMON_LOCKS_H_
#define FDC_COMMON_LOCKS_H_

#include <cstdint>
#include <shared_mutex>

namespace fdc::locks {

// Count of reader-side lock acquisitions made by the calling thread since
// thread start. Tests snapshot it around a warm-path call and assert delta.
uint64_t ReaderLockAcquisitions();

// Bumps the calling thread's reader-lock counter (CountedSharedMutex's
// shared side).
void CountReaderLockAcquisition();

// Drop-in replacement for std::shared_mutex that counts shared acquisitions.
// Satisfies SharedMutex requirements, so std::shared_lock / std::unique_lock
// work unchanged. Exclusive locking is pass-through and uncounted.
class CountedSharedMutex {
 public:
  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

  void lock_shared() {
    CountReaderLockAcquisition();
    mu_.lock_shared();
  }
  bool try_lock_shared() {
    CountReaderLockAcquisition();
    return mu_.try_lock_shared();
  }
  void unlock_shared() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

}  // namespace fdc::locks

#endif  // FDC_COMMON_LOCKS_H_
