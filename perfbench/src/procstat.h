// Process and thread accounting from the kernel: per-thread CPU time (to
// tell which side of a socket pair limits throughput) and peak RSS.
#pragma once

#include <sys/types.h>

#include <vector>

namespace perfbench {

/// Thread ids of this process (/proc/self/task).
std::vector<pid_t> ListThreads();

/// The calling thread's id.
pid_t CurrentThreadId();

/// CPU seconds consumed so far by thread `tid` of this process
/// (/proc/self/task/<tid>/schedstat, falling back to stat's tick counts).
double ThreadCpuSeconds(pid_t tid);

/// CPU seconds consumed so far by the calling thread.
double CurrentThreadCpuSeconds();

/// Pins thread `tid` to the `slot`-th CPU this process could run on when
/// it started (slots wrap around). Pinning the benchmark's busy threads the
/// same way on every run keeps their placement, and so their sharing of
/// cores, from varying between runs. Returns false if the kernel refused.
bool PinThread(pid_t tid, int slot);

/// Pins the calling thread for its lifetime and restores its previous CPU
/// set on destruction (threads it starts meanwhile inherit the pin).
class ScopedPin {
 public:
  explicit ScopedPin(int slot);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  std::vector<unsigned char> saved_;  // the previous cpu_set_t, as bytes
};

/// Peak resident set of this process so far, in MiB (getrusage).
double PeakRssMb();

}  // namespace perfbench
