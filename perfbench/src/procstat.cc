#include "procstat.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace perfbench {

std::vector<pid_t> ListThreads() {
  std::vector<pid_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      out.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
  }
  closedir(dir);
  return out;
}

pid_t CurrentThreadId() { return static_cast<pid_t>(syscall(SYS_gettid)); }

double ThreadCpuSeconds(pid_t tid) {
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  if (std::FILE* f = std::fopen((base + "/schedstat").c_str(), "r")) {
    unsigned long long run_ns = 0;
    const int got = std::fscanf(f, "%llu", &run_ns);
    std::fclose(f);
    if (got == 1) return static_cast<double>(run_ns) * 1e-9;
  }
  std::FILE* f = std::fopen((base + "/stat").c_str(), "r");
  if (f == nullptr) return 0;
  char buf[1024];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall (11th and 12th after the ')').
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double CurrentThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

// The CPUs the process could use at start, before any thread was pinned.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(getpid(), sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

bool PinThread(pid_t tid, int slot) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(slot) % cpus.size()], &one);
  return sched_setaffinity(tid, sizeof(one), &one) == 0;
}

ScopedPin::ScopedPin(int slot) {
  AllowedCpus();  // record the unpinned set first
  cpu_set_t current;
  CPU_ZERO(&current);
  if (sched_getaffinity(0, sizeof(current), &current) == 0) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&current);
    saved_.assign(bytes, bytes + sizeof(current));
  }
  PinThread(CurrentThreadId(), slot);
}

ScopedPin::~ScopedPin() {
  if (saved_.size() != sizeof(cpu_set_t)) return;
  cpu_set_t previous;
  std::memcpy(&previous, saved_.data(), sizeof(previous));
  sched_setaffinity(0, sizeof(previous), &previous);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
