// Shared types of the benchmark program: run options, the metric list a
// workload reports, and the three workload entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_out";  // relative to the working directory
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;  // requests issued
  uint64_t failed = 0;     // requests with no decision
  std::vector<Metric> end_to_end;
  /// Whole-system figures that on a shared machine follow the host's CPU
  /// availability more than the program: printed on every run, reported
  /// (unbounded) at the head of the per-layer set.
  std::vector<Metric> unbounded;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result (measured input
  /// shares, ladder steps, oracle verdict, self time per layer).
  std::vector<std::string> notes;
  /// Run metadata that depends on the workload (ladder, latency limit).
  std::vector<std::pair<std::string, std::string>> metadata;

  void Note(const std::string& line) { notes.push_back(line); }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAILED: " + why);
  }
};

WorkloadResult RunWire(const RunOptions& options, bool novel);
WorkloadResult RunEmbeddedChurn(const RunOptions& options);

/// printf into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
