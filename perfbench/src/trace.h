// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// library's public functions, one id per wake-sized batch; nothing inside
// the library is instrumented. Spans stay in memory and are written out as
// JSON lines when the run ends. A layer's self time is its spans' duration
// minus the part covered by their child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;      // unique span id
  uint64_t parent = 0;  // id of the span that caused it; 0 = root
  uint64_t batch = 0;   // wake-sized batch every span of it shares
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t items = 0;   // decisions (or frames) the span covered
};

class Tracer {
 public:
  /// A fresh batch id.
  uint64_t NewBatch() { return ++last_batch_; }
  /// Records one span and returns its id (ids start at 1).
  uint64_t Add(const char* name, uint64_t batch, int64_t start_ns,
               int64_t end_ns, uint64_t items, uint64_t parent = 0) {
    spans_.push_back({++last_id_, parent, batch, name, start_ns, end_ns,
                      items});
    return last_id_;
  }
  const std::vector<Span>& spans() const { return spans_; }

  struct LayerTime {
    double self_ns = 0;   // duration minus children
    double total_ns = 0;  // duration
    uint64_t items = 0;
    uint64_t spans = 0;
  };
  /// Per span name: total and self time, items covered, span count.
  std::map<std::string, LayerTime> Layers() const;

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure (the directory is created if missing).
  bool WriteJsonLines(const std::string& path) const;

 private:
  uint64_t last_id_ = 0;
  uint64_t last_batch_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
