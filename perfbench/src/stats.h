// Small numeric helpers of the benchmark: the Zipf sampler behind every
// heavy-tailed draw, percentiles that carry their sample count, the
// open-loop ladder step rule, and the order-sensitive decision digest the
// oracle compares. Header-only so the helper tests link nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// Draws ranks 0..n-1 with P(k) proportional to 1 / (k+1)^s, by binary
/// search over a precomputed CDF. Deterministic given the Rng stream.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t size() const { return cdf_.size(); }
  /// Probability of rank k.
  double Prob(size_t k) const {
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }
  size_t Sample(fdc::Rng& rng) const {
    const double u = rng.NextUnit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A percentile together with the number of samples it was taken from.
struct Percentile {
  double value = 0;
  size_t samples = 0;
};

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
/// An empty input yields {0, 0}.
inline Percentile PercentileOf(std::vector<double>* values, double q) {
  if (values->empty()) return {};
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return {(*values)[rank - 1], n};
}

inline double Median(std::vector<double> values) {
  return PercentileOf(&values, 0.5).value;
}

/// Percentile `q` of every window with at least `min_samples` samples,
/// summarised as the median over those windows, so one scheduling stall
/// moves one window rather than the whole figure. `samples` counts every
/// sample of the windows used.
inline Percentile WindowedPercentile(
    const std::vector<std::vector<double>>& windows, double q,
    size_t min_samples) {
  std::vector<double> per_window;
  size_t samples = 0;
  for (const auto& w : windows) {
    if (w.size() < min_samples || w.empty()) continue;
    std::vector<double> copy = w;
    per_window.push_back(PercentileOf(&copy, q).value);
    samples += w.size();
  }
  if (per_window.empty()) return {};
  return {Median(per_window), samples};
}

/// One open-loop step at a fixed offered rate.
struct StepResult {
  double offered_dps = 0;
  double achieved_dps = 0;  // decisions answered per second of the step
  Percentile p50_us;
  Percentile p99_us;
  Percentile late_p99_us;   // how late the generator sent, p99
  uint64_t backlog_end = 0; // requests due but unanswered when the step ended
  uint64_t failed = 0;      // requests with no decision
};

/// The step rule of the ladder: p99 latency (timed from when each request
/// was due) meets the limit, no request failed, the generator kept its
/// schedule (a step it fell behind on is a miss, never a pass), and the
/// backlog left at the end stays within what the limit allows in flight
/// (Little's law: rate x limit), i.e. it is not growing.
inline bool StepMeetsLimit(const StepResult& step, double limit_us) {
  if (step.p99_us.samples == 0 || step.failed != 0) return false;
  if (step.p99_us.value > limit_us) return false;
  if (step.late_p99_us.value > limit_us / 2) return false;
  const double allowed_in_flight =
      std::max(1.0, step.offered_dps * limit_us * 1e-6);
  return static_cast<double>(step.backlog_end) <= allowed_in_flight;
}

/// Offered rates first * ratio^i, i < rungs, rounded: an ascending ladder.
inline std::vector<double> GeometricLadder(double first, double ratio, int rungs) {
  std::vector<double> out;
  for (int i = 0; i < rungs; ++i) out.push_back(std::round(first * std::pow(ratio, i)));
  return out;
}

/// Bisection for the highest passing rung of an ascending ladder,
/// assuming a rung passes only if every lower rung would (load is
/// monotone). A failed step is run once more before it counts, so one
/// scheduling stall cannot halve the answer. Driven step by step so the
/// caller can interleave other phases between steps.
class LadderSearch {
 public:
  explicit LadderSearch(size_t rungs) : hi_(static_cast<int>(rungs)) {}
  bool done() const { return hi_ - lo_ <= 1; }
  /// The rung to run next (only while !done()).
  size_t next() const { return static_cast<size_t>(lo_ + (hi_ - lo_) / 2); }
  void Report(bool pass) {
    const int mid = static_cast<int>(next());
    if (pass) {
      lo_ = mid;
      retried_ = false;
    } else if (!retried_) {
      retried_ = true;  // run the same rung again
    } else {
      hi_ = mid;
      retried_ = false;
    }
  }
  /// Highest rung known to pass, or -1.
  int best() const { return lo_; }

 private:
  int lo_ = -1;  // highest rung known to pass
  int hi_;       // lowest rung known to fail
  bool retried_ = false;
};

/// Order-sensitive digest of one principal's decision sequence.
struct Digest {
  uint64_t hash = 0xcbf29ce484222325ULL;
  uint64_t count = 0;
  void Add(bool allow) {
    hash = (hash ^ (allow ? 0x9e3779b97f4a7c15ULL : 0x2545f4914f6cdd1dULL)) *
           0x100000001b3ULL;
    hash ^= hash >> 29;
    ++count;
  }
  bool operator==(const Digest& other) const {
    return hash == other.hash && count == other.count;
  }
};

/// Seed of an independent stream `stream` derived from the run seed.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  return fdc::SplitMix64Next(&state);
}

}  // namespace perfbench
