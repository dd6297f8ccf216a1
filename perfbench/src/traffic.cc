#include "traffic.h"

#include <algorithm>
#include <functional>

#include "cq/canonical.h"
#include "cq/printer.h"

namespace perfbench {

namespace {

uint64_t KeyHash(const fdc::cq::ConjunctiveQuery& query) {
  return std::hash<std::string>{}(fdc::cq::CanonicalKey(query));
}

}  // namespace

DistinctQueries::DistinctQueries(
    const Catalog* catalog, const std::vector<fdc::cq::ConjunctiveQuery>& known,
    size_t fixed_count, uint64_t fixed_seed, uint64_t seed)
    : catalog_(catalog),
      fixed_count_(fixed_count),
      fixed_generator_(&catalog->schema, fixed_seed),
      generator_(&catalog->schema, seed) {
  for (const auto& q : known) seen_.insert(KeyHash(q));
}

void DistinctQueries::Ensure(size_t n) {
  while (texts_.size() < n) {
    const fdc::cq::ConjunctiveQuery q = texts_.size() < fixed_count_
                                            ? fixed_generator_.Next()
                                            : generator_.Next();
    if (!seen_.insert(KeyHash(q)).second) continue;
    texts_.push_back(fdc::cq::ToDatalog(q, catalog_->schema));
  }
}

WireStream::WireStream(const WireTrafficShape* shape,
                       const ZipfSampler* templates, const ZipfSampler* popular,
                       bool novel_workload, int connection, uint64_t seed)
    : shape_(shape),
      templates_(templates),
      popular_(popular),
      novel_workload_(novel_workload),
      connection_(connection),
      rng_(StreamSeed(seed, 1000 + static_cast<uint64_t>(connection))) {}

WireRequest WireStream::Next() {
  WireRequest r;
  if (!novel_workload_) {
    r.template_id = static_cast<uint32_t>(templates_->Sample(rng_));
    return r;
  }
  r.text = true;
  if (rng_.Chance(shape_->novel_share)) {
    // Never-seen structures: connections take interleaved slices of one
    // distinct stream that starts after the popular texts.
    r.novel = true;
    r.query = shape_->popular_texts +
              novel_issued_++ * static_cast<uint64_t>(shape_->connections) +
              static_cast<uint64_t>(connection_);
  } else {
    r.query = popular_->Sample(rng_);
  }
  return r;
}

void ShareCounter::Count(size_t item, size_t principal, bool is_novel) {
  if (item >= per_item.size()) per_item.resize(item + 1, 0);
  ++per_item[item];
  if (principal >= principal_seen.size()) principal_seen.resize(principal + 1, 0);
  if (principal_seen[principal]) ++revisits;
  principal_seen[principal] = 1;
  ++requests;
  if (is_novel) ++novel;
}

void ShareCounter::Merge(const ShareCounter& other) {
  if (other.per_item.size() > per_item.size()) {
    per_item.resize(other.per_item.size(), 0);
  }
  for (size_t i = 0; i < other.per_item.size(); ++i) {
    per_item[i] += other.per_item[i];
  }
  requests += other.requests;
  revisits += other.revisits;
  novel += other.novel;
}

double ShareCounter::TopTenShare() const {
  if (requests == 0) return 0;
  std::vector<uint64_t> counts = per_item;
  const size_t k = std::min<size_t>(10, counts.size());
  std::partial_sort(counts.begin(), counts.begin() + k, counts.end(),
                    std::greater<>());
  uint64_t top = 0;
  for (size_t i = 0; i < k; ++i) top += counts[i];
  return static_cast<double>(top) / static_cast<double>(requests);
}

}  // namespace perfbench
