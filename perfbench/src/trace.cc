#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <unordered_map>

namespace perfbench {

std::map<std::string, Tracer::LayerTime> Tracer::Layers() const {
  std::unordered_map<uint64_t, double> child_ns;  // parent span id -> ns
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    LayerTime& layer = out[s.name];
    const double total = static_cast<double>(s.end_ns - s.start_ns);
    layer.total_ns += total;
    const auto it = child_ns.find(s.id);
    layer.self_ns += total - (it == child_ns.end() ? 0.0 : it->second);
    layer.items += s.items;
    ++layer.spans;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"batch\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"items\":%llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.batch), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
