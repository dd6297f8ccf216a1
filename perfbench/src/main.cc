// perfbench: the end-to-end disclosure benchmark program.
//
//   perfbench --workload <warm_wire|novel_wire|embedded_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--meta key=value ...]
//
// Prints run metadata, the measured input shares, the oracle verdict and
// every metric by name and unit, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Refuses to run with any FDC_* environment override set, since those
// change which library paths are measured.
#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/simd.h"
#include "engine/stats_json.h"

extern char** environ;

namespace perfbench {

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf, n < 0 ? 0 : std::min<size_t>(n, sizeof(buf) - 1));
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<warm_wire|novel_wire|embedded_churn> --seed <n> --seconds "
               "<s> --trace <0|1> [--meta key=value ...]\n",
               why);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::vector<std::pair<std::string, std::string>> meta;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--meta") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) return Usage("--meta takes key=value");
      meta.push_back({value.substr(0, eq), value.substr(eq + 1)});
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload != "warm_wire" && options.workload != "novel_wire" &&
      options.workload != "embedded_churn") {
    return Usage("unknown --workload");
  }
  if (!(options.seconds >= 1 && options.seconds <= 600)) {
    return Usage("--seconds must be within [1, 600]");
  }
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "FDC_", 4) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: FDC_* overrides "
                   "change the measured library paths\n",
                   *env);
      return 3;
    }
  }

  WorkloadResult result = options.workload == "embedded_churn"
                              ? RunEmbeddedChurn(options)
                              : RunWire(options, options.workload == "novel_wire");

  meta.push_back({"workload", options.workload});
  meta.push_back({"seed", std::to_string(options.seed)});
  meta.push_back({"seconds", Format("%g", options.seconds)});
  meta.push_back({"trace", options.trace ? "1" : "0"});
  meta.push_back({"fdc_build_type", PERFBENCH_FDC_BUILD_TYPE});
  meta.push_back({"fdc_cxx_flags", PERFBENCH_FDC_CXX_FLAGS});
  meta.push_back({"compiler", PERFBENCH_CXX_COMPILER});
  meta.push_back({"nproc", std::to_string(std::thread::hardware_concurrency())});
  meta.push_back({"simd_isa", fdc::simd::IsaName(fdc::simd::DetectIsa())});
  meta.push_back({"simd_isa_active", fdc::simd::IsaName(fdc::simd::ActiveIsa())});
  meta.push_back({"fdc_env_overrides", "none (refused when set)"});
  for (const auto& kv : result.metadata) meta.push_back(kv);
  std::string meta_json;
  for (const auto& [k, v] : meta) {
    meta_json += (meta_json.empty() ? "\"" : ", \"") + fdc::engine::JsonEscape(k) +
                 "\": \"" + fdc::engine::JsonEscape(v) + "\"";
  }
  std::printf("run metadata: {%s}\n", meta_json.c_str());
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  const std::vector<Metric>& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : result.end_to_end) {
    std::printf("e2e   %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.unbounded) {
    std::printf("wall  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.per_layer) {
    std::printf("layer %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string metrics_json;
  for (const Metric& m : metrics) {
    metrics_json += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           metrics_json.empty() ? "" : ", ", m.name.c_str(),
                           m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}
