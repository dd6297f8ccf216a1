#include "common/simd.h"

namespace fdc::simd {

namespace {

Isa ProbeHardware() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kScalar;
#elif defined(__aarch64__) || defined(__ARM_NEON)
  // NEON is architecturally mandatory on AArch64 and implied by __ARM_NEON
  // on 32-bit ARM builds that define it — no runtime probe needed.
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

Isa DetectIsa() {
  static const Isa detected = ProbeHardware();
  return detected;
}

Isa ActiveIsa() { return Isa::kScalar; }

}  // namespace fdc::simd
