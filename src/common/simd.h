// Instruction-set identification for run metadata.
//
// The mask kernels (CompiledCatalogMatcher::MatchMaskBatch and the per-atom
// loops) are scalar only: a §6.1 label is a plain AND-able bit mask, and the
// AVX2/NEON batch variants measured within noise of the scalar loops end to
// end, so there is no vector kernel and nothing to dispatch. What remains
// records the hardware a benchmark ran on next to the (always scalar)
// kernel it used:
//
//   * DetectIsa() probes the hardware once — cpuid via
//     __builtin_cpu_supports("avx2") on x86, NEON as the aarch64 baseline;
//   * ActiveIsa() is the ISA the kernels run, always kScalar.
#pragma once

namespace fdc::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Stable lowercase name ("scalar", "avx2", "neon") for bench metadata.
const char* IsaName(Isa isa);

/// The best ISA this hardware supports. Probed once and cached.
Isa DetectIsa();

/// The ISA the mask kernels run: always kScalar, since there is no vector
/// kernel.
Isa ActiveIsa();

}  // namespace fdc::simd
