#ifndef SUBSTREAM_UTIL_SIMD_H_
#define SUBSTREAM_UTIL_SIMD_H_

#include <cstring>

/// \file simd.h
/// Instruction-set levels for the vectorized counter kernels
/// (sketch/counter_kernels.h) and the runtime feature detection that picks
/// between them.
///
/// The library always builds the portable scalar kernels; on x86-64 with a
/// GNU-compatible compiler it additionally builds AVX2 and AVX-512 variants
/// (per-function target attributes, so no global -mavx* flags and the
/// binary still runs on any x86-64). Selection happens once at runtime via
/// CPUID — see kernels::Dispatch() — and is overridable with the
/// SKETCH_SIMD environment variable (values: scalar, avx2, avx512) or at
/// build time with -DSKETCH_DISABLE_SIMD=ON, which compiles the scalar
/// kernels only.
///
/// Every vector kernel is bit-identical to its scalar reference: the hash
/// arithmetic is exact integer math, so serialized sketch state cannot
/// depend on the dispatch level (pinned by simd_equivalence_test).

/// Compile-time gate: vector kernel variants exist only on x86-64 under a
/// compiler supporting per-function target attributes and
/// __builtin_cpu_supports, and only when SKETCH_DISABLE_SIMD is off.
#if !defined(SKETCH_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define SUBSTREAM_SIMD_X86 1
#else
#define SUBSTREAM_SIMD_X86 0
#endif

namespace substream {
namespace simd {

/// Dispatch levels, weakest first. kAvx512 requires AVX-512F + AVX-512DQ
/// (the 64-bit multiply and compare forms the kernels use).
enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

inline const char* Name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

/// Parses a SKETCH_SIMD value; false (and *out untouched) on junk.
inline bool ParseIsa(const char* name, Isa* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = Isa::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = Isa::kAvx2;
    return true;
  }
  if (std::strcmp(name, "avx512") == 0) {
    *out = Isa::kAvx512;
    return true;
  }
  return false;
}

/// True when this build contains the vector variant for `isa` AND the
/// running CPU (and OS, via the compiler's XSAVE-aware probe) supports it.
inline bool Supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if SUBSTREAM_SIMD_X86
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#else
    case Isa::kAvx2:
    case Isa::kAvx512:
      return false;
#endif
  }
  return false;
}

/// Strongest supported level on this host.
inline Isa Best() {
  if (Supported(Isa::kAvx512)) return Isa::kAvx512;
  if (Supported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

}  // namespace simd
}  // namespace substream

#endif  // SUBSTREAM_UTIL_SIMD_H_
