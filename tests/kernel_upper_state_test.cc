/// Every SIMD kernel must return with the AVX upper register state clean.
/// A kernel that leaves YMM/ZMM upper halves dirty makes every later
/// legacy-SSE instruction in the caller (all scalar double math in this
/// non-AVX build) pay a state-transition penalty, which slowed Report() by
/// an order of magnitude once the level sets reached the sign kernels.
///
/// The check reads XINUSE (XGETBV with ECX = 1) after each call: bit 2 is
/// the YMM_Hi128 component, bit 6 the ZMM_Hi256 component. This file must
/// be built without -mavx so the test itself cannot dirty the state.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/counter_kernels.h"
#include "util/hash.h"
#include "util/simd.h"

#if SUBSTREAM_SIMD_X86
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace substream {
namespace {

#if SUBSTREAM_SIMD_X86

constexpr std::uint64_t kYmmHi128 = 1u << 2;
constexpr std::uint64_t kZmmHi256 = 1u << 6;

/// CPUID.(EAX=0Dh, ECX=1):EAX[2] — XGETBV accepts ECX = 1 (XINUSE).
bool HasXinuse() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 0xd) return false;
  __cpuid_count(0xd, 1, eax, ebx, ecx, edx);
  return (eax & (1u << 2)) != 0;
}

std::uint64_t Xinuse() {
  std::uint32_t lo = 0, hi = 0;
  asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Starts each probe from a clean upper state, whatever ran before.
__attribute__((target("avx"), noinline)) void ClearUpperState() {
  _mm256_zeroupper();
}

class DispatchGuard {
 public:
  ~DispatchGuard() { kernels::SetActive(simd::Best()); }
};

#define EXPECT_UPPER_CLEAN(call)                                       \
  do {                                                                 \
    ClearUpperState();                                                 \
    call;                                                              \
    const std::uint64_t xinuse = Xinuse();                             \
    EXPECT_EQ(xinuse & (kYmmHi128 | kZmmHi256), 0u)                    \
        << #call << " left XINUSE=0x" << std::hex << xinuse;           \
  } while (0)

TEST(KernelUpperStateTest, EveryKernelReturnsWithCleanUpperState) {
  if (!HasXinuse()) GTEST_SKIP() << "XGETBV(ECX=1) unsupported";
  constexpr std::size_t kSizes[] = {0, 1, 3, 4, 8, 64, 67};
  constexpr std::size_t kMax = 67;
  std::vector<std::uint64_t> items(kMax), hashes(kMax), idx(kMax);
  std::vector<std::int64_t> signs(kMax);
  for (std::size_t i = 0; i < kMax; ++i) items[i] = 1000 + i;
  PrehashColumnSoA(items.data(), kMax, hashes.data());
  const std::uint64_t coeffs[4] = {3, 5, 7, 11};

  DispatchGuard guard;
  for (simd::Isa isa : kernels::AvailableIsas()) {
    ASSERT_TRUE(kernels::SetActive(isa));
    const kernels::KernelTable& k = kernels::Dispatch();
    for (std::size_t n : kSizes) {
      SCOPED_TRACE(testing::Message()
                   << "isa=" << simd::Name(isa) << " n=" << n);
      EXPECT_UPPER_CLEAN(
          k.bucket_row_cols(hashes.data(), n, 9, 1000, idx.data()));
      EXPECT_UPPER_CLEAN(
          k.sign_row4_cols(items.data(), n, coeffs, signs.data()));
    }
  }
}

#undef EXPECT_UPPER_CLEAN

#else

TEST(KernelUpperStateTest, EveryKernelReturnsWithCleanUpperState) {
  GTEST_SKIP() << "no x86 vector kernels in this build";
}

#endif  // SUBSTREAM_SIMD_X86

}  // namespace
}  // namespace substream
