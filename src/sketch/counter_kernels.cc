#include "sketch/counter_kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#if SUBSTREAM_SIMD_X86
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// GCC's AVX-512 intrinsic headers trip -Wmaybe-uninitialized false
// positives through their internal undefined-vector idiom (GCC PR105593);
// nothing in this file reads uninitialized state.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

/// \file counter_kernels.cc
/// Scalar reference kernels plus AVX2 / AVX-512 variants behind per-function
/// target attributes (no global -mavx* flags: the binary runs on any x86-64
/// and picks a level via CPUID at first dispatch).
///
/// Bit-identity discipline: every vector path computes the exact integer
/// functions of the scalar reference — RemixHash, FastRange64 (high half of
/// a full 64x64 product) and the canonical residue of the degree-3
/// polynomial over GF(2^61 - 1), whose Horner steps the vector kernels
/// reduce lazily and canonicalize once — with tails delegated to the scalar
/// kernels. There is no floating point and no order-sensitive arithmetic in
/// the kernels themselves, so serialized sketch state cannot differ across
/// dispatch levels.

namespace substream {
namespace kernels {

namespace {

constexpr std::uint64_t kP = PolynomialHash::kPrime;
constexpr std::uint64_t kRemixMul = 0xff51afd7ed558ccdULL;

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Degree-3 polynomial over GF(2^61 - 1): a fixed-degree specialization of
/// PolynomialHash::Hash with 4 coefficients, same Horner order and the
/// shared ModMersenne61 reduction (util/hash.h) at the same points.
inline std::uint64_t Poly4Hash(std::uint64_t x, const std::uint64_t c[4]) {
  const std::uint64_t xm = x % kP;
  std::uint64_t acc = c[3];
  for (int k = 2; k >= 0; --k) {
    acc = ModMersenne61(static_cast<unsigned __int128>(acc) * xm + c[k]);
  }
  return acc;
}

inline std::int64_t Poly4Sign(std::uint64_t x, const std::uint64_t c[4]) {
  return (Poly4Hash(x, c) & 1) ? +1 : -1;
}

// The scalar reference kernels double as the tails of the vector kernels,
// so every level shares one definition of each derivation.

void BucketRowColsScalar(const std::uint64_t* hashes, std::size_t n,
                         std::uint64_t row_seed, std::uint64_t width,
                         std::uint64_t* out_idx) {
  for (std::size_t i = 0; i < n; ++i) {
    out_idx[i] = FastRange64(RemixHash(hashes[i], row_seed), width);
  }
}

void SignRow4ColsScalar(const std::uint64_t* items, std::size_t n,
                        const std::uint64_t c[4], std::int64_t* out_sign) {
  for (std::size_t i = 0; i < n; ++i) {
    out_sign[i] = Poly4Sign(items[i], c);
  }
}

constexpr KernelTable kScalarTable = {
    simd::Isa::kScalar,
    BucketRowColsScalar,
    SignRow4ColsScalar,
};

#if SUBSTREAM_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 (4 x u64 lanes; 64-bit multiplies emulated with vpmuludq)
// ---------------------------------------------------------------------------

// Upper state: every vector kernel ends with an explicit vzeroupper before
// its scalar tail. Callers are legacy-SSE code (no -mavx), and every SSE
// instruction they run while the YMM/ZMM upper halves are dirty pays a
// state-transition penalty. GCC inserts vzeroupper only when optimizing,
// and even then not before a sibling call it emits as a bare jmp, which is
// how the sign kernels hand off their tail; relying on it left Report()
// 10x slower once the level sets called those kernels.

#define SUBSTREAM_TGT_AVX2 __attribute__((target("avx2"), always_inline)) inline

/// Low 64 bits of the lane-wise product a * b.
SUBSTREAM_TGT_AVX2 __m256i MulLo64Avx2(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i mid =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(ll, _mm256_slli_epi64(mid, 32));
}

/// High 64 bits of the lane-wise product a * b (exact schoolbook carry).
SUBSTREAM_TGT_AVX2 __m256i MulHi64Avx2(__m256i a, __m256i b) {
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  // cross < 3 * 2^32: three 32-bit terms cannot carry out of 64 bits.
  const __m256i cross = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, lo32)),
      _mm256_and_si256(hl, lo32));
  return _mm256_add_epi64(
      _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                       _mm256_srli_epi64(cross, 32)));
}

/// RemixHash lanes: (x ^ seed), xorshift 33, * kRemixMul, xorshift 29.
SUBSTREAM_TGT_AVX2 __m256i RemixAvx2(__m256i hash, __m256i seed) {
  __m256i x = _mm256_xor_si256(hash, seed);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = MulLo64Avx2(x, _mm256_set1_epi64x(static_cast<long long>(kRemixMul)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 29));
}

/// Signed-compare trick: lanes stay below 2^62 wherever this is used, so
/// the plain signed compare is an unsigned compare.
SUBSTREAM_TGT_AVX2 __m256i CondSubPAvx2(__m256i r) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kP));
  const __m256i pm1 = _mm256_set1_epi64x(static_cast<long long>(kP - 1));
  const __m256i ge = _mm256_cmpgt_epi64(r, pm1);
  return _mm256_sub_epi64(r, _mm256_and_si256(ge, p));
}

/// x mod (2^61 - 1) for full-range 64-bit lanes: equals x % p exactly
/// (fold then one conditional subtraction; sum <= p + 7).
SUBSTREAM_TGT_AVX2 __m256i Mod61Avx2(__m256i x) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kP));
  const __m256i r =
      _mm256_add_epi64(_mm256_and_si256(x, p), _mm256_srli_epi64(x, 61));
  return CondSubPAvx2(r);
}

/// One lazy Horner step: acc * xm + c (mod p) for acc < 2^62, xm and
/// c < p, with b_hi = xm >> 32. The 122-bit product is folded straight
/// into Mersenne form (2^64 = 8 and 2^61 = 1 mod p) and the result lies in
/// [0, 2^61 + 4), not canonically reduced: the sign kernel canonicalizes
/// once, after the last step, so the parity matches the scalar reference.
SUBSTREAM_TGT_AVX2 __m256i HornerStepAvx2(__m256i acc, __m256i xm,
                                          __m256i b_hi, __m256i c) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kP));
  const __m256i lo29 = _mm256_set1_epi64x((1LL << 29) - 1);
  const __m256i a_hi = _mm256_srli_epi64(acc, 32);
  const __m256i ll = _mm256_mul_epu32(acc, xm);  // < 2^64
  const __m256i mid = _mm256_add_epi64(_mm256_mul_epu32(acc, b_hi),
                                       _mm256_mul_epu32(a_hi, xm));  // < 2^63
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);  // < 2^59
  // hh 2^64 + mid 2^32 + ll = 8 hh + (mid >> 29) + (mid mod 2^29) 2^32
  //                           + (ll >> 61) + (ll & p)   (mod p); < 2^64.
  __m256i sum = _mm256_add_epi64(_mm256_slli_epi64(hh, 3),
                                 _mm256_srli_epi64(mid, 29));
  sum = _mm256_add_epi64(
      sum, _mm256_slli_epi64(_mm256_and_si256(mid, lo29), 32));
  sum = _mm256_add_epi64(sum, _mm256_srli_epi64(ll, 61));
  sum = _mm256_add_epi64(sum, _mm256_and_si256(ll, p));
  sum = _mm256_add_epi64(sum, c);
  return _mm256_add_epi64(_mm256_and_si256(sum, p),
                          _mm256_srli_epi64(sum, 61));
}

/// PolynomialHash::Sign parity convention: odd hash => +1, even => -1,
/// i.e. sign = 2 * (h & 1) - 1.
SUBSTREAM_TGT_AVX2 __m256i Hash2SignAvx2(__m256i h) {
  const __m256i one = _mm256_set1_epi64x(1);
  return _mm256_sub_epi64(
      _mm256_slli_epi64(_mm256_and_si256(h, one), 1), one);
}

/// FastRange for width < 2^32: hi64(x * w) = (x_hi * w + (x_lo * w >> 32))
/// >> 32 — exact (the sum cannot carry out of 64 bits) and half the
/// multiplies of the general emulation.
SUBSTREAM_TGT_AVX2 __m256i FastRangeNarrowAvx2(__m256i x, __m256i w) {
  const __m256i a = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), w);
  const __m256i b = _mm256_mul_epu32(x, w);
  return _mm256_srli_epi64(_mm256_add_epi64(a, _mm256_srli_epi64(b, 32)), 32);
}

__attribute__((target("avx2"))) void BucketRowColsAvx2(
    const std::uint64_t* hashes, std::size_t n, std::uint64_t row_seed,
    std::uint64_t width, std::uint64_t* out_idx) {
  const __m256i seed = _mm256_set1_epi64x(static_cast<long long>(row_seed));
  const __m256i w = _mm256_set1_epi64x(static_cast<long long>(width));
  std::size_t i = 0;
  if ((width >> 32) == 0) {
    for (; i + 4 <= n; i += 4) {
      const __m256i mixed = RemixAvx2(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hashes + i)),
          seed);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_idx + i),
                          FastRangeNarrowAvx2(mixed, w));
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      const __m256i mixed = RemixAvx2(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hashes + i)),
          seed);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_idx + i),
                          MulHi64Avx2(mixed, w));
    }
  }
  _mm256_zeroupper();  // see "Upper state" above
  BucketRowColsScalar(hashes + i, n - i, row_seed, width, out_idx + i);
}

__attribute__((target("avx2"))) void SignRow4ColsAvx2(
    const std::uint64_t* items, std::size_t n, const std::uint64_t c[4],
    std::int64_t* out_sign) {
  const __m256i c0 = _mm256_set1_epi64x(static_cast<long long>(c[0]));
  const __m256i c1 = _mm256_set1_epi64x(static_cast<long long>(c[1]));
  const __m256i c2 = _mm256_set1_epi64x(static_cast<long long>(c[2]));
  const __m256i c3 = _mm256_set1_epi64x(static_cast<long long>(c[3]));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i xm = Mod61Avx2(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i)));
    const __m256i b_hi = _mm256_srli_epi64(xm, 32);
    __m256i acc = c3;
    acc = HornerStepAvx2(acc, xm, b_hi, c2);
    acc = HornerStepAvx2(acc, xm, b_hi, c1);
    acc = HornerStepAvx2(acc, xm, b_hi, c0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_sign + i),
                        Hash2SignAvx2(CondSubPAvx2(acc)));
  }
  _mm256_zeroupper();  // see "Upper state" above
  SignRow4ColsScalar(items + i, n - i, c, out_sign + i);
}

constexpr KernelTable kAvx2Table = {
    simd::Isa::kAvx2,
    BucketRowColsAvx2,
    SignRow4ColsAvx2,
};

// ---------------------------------------------------------------------------
// AVX-512 (8 x u64 lanes; native 64-bit low multiply and mask registers)
// ---------------------------------------------------------------------------

#define SUBSTREAM_TGT_AVX512 \
  __attribute__((target("avx512f,avx512dq"), always_inline)) inline

SUBSTREAM_TGT_AVX512 __m512i MulHi64Avx512(__m512i a, __m512i b) {
  const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, b_hi);
  const __m512i hl = _mm512_mul_epu32(a_hi, b);
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  const __m512i cross = _mm512_add_epi64(
      _mm512_add_epi64(_mm512_srli_epi64(ll, 32), _mm512_and_si512(lh, lo32)),
      _mm512_and_si512(hl, lo32));
  return _mm512_add_epi64(
      _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
      _mm512_add_epi64(_mm512_srli_epi64(hl, 32),
                       _mm512_srli_epi64(cross, 32)));
}

SUBSTREAM_TGT_AVX512 __m512i RemixAvx512(__m512i hash, __m512i seed) {
  __m512i x = _mm512_xor_si512(hash, seed);
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  x = _mm512_mullo_epi64(x,
                         _mm512_set1_epi64(static_cast<long long>(kRemixMul)));
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 29));
}

SUBSTREAM_TGT_AVX512 __m512i CondSubPAvx512(__m512i r) {
  const __m512i p = _mm512_set1_epi64(static_cast<long long>(kP));
  const __mmask8 ge = _mm512_cmpge_epu64_mask(r, p);
  return _mm512_mask_sub_epi64(r, ge, r, p);
}

SUBSTREAM_TGT_AVX512 __m512i Mod61Avx512(__m512i x) {
  const __m512i p = _mm512_set1_epi64(static_cast<long long>(kP));
  return CondSubPAvx512(
      _mm512_add_epi64(_mm512_and_si512(x, p), _mm512_srli_epi64(x, 61)));
}

/// HornerStepAvx2 on 8 lanes: same lazy fold, same [0, 2^61 + 4) output.
SUBSTREAM_TGT_AVX512 __m512i HornerStepAvx512(__m512i acc, __m512i xm,
                                              __m512i b_hi, __m512i c) {
  const __m512i p = _mm512_set1_epi64(static_cast<long long>(kP));
  const __m512i lo29 = _mm512_set1_epi64((1LL << 29) - 1);
  const __m512i a_hi = _mm512_srli_epi64(acc, 32);
  const __m512i ll = _mm512_mul_epu32(acc, xm);
  const __m512i mid = _mm512_add_epi64(_mm512_mul_epu32(acc, b_hi),
                                       _mm512_mul_epu32(a_hi, xm));
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  __m512i sum = _mm512_add_epi64(_mm512_slli_epi64(hh, 3),
                                 _mm512_srli_epi64(mid, 29));
  sum = _mm512_add_epi64(
      sum, _mm512_slli_epi64(_mm512_and_si512(mid, lo29), 32));
  sum = _mm512_add_epi64(sum, _mm512_srli_epi64(ll, 61));
  sum = _mm512_add_epi64(sum, _mm512_and_si512(ll, p));
  sum = _mm512_add_epi64(sum, c);
  return _mm512_add_epi64(_mm512_and_si512(sum, p),
                          _mm512_srli_epi64(sum, 61));
}

/// Same parity convention as Hash2SignAvx2: sign = 2 * (h & 1) - 1.
SUBSTREAM_TGT_AVX512 __m512i Hash2SignAvx512(__m512i h) {
  const __m512i one = _mm512_set1_epi64(1);
  return _mm512_sub_epi64(
      _mm512_slli_epi64(_mm512_and_si512(h, one), 1), one);
}

SUBSTREAM_TGT_AVX512 __m512i FastRangeNarrowAvx512(__m512i x, __m512i w) {
  const __m512i a = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), w);
  const __m512i b = _mm512_mul_epu32(x, w);
  return _mm512_srli_epi64(_mm512_add_epi64(a, _mm512_srli_epi64(b, 32)), 32);
}

__attribute__((target("avx512f,avx512dq"))) void BucketRowColsAvx512(
    const std::uint64_t* hashes, std::size_t n, std::uint64_t row_seed,
    std::uint64_t width, std::uint64_t* out_idx) {
  const __m512i seed = _mm512_set1_epi64(static_cast<long long>(row_seed));
  const __m512i w = _mm512_set1_epi64(static_cast<long long>(width));
  std::size_t i = 0;
  if ((width >> 32) == 0) {
    for (; i + 8 <= n; i += 8) {
      const __m512i mixed = RemixAvx512(
          _mm512_loadu_si512(reinterpret_cast<const void*>(hashes + i)), seed);
      _mm512_storeu_si512(reinterpret_cast<void*>(out_idx + i),
                          FastRangeNarrowAvx512(mixed, w));
    }
  } else {
    for (; i + 8 <= n; i += 8) {
      const __m512i mixed = RemixAvx512(
          _mm512_loadu_si512(reinterpret_cast<const void*>(hashes + i)), seed);
      _mm512_storeu_si512(reinterpret_cast<void*>(out_idx + i),
                          MulHi64Avx512(mixed, w));
    }
  }
  _mm256_zeroupper();  // see "Upper state" above
  BucketRowColsScalar(hashes + i, n - i, row_seed, width, out_idx + i);
}

__attribute__((target("avx512f,avx512dq"))) void SignRow4ColsAvx512(
    const std::uint64_t* items, std::size_t n, const std::uint64_t c[4],
    std::int64_t* out_sign) {
  const __m512i c0 = _mm512_set1_epi64(static_cast<long long>(c[0]));
  const __m512i c1 = _mm512_set1_epi64(static_cast<long long>(c[1]));
  const __m512i c2 = _mm512_set1_epi64(static_cast<long long>(c[2]));
  const __m512i c3 = _mm512_set1_epi64(static_cast<long long>(c[3]));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i xm = Mod61Avx512(
        _mm512_loadu_si512(reinterpret_cast<const void*>(items + i)));
    const __m512i b_hi = _mm512_srli_epi64(xm, 32);
    __m512i acc = c3;
    acc = HornerStepAvx512(acc, xm, b_hi, c2);
    acc = HornerStepAvx512(acc, xm, b_hi, c1);
    acc = HornerStepAvx512(acc, xm, b_hi, c0);
    _mm512_storeu_si512(reinterpret_cast<void*>(out_sign + i),
                        Hash2SignAvx512(CondSubPAvx512(acc)));
  }
  _mm256_zeroupper();  // see "Upper state" above
  SignRow4ColsScalar(items + i, n - i, c, out_sign + i);
}

constexpr KernelTable kAvx512Table = {
    simd::Isa::kAvx512,
    BucketRowColsAvx512,
    SignRow4ColsAvx512,
};

#endif  // SUBSTREAM_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

const KernelTable* TableFor(simd::Isa isa) {
  switch (isa) {
    case simd::Isa::kScalar:
      return &kScalarTable;
#if SUBSTREAM_SIMD_X86
    case simd::Isa::kAvx2:
      return &kAvx2Table;
    case simd::Isa::kAvx512:
      return &kAvx512Table;
#else
    case simd::Isa::kAvx2:
    case simd::Isa::kAvx512:
      return nullptr;
#endif
  }
  return nullptr;
}

/// Level the first Dispatch() resolves: SKETCH_SIMD override when valid and
/// supported, otherwise the strongest CPUID level.
simd::Isa InitialIsa() {
  if (const char* env = std::getenv("SKETCH_SIMD")) {
    simd::Isa forced;
    if (simd::ParseIsa(env, &forced) && simd::Supported(forced)) {
      return forced;
    }
    std::fprintf(stderr,
                 "substream: ignoring SKETCH_SIMD=%s (unknown or unsupported "
                 "on this host/build); using %s\n",
                 env, simd::Name(simd::Best()));
  }
  return simd::Best();
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const KernelTable& Dispatch() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: concurrent first calls resolve the same table.
    table = TableFor(InitialIsa());
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

simd::Isa ActiveIsa() { return Dispatch().isa; }

bool SetActive(simd::Isa isa) {
  if (!simd::Supported(isa)) return false;
  const KernelTable* table = TableFor(isa);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

std::vector<simd::Isa> AvailableIsas() {
  std::vector<simd::Isa> levels;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::Supported(isa)) levels.push_back(isa);
  }
  return levels;
}

}  // namespace kernels
}  // namespace substream
