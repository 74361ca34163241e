#ifndef SUBSTREAM_UTIL_HASH_H_
#define SUBSTREAM_UTIL_HASH_H_

#include <array>
#include <cstdint>
#include <vector>

#include "util/common.h"

/// \file hash.h
/// Hash families used by the sketches.
///
/// Three families are provided, ordered by strength:
///  - Mix64: a fixed 64-bit finalizer (SplitMix64/Murmur3-style). Fast,
///    good avalanche, no independence guarantee. Used for seeding,
///    non-adversarial partitioning, and the shared prehash stage.
///  - PolynomialHash: k-wise independent hashing via a degree-(k-1)
///    polynomial over the Mersenne-prime field GF(2^61 - 1). Kept for the
///    independence-critical paths: CountSketch and AMS signs need 4-wise
///    independence for their variance bounds.
///  - TabulationHash: 3-wise independent but with much stronger
///    concentration behaviour in practice (Patrascu–Thorup); used where
///    hierarchical subsampling wants per-bit uniformity.
///
/// ## The shared prehash stage
///
/// Bucket selection across all counter-array sketches runs through one
/// strong 64-bit mix per item (PreHash) plus a cheap seeded remix per row
/// (RemixHash) and a branch-free fast-range reduction (FastRange64). A
/// prehash column computed once per batch feeds every summary in a Monitor
/// (PrehashedColumns), so ingest cost grows with useful counter work
/// instead of with redundant per-sketch hashing. PreHash and RemixHash are
/// bijections of the item identity, so distinctness is preserved exactly
/// (KMV/HLL) and all occurrences of an item derive identical buckets
/// everywhere.

namespace substream {

/// SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a seed with a stream index to derive independent sub-seeds.
inline std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t index) {
  return Mix64(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
}

/// Branch-free Lemire fast-range reduction: maps a uniform 64-bit value to
/// [0, range) without the division a `%` would cost. Bias is at most
/// range / 2^64 per bucket — negligible for every geometry in this library.
inline std::uint64_t FastRange64(std::uint64_t x, std::uint64_t range) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * range) >> 64);
}

/// Salt folded into every prehash so the shared stage is distinct from raw
/// Mix64 uses elsewhere (seeding, shard routing salts).
inline constexpr std::uint64_t kPrehashSalt = 0x9ddfea08eb382d69ULL;

/// The one strong hash computed per stream item: full-avalanche and
/// bijective in the item identity.
inline std::uint64_t PreHash(std::uint64_t item) {
  return Mix64(item ^ kPrehashSalt);
}

/// A stream element paired with its prehash: the argument of the per-item
/// paths. Every summary derives its per-row buckets from `hash` via
/// RemixHash.
struct PrehashedItem {
  std::uint64_t item = 0;
  std::uint64_t hash = 0;
};

inline PrehashedItem MakePrehashed(std::uint64_t item) {
  return PrehashedItem{item, PreHash(item)};
}

/// Non-owning view of a prehashed batch as two parallel columns: `items[i]`
/// pairs with `hashes[i]`. This is the batch payload of every batched
/// ingest path — the prehash column is computed once per batch (Monitor)
/// or once per ring hop (ShardedMonitor), and the parallel arrays give the
/// SIMD kernels unit-stride loads. `At(i)` bridges to the per-item
/// `PrehashedItem` for per-item fallback loops.
struct PrehashedColumns {
  const std::uint64_t* items = nullptr;
  const std::uint64_t* hashes = nullptr;

  PrehashedItem At(std::size_t i) const {
    return PrehashedItem{items[i], hashes[i]};
  }
};

/// Fills `out_hashes[0..n)` with the prehash column for `data[0..n)`; the
/// item column is `data` itself (the columns need no copy of the
/// identities).
inline void PrehashColumnSoA(const std::uint64_t* data, std::size_t n,
                             std::uint64_t* out_hashes) {
  for (std::size_t i = 0; i < n; ++i) out_hashes[i] = PreHash(data[i]);
}

/// Items per prehash chunk of the batched ingest paths: 16 KiB of column,
/// small enough to stay L1-resident while the consumer fans it out.
inline constexpr std::size_t kPrehashChunkItems = 1024;

/// Runs stage 1 of the columnar ingest pipeline: prehashes `data[0..n)` in
/// stack-resident chunks and hands each chunk to `fn(cols, m)` as a
/// PrehashedColumns view (items aliased straight into `data`, hashes in a
/// stack-resident column), so the consumer's SIMD rows take unit-stride
/// loads. Shared by every caller that feeds raw items to an UpdatePrehashed
/// fan-out, so the chunking policy cannot diverge between call sites.
template <typename Fn>
inline void ForEachPrehashedChunkCols(const std::uint64_t* data, std::size_t n,
                                      Fn&& fn) {
  std::uint64_t hashes[kPrehashChunkItems];
  for (std::size_t base = 0; base < n; base += kPrehashChunkItems) {
    const std::size_t m =
        n - base < kPrehashChunkItems ? n - base : kPrehashChunkItems;
    PrehashColumnSoA(data + base, m, hashes);
    fn(PrehashedColumns{data + base, hashes}, m);
  }
}

/// Cheap per-row derivation from an already-mixed prehash: one seeded
/// multiply-xorshift round (Murmur3 fmix constant). Bijective in the
/// prehash for any fixed seed, so remixes never merge distinct items.
inline std::uint64_t RemixHash(std::uint64_t prehash, std::uint64_t seed) {
  std::uint64_t x = prehash ^ seed;
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
  return x ^ (x >> 29);
}

/// Reduces a 128-bit value modulo the Mersenne prime 2^61 - 1 via the
/// identity 2^61 ≡ 1 (mod p): fold the top bits down, one conditional
/// subtraction. The SINGLE definition of this reduction — PolynomialHash
/// and the SIMD sign kernels (sketch/counter_kernels.cc) both evaluate it,
/// and their bit-identity contract depends on the exact operation sequence
/// here (including the rare not-fully-reduced edge value p).
inline std::uint64_t ModMersenne61(unsigned __int128 x) {
  constexpr std::uint64_t kP = (1ULL << 61) - 1;
  const std::uint64_t lo = static_cast<std::uint64_t>(x) & kP;
  const std::uint64_t hi = static_cast<std::uint64_t>(x >> 61);
  std::uint64_t r = lo + hi;
  if (r >= kP) r -= kP;
  return r;
}

/// k-wise independent hash over GF(2^61 - 1).
///
/// h(x) = (c_{k-1} x^{k-1} + ... + c_1 x + c_0) mod (2^61 - 1), evaluated by
/// Horner's rule with 128-bit intermediate products. Output is uniform over
/// [0, 2^61 - 2]; helpers map it to buckets, signs, and unit doubles.
class PolynomialHash {
 public:
  /// Mersenne prime 2^61 - 1.
  static constexpr std::uint64_t kPrime = (1ULL << 61) - 1;

  /// Creates a hash with `independence` >= 1 random coefficients derived
  /// deterministically from `seed`.
  PolynomialHash(int independence, std::uint64_t seed);

  /// Raw hash value in [0, kPrime - 1].
  std::uint64_t Hash(std::uint64_t x) const;

  /// Bucket index in [0, buckets). Uses a fast-range reduction instead of
  /// `%`: the 61-bit field value is spread over the full 64-bit domain
  /// (uniform over multiples of 8) and reduced with one high multiply,
  /// replacing the per-call division. Equivalent to
  /// floor(Hash(x) * buckets / 2^61) up to the field's negligible bias.
  std::uint64_t Bucket(std::uint64_t x, std::uint64_t buckets) const {
    return FastRange64(Hash(x) << 3, buckets);
  }

  /// Rademacher sign in {-1, +1}.
  int Sign(std::uint64_t x) const {
    return (Hash(x) & 1) ? +1 : -1;
  }

  /// Uniform double in [0, 1).
  double Unit(std::uint64_t x) const {
    return static_cast<double>(Hash(x)) / static_cast<double>(kPrime);
  }

  int independence() const { return static_cast<int>(coeffs_.size()); }

  /// Coefficients (constant term first), already reduced into [0, kPrime).
  /// The SIMD sign kernels (sketch/counter_kernels.h) evaluate the same
  /// polynomial lane-parallel from a packed copy of these.
  const std::vector<std::uint64_t>& coefficients() const { return coeffs_; }

  /// Memory footprint of the hash description in bytes.
  std::size_t SpaceBytes() const {
    return coeffs_.size() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> coeffs_;
};

/// Simple (twisted) tabulation hashing on 8-bit characters of a 64-bit key.
///
/// 3-wise independent; empirically behaves like a fully random function for
/// the subsampling and level-set machinery.
class TabulationHash {
 public:
  explicit TabulationHash(std::uint64_t seed);

  std::uint64_t Hash(std::uint64_t x) const {
    std::uint64_t h = 0;
    for (int c = 0; c < 8; ++c) {
      h ^= table_[c][(x >> (8 * c)) & 0xff];
    }
    return h;
  }

  std::size_t SpaceBytes() const { return sizeof(table_); }

 private:
  std::uint64_t table_[8][256];
};

}  // namespace substream

#endif  // SUBSTREAM_UTIL_HASH_H_
