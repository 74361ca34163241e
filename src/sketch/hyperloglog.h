#ifndef SUBSTREAM_SKETCH_HYPERLOGLOG_H_
#define SUBSTREAM_SKETCH_HYPERLOGLOG_H_

#include <cstdint>
#include <optional>
#include <vector>

#include <algorithm>

#include "sketch/sketch.h"
#include "util/common.h"
#include "util/hash.h"

/// \file hyperloglog.h
/// HyperLogLog distinct counter (Flajolet et al.) — the second F0(L)
/// backend for Algorithm 2, with constant-byte registers instead of KMV's
/// 8-byte values. Standard bias correction and linear-counting small-range
/// correction included.
///
/// Register selection and rank derive from the shared prehash (one seeded
/// remix of the per-item PreHash — a bijection of the item identity, so
/// duplicates still never inflate the estimate), replacing the former
/// per-sketch tabulation hash and its 16 KiB of tables.

namespace substream {

/// HLL with 2^precision registers; relative error ~ 1.04 / sqrt(2^precision).
class HyperLogLog {
 public:
  HyperLogLog(int precision, std::uint64_t seed);

  void Update(item_t item) { Update(MakePrehashed(item)); }

  /// Prehashed form of Update: one remix, no further hashing.
  void Update(const PrehashedItem& ph) {
    const std::uint64_t h = RemixHash(ph.hash, seed_);
    const std::uint64_t index = h & mask_;
    const std::uint64_t rest = h >> precision_;
    // Rank = position of the first set bit in the remaining 64 - p bits.
    const int rank =
        rest == 0 ? (64 - precision_ + 1)
                  : (1 + __builtin_ctzll(rest));
    registers_[index] =
        std::max(registers_[index], static_cast<std::uint8_t>(rank));
  }

  /// Weighted-update form of the contract: HLL is frequency-insensitive,
  /// so any positive count is a single distinct observation.
  void Update(item_t item, count_t count) {
    SUBSTREAM_CHECK(count >= 1);
    Update(item);
  }

  /// Feeds `n` already-prehashed elements; register selection only reads
  /// the hash column.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Update(cols.At(i));
  }

  /// Zeroes all registers; precision and seed are kept.
  void Reset() { std::fill(registers_.begin(), registers_.end(), 0); }

  double Estimate() const;

  /// Merges another sketch built with the same precision and seed.
  void Merge(const HyperLogLog& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const HyperLogLog& other) const;

  int precision() const { return precision_; }
  std::uint64_t seed() const { return seed_; }
  /// Registers touched so far; the health report's fill ratio for an HLL
  /// summary is NonZeroRegisters()/2^precision.
  std::size_t NonZeroRegisters() const {
    std::size_t nonzero = 0;
    for (std::uint8_t r : registers_) nonzero += r != 0;
    return nonzero;
  }
  std::size_t RegisterCount() const { return registers_.size(); }

  std::size_t SpaceBytes() const {
    return registers_.size() * sizeof(std::uint8_t) + sizeof(*this);
  }

  /// Appends the versioned wire record: precision + seed header, then the
  /// raw register bytes.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<HyperLogLog> Deserialize(serde::Reader& in);

 private:
  int precision_;
  std::uint64_t mask_;
  std::uint64_t seed_;
  std::vector<std::uint8_t> registers_;
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(HyperLogLog);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_HYPERLOGLOG_H_
