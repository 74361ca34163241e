#ifndef SUBSTREAM_SKETCH_SKETCH_H_
#define SUBSTREAM_SKETCH_SKETCH_H_

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "util/common.h"
#include "util/hash.h"

/// \file sketch.h
/// The uniform mergeable-summary contract shared by every sketch in
/// `src/sketch/` and every estimator in `src/core/`.
///
/// All of the paper's summaries (F0, F2-via-level-sets, entropy, F1-heavy
/// hitters over a Bernoulli-sampled stream) are mergeable: a summary of the
/// concatenation of two streams can be computed from summaries of the parts,
/// provided both were built with the same geometry and seed. The library
/// leans on that property everywhere — distributed routers merging at a
/// collector, `ShardedMonitor` merging per-core shards, multi-window
/// roll-ups — so the contract is made explicit and checked at compile time.
///
/// ## The contract
///
/// A conforming summary type `S` provides:
///
///  - `void Update(item_t item)` — feed one stream element. Weighted
///    summaries additionally accept `Update(item, count)`; frequency-
///    insensitive summaries (KMV, HyperLogLog) accept and ignore the count
///    so generic call sites need not special-case them.
///  - `void UpdatePrehashed(PrehashedColumns cols, std::size_t n)` — feed
///    `n` elements as two parallel columns, `cols.items[i]` and the shared
///    prehash `cols.hashes[i]` (util/hash.h) the caller already computed.
///    The one batched entry point, bit-identical in effect to `n` calls to
///    `Update(cols.items[i])`: counter-array sketches derive their per-row
///    buckets from the hash column via RemixHash (the same derivation their
///    scalar `Update` performs internally) through the SIMD row kernels,
///    while map and heap summaries fall back to
///    `UpdatePrehashedColsByLoop`. Summaries that take weighted ingest
///    (the F2/entropy/heavy-hitter estimators and the Monitor) add a third
///    parameter `count_t weight = 1`: each element then carries `weight`
///    units, and `weight == 1` runs the unweighted batched path. The
///    Monitor facade's batched ingest and ShardedMonitor's column ring
///    batches feed it — one strong hash per item for the whole summary set
///    instead of one per summary per row. Callers holding raw items chunk
///    them through `ForEachPrehashedChunkCols` (util/hash.h), or through
///    `FeedItems` below.
///  - `void Merge(const S& other)` — fold `other` into `*this` so the
///    result summarizes the concatenated input. Preconditions (identical
///    geometry and seed) are enforced loudly via SUBSTREAM_CHECK: merging
///    incompatible summaries aborts instead of silently corrupting
///    estimates. Summaries that support decayed windows (the counter
///    sketches, the heavy-hitter trackers, the level sets, the entropy
///    MLE, the core F1/F2/Fk/entropy estimators and the Monitor) declare
///    it as `Merge(const S& other, double weight = 1.0)`: one body, in
///    which every linear counter of `other` contributes
///    `ScaleCounter(counter, weight)`. Weight 1 is the exact merge, and
///    the counter-add loops run their plain add there. The frequency-
///    insensitive and non-linear summaries (KMV, HyperLogLog, AMS-F2,
///    SpaceSaving) keep the unweighted form.
///  - `bool MergeCompatibleWith(const S& other) const` — true exactly when
///    `Merge(other)` would succeed, checked all the way down through
///    nested summaries. This is the graceful form of the Merge
///    precondition: callers holding untrusted (e.g. decoded) summaries ask
///    first instead of risking the abort — the cross-process Collector
///    depends on it.
///  - `void Reset()` — return to the freshly-constructed state while
///    keeping geometry, seeds and hash functions, so a summary can be
///    reused across measurement windows without reallocation.
///  - `std::size_t SpaceBytes() const` — memory footprint. Like every
///    observer, it must be const: serde serializes through a const
///    reference, and the trait rejects non-const declarations.
///  - `void Serialize(serde::Writer&) const` — append the summary's
///    versioned wire record (serde/serde.h): type tag, format version, the
///    geometry/seed header that the Merge preconditions check, then state.
///  - `static std::optional<S> Deserialize(serde::Reader&)` — decode one
///    record. Returns std::nullopt (never crashes, never UB) on truncated
///    or corrupted input; a decoded summary merges with a live one exactly
///    as the original would have.
///
/// Conformance is asserted with `SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(S)`
/// (see the bottom of this header for the sketch layer; `monitor.cc` does
/// the same for the core estimators), so a regression in any class is a
/// compile error, not a runtime surprise.

namespace substream {

namespace serde {
class Writer;
class Reader;
}  // namespace serde

namespace sketch_internal {

template <typename, typename = void>
struct HasUpdate : std::false_type {};
template <typename S>
struct HasUpdate<S, std::void_t<decltype(std::declval<S&>().Update(
                        std::declval<item_t>()))>> : std::true_type {};

template <typename, typename = void>
struct HasUpdatePrehashed : std::false_type {};
template <typename S>
struct HasUpdatePrehashed<
    S, std::void_t<decltype(std::declval<S&>().UpdatePrehashed(
           std::declval<PrehashedColumns>(), std::declval<std::size_t>()))>>
    : std::true_type {};

template <typename, typename = void>
struct HasMerge : std::false_type {};
template <typename S>
struct HasMerge<S, std::void_t<decltype(std::declval<S&>().Merge(
                       std::declval<const S&>()))>> : std::true_type {};

template <typename, typename = void>
struct HasReset : std::false_type {};
template <typename S>
struct HasReset<S, std::void_t<decltype(std::declval<S&>().Reset())>>
    : std::true_type {};

template <typename, typename = void>
struct HasSpaceBytes : std::false_type {};
template <typename S>
struct HasSpaceBytes<
    S, std::void_t<decltype(std::declval<const S&>().SpaceBytes())>>
    : std::true_type {};

template <typename, typename = void>
struct HasMergeCompatibleWith : std::false_type {};
template <typename S>
struct HasMergeCompatibleWith<
    S, std::enable_if_t<std::is_same_v<
           decltype(std::declval<const S&>().MergeCompatibleWith(
               std::declval<const S&>())),
           bool>>> : std::true_type {};

// Serialize must be callable on a const reference: serde reads state
// through const access, so non-const observers are contract violations.
template <typename, typename = void>
struct HasSerialize : std::false_type {};
template <typename S>
struct HasSerialize<S, std::void_t<decltype(std::declval<const S&>().Serialize(
                           std::declval<serde::Writer&>()))>>
    : std::true_type {};

template <typename, typename = void>
struct HasDeserialize : std::false_type {};
template <typename S>
struct HasDeserialize<
    S, std::enable_if_t<std::is_same_v<
           decltype(S::Deserialize(std::declval<serde::Reader&>())),
           std::optional<S>>>> : std::true_type {};

}  // namespace sketch_internal

/// True when `S` satisfies the mergeable-summary contract documented above.
template <typename S>
inline constexpr bool IsMergeableSummary =
    sketch_internal::HasUpdate<S>::value &&
    sketch_internal::HasUpdatePrehashed<S>::value &&
    sketch_internal::HasMerge<S>::value &&
    sketch_internal::HasMergeCompatibleWith<S>::value &&
    sketch_internal::HasReset<S>::value &&
    sketch_internal::HasSpaceBytes<S>::value &&
    sketch_internal::HasSerialize<S>::value &&
    sketch_internal::HasDeserialize<S>::value;

/// Compile-time conformance check, one line per summary class.
#define SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(S)                          \
  static_assert(::substream::IsMergeableSummary<S>,                    \
                #S " does not satisfy the mergeable-summary contract "  \
                   "(Update/UpdatePrehashed/Merge/MergeCompatibleWith/" \
                   "Reset/SpaceBytes/Serialize/Deserialize)")

/// True when `w` is usable as a decayed-merge weight: finite, in (0, 1].
/// Weight 1 is the ordinary (exact) merge; smaller weights scale the merged
/// summary's counter contributions, which is how WindowedMonitor ages old
/// windows at query time.
inline bool ValidMergeWeight(double w) { return w > 0.0 && w <= 1.0; }

/// Rounds a weighted counter contribution back to the integer counter
/// domain. Decayed merges (`Merge(other, weight)`) scale every linear
/// counter by the window weight; round-to-nearest keeps the scaled sketch
/// an unbiased-in-expectation image of the decayed stream while the
/// counters stay integral. Contributions under half a count round to zero
/// and vanish — exactly the "aged out" semantics a decayed summary wants.
/// Weight 1 returns `count` unchanged: the double product would round
/// counts above 2^53. Otherwise the result is clamped to CounterT's
/// representable range: `llround` on a product at or beyond 2^63 is
/// undefined behaviour, and an unchecked narrowing cast would silently
/// wrap near-max cells instead of pinning them.
template <typename CounterT>
inline CounterT ScaleCounter(CounterT count, double weight) {
  if (weight == 1.0) return count;
  const double scaled = weight * static_cast<double>(count);
  // The max/min of CounterT round when converted to double (uint64 max
  // becomes 2^64, int64 max becomes 2^63) — both are correct clamp
  // thresholds: any product reaching them is out of llround's domain.
  const double hi = static_cast<double>(std::numeric_limits<CounterT>::max());
  const double lo = static_cast<double>(std::numeric_limits<CounterT>::min());
  if (scaled >= hi) return std::numeric_limits<CounterT>::max();
  if (scaled <= lo) return std::numeric_limits<CounterT>::min();
  if constexpr (!std::is_signed_v<CounterT>) {
    // Unsigned counters span past llround's int64 domain; products this
    // large are exact integers in double, so a direct cast is lossless.
    if (scaled >= 9223372036854775808.0) return static_cast<CounterT>(scaled);
  }
  return static_cast<CounterT>(std::llround(scaled));
}

/// The one merge of exact count maps (the entropy MLE, ExactLevelSets and
/// the level-set exact slots): adds `ScaleCounter(count, weight)` for every
/// entry of `from` into `into`, skipping entries that round to zero (they
/// aged out of the decayed window), and returns the mass added. Owners
/// keep `total == sum of counts` by adding the returned mass, which per-
/// item rounding makes differ from `ScaleCounter(total, weight)`.
template <typename CountMap>
inline count_t MergeCounts(CountMap& into, const CountMap& from,
                           double weight) {
  count_t added = 0;
  for (const auto& [item, count] : from) {
    const count_t scaled = ScaleCounter(count, weight);
    if (scaled == 0) continue;
    into[item] += scaled;
    added += scaled;
  }
  return added;
}

/// Decoder check for an exact count map: std::nullopt when a count is zero
/// (the encoder never writes one) or the counts' sum wraps; otherwise the
/// sum, which the owner compares with its recorded total.
template <typename CountMap>
inline std::optional<count_t> CountMapMass(const CountMap& counts) {
  count_t mass = 0;
  for (const auto& [item, count] : counts) {
    (void)item;
    if (count == 0 || mass + count < mass) return std::nullopt;
    mass += count;
  }
  return mass;
}

/// Default `UpdatePrehashed` body: replays scalar `Update(item)` over the
/// item column, so the result is bit-identical to the per-item path.
/// Summaries whose per-item work never consumes the prehash (hash maps and
/// heaps) delegate to this; counter-array sketches override
/// with loops that derive buckets from the hash column directly.
template <typename S>
inline void UpdatePrehashedColsByLoop(S& summary, PrehashedColumns cols,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) summary.Update(cols.items[i]);
}

/// Feeds raw items to a summary through its one batched entry point:
/// prehashes `data[0..n)` in chunks (ForEachPrehashedChunkCols) and hands
/// each chunk to `summary.UpdatePrehashed`. For callers that batch-feed a
/// bare summary (tests, benches, experiments); the Monitor facade has its
/// own raw-item entry point.
template <typename S>
inline void FeedItems(S& summary, const item_t* data, std::size_t n) {
  ForEachPrehashedChunkCols(data, n, [&summary](PrehashedColumns cols,
                                                std::size_t m) {
    summary.UpdatePrehashed(cols, m);
  });
}

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_SKETCH_H_
