#ifndef SUBSTREAM_SKETCH_CANDIDATE_POOL_H_
#define SUBSTREAM_SKETCH_CANDIDATE_POOL_H_

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/common.h"

/// \file candidate_pool.h
/// The bounded candidate pool behind every top-k tracker: the CountMin and
/// CountSketch heavy-hitter trackers and the per-depth pools of the
/// level-set structure. It maps item -> last estimate, holds at most
/// `capacity` entries and, when full, evicts the weakest entry for a
/// stronger newcomer. The eviction policy lives here only.
///
/// The pool's wire form is its map (serde::WriteCountMap/WriteDoubleMap,
/// sorted by item), but which item an eviction drops depends on the map's
/// iteration order, so pool contents depend on the exact sequence of
/// finds, emplaces and erases. Every member below keeps that sequence.

namespace substream {

/// Bounded item -> estimate map with weakest-first eviction. `V` is the
/// estimate type of the tracking sketch (count_t for CountMin, double for
/// CountSketch).
template <typename V>
class CandidatePool {
 public:
  explicit CandidatePool(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Inserts `item` or updates its estimate. When the pool is full, the
  /// first minimum in iteration order is evicted if `estimate` beats it
  /// (O(capacity) scan); otherwise the newcomer is dropped.
  void Offer(item_t item, V estimate) {
    auto it = map_.find(item);
    if (it != map_.end()) {
      it->second = estimate;
      return;
    }
    if (map_.size() < capacity_) {
      map_.emplace(item, estimate);
      return;
    }
    auto weakest = map_.begin();
    for (auto jt = map_.begin(); jt != map_.end(); ++jt) {
      if (jt->second < weakest->second) weakest = jt;
    }
    if (weakest->second < estimate) {
      map_.erase(weakest);
      map_.emplace(item, estimate);
    }
  }

  /// Re-reads every held estimate through `estimate_fn(item)`.
  template <typename EstimateFn>
  void Refresh(EstimateFn estimate_fn) {
    for (auto& [item, estimate] : map_) estimate = estimate_fn(item);
  }

  /// Offers every item of `other` at its `estimate_fn(item)` estimate;
  /// `other`'s stored estimates are not read.
  template <typename EstimateFn>
  void Union(const CandidatePool& other, EstimateFn estimate_fn) {
    for (const auto& [item, stale] : other.map_) {
      (void)stale;
      Offer(item, estimate_fn(item));
    }
  }

  /// Items whose current `estimate_fn(item)` is >= `threshold`, with that
  /// estimate, sorted by decreasing estimate (ties by increasing item).
  template <typename EstimateFn>
  std::vector<std::pair<item_t, V>> Ranked(double threshold,
                                           EstimateFn estimate_fn) const {
    std::vector<std::pair<item_t, V>> out;
    for (const auto& [item, stale] : map_) {
      (void)stale;
      const V estimate = estimate_fn(item);
      if (static_cast<double>(estimate) >= threshold) {
        out.emplace_back(item, estimate);
      }
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    return out;
  }

  void Clear() { map_.clear(); }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }

  std::size_t SpaceBytes() const {
    return map_.size() * (sizeof(item_t) + sizeof(V));
  }

  /// The underlying map, for serde and for readers that walk the pool.
  const std::unordered_map<item_t, V>& map() const { return map_; }
  std::unordered_map<item_t, V>& map() { return map_; }

 private:
  std::unordered_map<item_t, V> map_;
  std::size_t capacity_;
};

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_CANDIDATE_POOL_H_
