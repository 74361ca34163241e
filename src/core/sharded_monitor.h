#ifndef SUBSTREAM_CORE_SHARDED_MONITOR_H_
#define SUBSTREAM_CORE_SHARDED_MONITOR_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/monitor.h"
#include "core/overload.h"
#include "stream/stream.h"
#include "util/common.h"
#include "util/hash.h"
#include "util/numa.h"

/// \file sharded_monitor.h
/// Multi-core ingestion pipeline over mergeable Monitors: the
/// sampled-NetFlow collector that scales across cores — and, via shard
/// groups, places its workers across sockets.
///
/// Layout: one producer (the caller of Ingest) and `shards` worker threads.
/// Each worker owns a Monitor constructed with the *same* config and seed —
/// the precondition for Monitor::Merge — and consumes batches from its own
/// bounded single-producer/single-consumer ring buffer. The producer
/// prehashes each item ONCE (the shared PreHash of util/hash.h), routes on
/// a salted remix of that prehash, and ships the batch as two parallel
/// columns — `item[]` and `hash[]` (PrehashedColumns) — through the rings,
/// so the same strong hash pays for partitioning on the producer side AND
/// every sketch's bucket derivations on the worker side
/// (Monitor::UpdatePrehashed), and the worker-side SIMD kernels read each
/// column with unit-stride loads instead of gathering from an interleaved
/// struct array. All occurrences of an item land on the same shard; linear
/// sketches merge identically under any partition, but identity
/// partitioning also keeps the candidate-tracking heavy-hitter pool
/// accurate, since each shard sees the full local frequency of its items.
///
/// ## Shard groups (NUMA nodes)
///
/// Shards are split into contiguous *groups*, one per NUMA node and at most
/// one per shard (util/numa.h: SKETCH_FORCE_NUMA_GROUPS override, /sys node
/// directories, single-group fallback — in that order). Group membership
/// buys locality, never semantics:
///
///  - each worker pins itself to its group's CPUs
///    (pthread_setaffinity_np, best-effort) and then FIRST-TOUCHES its own
///    ring buffers and Monitor on its thread, so the pages a worker hammers
///    live on the node that reads them;
///  - Stats().group_ring_hwm reports each group's worst ring backlog;
///  - shard routing depends ONLY on the shard count, never on the group
///    layout, and Report()/CollectWindow() fold the shards in shard order
///    on the calling thread, so a forced 1-group and a forced N-group
///    pipeline produce byte-identical output for the same input (pinned by
///    test).
///
/// ## Lifecycle: epochs (measurement windows)
///
/// The pipeline runs in *epochs*. Construction opens epoch 0; `Rotate()`
/// closes the current epoch and opens the next WITHOUT stalling ingest: it
/// flushes the staged batches under the closing epoch's tag and pushes one
/// empty epoch-marker batch per shard. Every batch in the rings carries its
/// epoch, so each worker — on seeing the first batch of a new epoch —
/// retires its closed-window Monitor into a per-shard mailbox and swaps
/// onto a fresh same-seeded Monitor, all on the worker thread. No worker is
/// ever joined or respawned at a window boundary.
///
///  - `Report()` — repeatable: flushes + drains, then merges a *snapshot*
///    of the current epoch's shard monitors. Call it as often as you like;
///    ingest continues afterwards.
///  - `CollectWindow(e)` — extracts rotated epoch `e` as one merged
///    Monitor (all shards, deterministic shard order). The returned
///    monitor is an ordinary mergeable summary: serialize it, checkpoint
///    it, or hand it to WindowedMonitor::AdoptWindow().
///  - `Reset()` — drains, clears every shard monitor, drops uncollected
///    retired windows and zeroes the item accounting; epoch numbering
///    continues (workers own their epoch cursors).
///  - Destruction drains first: staged and in-flight batches are consumed
///    before the workers stop, and the destructor checks that everything
///    `Ingest()` accounted was consumed — a pipeline can no longer be
///    destroyed with silently dropped staged batches.
///
/// ```
///   ShardedMonitor monitor(config, /*seed=*/7, {.shards = 4});
///   WindowedMonitor ring(config, /*seed=*/7, {.windows = 24});
///   while (ReceiveBatch(&buf)) {
///     monitor.Ingest(buf.data(), buf.size());
///     if (WindowBoundary()) {
///       monitor.Rotate();
///       ring.AdoptWindow(std::move(*monitor.CollectWindow(
///           monitor.CurrentEpoch() - 1)));
///     }
///   }
///   MonitorReport live = monitor.Report();        // open window, any time
///   MonitorReport hour = ring.Report(/*k=*/12);   // last 12 closed windows
/// ```
///
/// ## Overload: sampled ingest (NitroSketch mode)
///
/// With MonitorConfig::overload_sampling set, the producer arms an adaptive
/// SampleController (core/overload.h). Under ring backpressure — occupancy
/// above the engage watermark at flush time, or new producer stalls — the
/// controller halves its admission probability p (down to
/// SampleControllerOptions::min_rate); skipped items never pay hashing,
/// staging or ring traffic, so the producer keeps running at line rate.
/// Survivors ship with the batch-level weight round(1/p) and the workers
/// apply them through Monitor::UpdatePrehashed's weight — every counter
/// stays an unbiased estimate at a variance cost Health() reports as
/// sampled_epsilon. When pressure stays below the disengage watermark for
/// a calm streak, p doubles back toward exact counting (hysteresis: the
/// watermark gap plus the streak requirement). All staged batches are
/// shipped before any rate change, so a batch always carries one weight.
///
/// Threading contract: Ingest/Rotate/Report/CollectWindow/Reset/Drain/
/// Stats/SpaceBytes are producer-side calls (one thread). SpaceBytes reads
/// per-shard byte counters the workers publish atomically after each batch,
/// so it is safe (and racefree) while workers are mid-ingest.

namespace substream {

namespace obs {
class Gauge;
}  // namespace obs

/// Tuning knobs for the pipeline.
struct ShardedMonitorOptions {
  /// Number of worker shards (>= 1), each a thread owning one Monitor.
  std::size_t shards = 4;
  /// Capacity (in batches) of each shard's ring buffer; rounded up to a
  /// power of two. The producer backs off (yield, then bounded exponential
  /// sleep) when a ring is full, and counts the stall.
  std::size_t ring_capacity = 64;
  /// Target items per batch handed to a shard. Larger batches amortize
  /// ring-buffer traffic and let the sketches' row-major batched loops run
  /// longer.
  std::size_t batch_items = 4096;
  /// Pin each worker to its group's CPU set. Best-effort: a refused
  /// affinity syscall leaves the worker unpinned (and first-touch then
  /// falls back to wherever the scheduler ran the allocation).
  bool pin_workers = true;
  /// Adaptive sampler tuning (core/overload.h). Armed only when the
  /// monitor config sets `overload_sampling`; inert otherwise.
  SampleControllerOptions overload;
  /// Test/chaos knob: every worker sleeps this long before applying each
  /// non-empty batch, simulating a slow consumer (slow node, oversubscribed
  /// host). 0 disables. This is how the overload stress test makes ring
  /// saturation deterministic.
  std::uint64_t throttle_consumer_ns = 0;
};

/// Pipeline observability snapshot (producer-side view; worker counters
/// are read with relaxed loads and may trail by at most one batch).
///
/// Reset() semantics, field by field (pinned by regression test):
///  - ZEROED by Reset(): items_ingested, items_consumed, producer_stalls,
///    buffers_recycled, windows_retired (uncollected windows are dropped),
///    items_sampled_out, stall_wait_ns — and the adaptive sampler returns
///    to exact counting (sample_rate 1.0).
///    These are *window accounting* — meaningful relative to the data the
///    pipeline currently holds, which Reset discards.
///  - SURVIVE Reset(): batches_pushed, batches_consumed, epoch,
///    group_ring_hwm (a lifetime high-water mark), groups. These are
///    *lifetime cursors*: the push/consume counts are the Drain quiescence
///    barrier (a worker's consumed count must stay comparable with the
///    producer's push count across Reset), and epoch numbering continues
///    because the workers own their epoch cursors on their threads.
/// The process-wide obs::MetricsRegistry counters this pipeline also feeds
/// (substream_sharded_*) are cumulative for the process lifetime and are
/// never reset by Reset().
struct ShardedMonitorStats {
  count_t items_ingested = 0;   ///< accounted by Ingest (staged or shipped)
  count_t items_consumed = 0;   ///< applied to shard monitors by workers
  std::uint64_t batches_pushed = 0;
  std::uint64_t batches_consumed = 0;
  /// Number of flushes that found a ring full and had to back off: the
  /// saturation signal. A rising value means workers cannot keep up with
  /// the producer (grow ring_capacity, batch_items or shards — or opt in
  /// to overload_sampling and degrade accuracy instead of latency).
  std::uint64_t producer_stalls = 0;
  /// Cumulative nanoseconds the producer spent blocked on full rings —
  /// stall *severity*, where producer_stalls only counts events.
  std::uint64_t stall_wait_ns = 0;
  /// Items dropped by the adaptive sampler (overload_sampling mode). Every
  /// ingested item is either consumed by a worker or sampled out:
  /// items_ingested == items_consumed + items_sampled_out at quiescence.
  count_t items_sampled_out = 0;
  /// The sampler's current admission probability (1.0 = exact counting,
  /// also reported when overload_sampling is off). The merged reports'
  /// effective_sample_rate is the per-window average of this.
  double sample_rate = 1.0;
  /// Staged batches whose buffer came from the worker→producer freelist
  /// instead of a fresh allocation. In steady state this tracks
  /// batches_pushed 1:1 — the per-staged-batch malloc is off the ingest
  /// critical path.
  std::uint64_t buffers_recycled = 0;
  std::uint64_t epoch = 0;            ///< currently open epoch
  std::uint64_t windows_retired = 0;  ///< rotated, not yet collected
  /// Shard groups in use (1 on single-node hosts without the env override).
  std::size_t groups = 1;
  /// Per-group ring-occupancy high-water mark (batches), indexed by group:
  /// the worst backlog any of the group's shards ever showed at push time.
  /// A group persistently hotter than its peers means the routing hash is
  /// fine but the node is slow (or oversubscribed).
  std::vector<std::uint64_t> group_ring_hwm;
};

/// Sharded ingestion front-end for Monitor. Not itself a mergeable summary
/// (it is a pipeline), but everything it owns — including every rotated
/// window it hands out — is.
class ShardedMonitor {
 public:
  ShardedMonitor(const MonitorConfig& config, std::uint64_t seed,
                 ShardedMonitorOptions options = {});

  /// Drains staged and in-flight batches, then joins the workers. Checks
  /// (loudly) that every item Ingest() accounted was consumed, so the
  /// historical silently-dropped-staged-batches bug cannot regress.
  ~ShardedMonitor();

  ShardedMonitor(const ShardedMonitor&) = delete;
  ShardedMonitor& operator=(const ShardedMonitor&) = delete;

  /// Feeds `n` contiguous elements of the sampled stream into the open
  /// epoch. Items are staged per shard and shipped in batches; returns as
  /// soon as the input is staged or enqueued (workers consume
  /// concurrently).
  void Ingest(const item_t* data, std::size_t n);

  /// Convenience overload for materialized streams.
  void Ingest(const Stream& stream) { Ingest(stream.data(), stream.size()); }

  /// Closes the open epoch and opens the next, without stalling ingest: no
  /// worker join, no thread respawn, no drain. The closed window becomes
  /// collectable via CollectWindow() once the workers pass the epoch
  /// boundary (CollectWindow waits for that). Cost: one flush plus one
  /// empty marker push per shard.
  void Rotate();

  /// The currently open epoch (starts at 0, +1 per Rotate()).
  std::uint64_t CurrentEpoch() const { return epoch_; }

  /// Merged monitor of rotated epoch `e`: flushes + drains so every shard
  /// has retired `e`, then folds the per-shard windows in shard order.
  /// Each window is extracted exactly once: a second call for the same
  /// epoch returns std::nullopt, as does an epoch discarded by Reset().
  /// Aborts if `e` is the still-open epoch.
  std::optional<Monitor> CollectWindow(std::uint64_t epoch);

  /// Consolidated report of the OPEN epoch's data so far. Repeatable:
  /// flushes + drains, folds a snapshot of the shard monitors into
  /// reusable scratch space in shard order and reports;
  /// the pipeline keeps ingesting afterwards (rotated-but-uncollected
  /// windows are not included — collect those).
  MonitorReport Report();

  /// Drains, clears every shard monitor and all uncollected retired
  /// windows, and zeroes the item/stall accounting. Epoch numbering
  /// continues from the current epoch (the workers' epoch cursors live on
  /// their threads); the pipeline is otherwise as fresh as constructed.
  ///
  /// Stats() after Reset(): items_ingested/items_consumed/producer_stalls/
  /// buffers_recycled/windows_retired read 0; batches_pushed/
  /// batches_consumed/epoch are lifetime cursors and continue (see
  /// ShardedMonitorStats). Process-wide obs registry counters continue too.
  void Reset();

  /// Flushes staged batches and waits (bounded backoff) until the workers
  /// have consumed everything pushed so far. After Drain() the shard
  /// monitors are quiescent until the next Ingest/Rotate.
  void Drain();

  /// Observability snapshot; cheap enough for per-batch polling.
  ShardedMonitorStats Stats() const;

  /// Shard an item the same way the pipeline does (exposed so tests and
  /// external partitioners can reproduce the routing). Depends only on the
  /// shard count — group layout never changes routing.
  static std::size_t ShardOf(item_t item, std::size_t shards);

  /// Routing from an already-computed prehash (what Ingest uses per item).
  static std::size_t ShardOfPrehash(std::uint64_t prehash,
                                    std::size_t shards);

  /// The resolved per-shard monitor configuration. When the constructor
  /// config carried a plan::PlanSpec it has been compiled to explicit
  /// geometry here (plan cleared) — hand this to WindowedMonitor or a peer
  /// pipeline to guarantee merge compatibility.
  const MonitorConfig& config() const { return config_; }

  std::size_t shards() const { return options_.shards; }
  /// Shard groups in use: one per detected node (util/numa.h), at most one
  /// per shard.
  std::size_t groups() const { return group_cpus_.size(); }
  /// The node topology the group layout was derived from.
  const numa::Topology& topology() const { return topology_; }
  count_t ItemsIngested() const { return items_ingested_; }

  /// Total memory across all shard monitors, open and retired (ring
  /// buffers excluded). Race-free under concurrent ingest: open-window
  /// sizes come from per-shard counters the workers publish after each
  /// batch (never from walking a Monitor a worker is mutating), retired
  /// windows are read under their mailbox lock.
  std::size_t SpaceBytes() const;

 private:
  /// A pair of parallel columns — the unit the freelist recycles. Both
  /// vectors always have equal length; index i holds one logical
  /// PrehashedItem split across them.
  struct ColumnBuffer {
    std::vector<std::uint64_t> items;
    std::vector<std::uint64_t> hashes;

    std::size_t size() const { return items.size(); }
    void clear() {
      items.clear();
      hashes.clear();
    }
  };

  /// One ring entry: an epoch tag plus an item/hash column pair. Empty
  /// columns are an epoch marker (Rotate's in-band rotation signal). Every
  /// element of a batch carries the same sampled-ingest weight (the
  /// producer ships all staged batches before changing the rate), so one
  /// field covers the whole column pair.
  struct Batch {
    std::uint64_t epoch = 0;
    count_t weight = 1;
    ColumnBuffer cols;
  };

  /// Bounded SPSC ring. Index monotonicity: head_ is advanced only by the
  /// pushing thread, tail_ only by the popping thread; slot (index & mask)
  /// is owned by the pusher when index - tail_ < capacity and by the popper
  /// when tail_ < head_. On a failed TryPush the value is NOT consumed (the
  /// move into the slot happens only on success), so callers may retry with
  /// the same object.
  ///
  /// Used in both directions: producer→worker for epoch-tagged batches, and
  /// worker→producer for drained column buffers flowing back to the staging
  /// freelist (so steady-state ingest never mallocs a batch buffer).
  template <typename T>
  class SpscRing {
   public:
    explicit SpscRing(std::size_t capacity_pow2)
        : slots_(capacity_pow2), mask_(capacity_pow2 - 1) {}

    bool TryPush(T&& value) {
      const std::size_t head = head_.load(std::memory_order_relaxed);
      const std::size_t tail = tail_.load(std::memory_order_acquire);
      if (head - tail > mask_) return false;  // full
      slots_[head & mask_] = std::move(value);
      head_.store(head + 1, std::memory_order_release);
      return true;
    }

    bool TryPop(T* out) {
      const std::size_t tail = tail_.load(std::memory_order_relaxed);
      const std::size_t head = head_.load(std::memory_order_acquire);
      if (tail == head) return false;  // empty
      *out = std::move(slots_[tail & mask_]);
      tail_.store(tail + 1, std::memory_order_release);
      return true;
    }

    /// Approximate occupancy for telemetry. Called from the pushing thread
    /// (head_ cannot move underneath it); the popper may advance tail_
    /// concurrently, which only shrinks the result — never below zero,
    /// since tail_ trails head_ by construction.
    std::size_t SizeApprox() const {
      const std::size_t head = head_.load(std::memory_order_relaxed);
      const std::size_t tail = tail_.load(std::memory_order_relaxed);
      return tail <= head ? head - tail : 0;
    }

   private:
    std::vector<T> slots_;
    std::size_t mask_;
    alignas(64) std::atomic<std::size_t> head_{0};  // next write index
    alignas(64) std::atomic<std::size_t> tail_{0};  // next read index
  };

  using BatchRing = SpscRing<Batch>;
  using BufferRing = SpscRing<ColumnBuffer>;

  /// Per-shard cross-thread state. The atomics are the worker's published
  /// progress (consumed counters double as the Drain quiescence barrier:
  /// batches_consumed is released after the monitor mutation, so a
  /// producer that acquire-reads it equal to its push count may touch the
  /// shard monitor safely). The mailbox holds rotated windows until
  /// CollectWindow extracts them.
  struct ShardSync {
    alignas(64) std::atomic<std::uint64_t> batches_consumed{0};
    std::atomic<count_t> items_consumed{0};
    std::atomic<std::size_t> space_bytes{0};
    std::mutex retired_mu;
    std::vector<std::pair<std::uint64_t, Monitor>> retired;
  };

  void WorkerLoop(std::size_t shard);
  /// Ships staged_[shard] (if non-empty) under the current epoch and
  /// sampled-ingest weight, then restages. Never adapts the sampler —
  /// Rotate/Drain and the sampler's own ship-before-reweight use this.
  void ShipStaged(std::size_t shard);
  /// ShipStaged plus one sampler adaptation step (the Ingest-path flush).
  void FlushStaged(std::size_t shard);
  /// One adaptation step: feeds the just-pushed shard's ring occupancy and
  /// the producer-stall delta to the SampleController; on a rate change,
  /// ships every shard's staged batch under the old weight first (a batch
  /// carries a single weight).
  void MaybeAdaptSampler(std::size_t shard);
  /// Refills staged_[shard] after a flush: a recycled column pair from the
  /// shard's freelist when one is waiting, a fresh allocation otherwise.
  void RefillStaged(std::size_t shard);
  /// Pushes with bounded exponential backoff; counts a producer stall when
  /// the ring is full on first attempt.
  void PushBatch(std::size_t shard, Batch&& batch);
  Monitor& ScratchReset();

  MonitorConfig config_;
  std::uint64_t seed_;
  ShardedMonitorOptions options_;
  numa::Topology topology_;
  /// CPU set each group's workers pin to, one entry per group.
  std::vector<std::vector<int>> group_cpus_;
  std::vector<std::size_t> shard_group_;  ///< shard -> owning group
  /// Shard monitors and rings live behind pointers the OWNING WORKER
  /// populates on its thread (after pinning) — the first-touch step. The
  /// constructor blocks on ready_workers_ before returning, so every
  /// producer-side access happens strictly after the release-stores below.
  std::vector<std::unique_ptr<Monitor>> monitors_;
  std::vector<std::unique_ptr<BatchRing>> rings_;
  /// Worker→producer freelist, one per shard (keeps every ring SPSC): the
  /// worker pushes a consumed batch's cleared columns, the producer pops
  /// them when restaging. Either side may find the ring full/empty and fall
  /// back (drop the buffer / malloc a fresh one) — recycling is
  /// opportunistic, never blocking.
  std::vector<std::unique_ptr<BufferRing>> free_rings_;
  std::vector<std::unique_ptr<ShardSync>> sync_;
  std::vector<ColumnBuffer> staged_;           // producer-side, per shard
  std::vector<std::uint64_t> batches_pushed_;  // producer-side, per shard
  std::vector<std::uint64_t> group_ring_hwm_;  // producer-side, per group
  /// Registry gauges mirroring group_ring_hwm_ (name-keyed
  /// substream_sharded_group<g>_ring_occupancy_hwm), resolved once at
  /// construction so the push path never composes strings.
  std::vector<obs::Gauge*> group_hwm_gauges_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> ready_workers_{0};  // first-touch handshake
  std::atomic<bool> done_{false};
  std::uint64_t epoch_ = 0;             // open epoch (producer-side)
  std::uint64_t producer_stalls_ = 0;   // ring-full flush events
  std::uint64_t stall_wait_ns_ = 0;     // cumulative ring-full block time
  std::uint64_t buffers_recycled_ = 0;  // staged buffers reused via freelist
  count_t items_ingested_ = 0;
  count_t items_sampled_out_ = 0;  // dropped by the adaptive sampler
  /// Adaptive sampler (producer-side; armed iff config_.overload_sampling).
  std::optional<SampleController> sampler_;
  /// Weight the currently staged items were admitted under; ships with
  /// their batches and only changes after every staged batch is pushed.
  count_t staged_weight_ = 1;
  /// producer_stalls_ at the sampler's previous observation (delta source).
  std::uint64_t sampler_last_stalls_ = 0;
  std::optional<Monitor> scratch_;  // Report() fold workspace
};

}  // namespace substream

#endif  // SUBSTREAM_CORE_SHARDED_MONITOR_H_
