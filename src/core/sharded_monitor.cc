#include "core/sharded_monitor.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "plan/compiler.h"
#include "util/hash.h"

namespace substream {

namespace {

/// Registry handles for the pipeline, resolved once per process. All sites
/// are batch-granular (per flushed batch, per rotation, per report) — the
/// per-item staging loop is untouched.
struct PipelineMetrics {
  obs::Histogram& batch_consume_ns;
  obs::Histogram& rotate_ns;
  obs::Gauge& ring_occupancy_hwm;
  obs::Gauge& groups;
  obs::Counter& producer_stalls;
  obs::Counter& buffers_recycled;
  obs::Counter& batches_consumed;
  obs::Counter& items_consumed;
  obs::Gauge& sampled_rate_ppm;
  obs::Counter& sampled_items_skipped;
  obs::Counter& stall_wait_ns;

  static PipelineMetrics& Get() {
    static PipelineMetrics metrics{
        obs::MetricsRegistry::Global().GetHistogram(
            "substream_sharded_batch_consume_duration_ns",
            "Wall time a worker spends applying one batch to its shard "
            "monitor"),
        obs::MetricsRegistry::Global().GetHistogram(
            "substream_sharded_rotate_duration_ns",
            "Producer-side cost of Rotate(): closing-epoch flush plus one "
            "marker push per shard"),
        obs::MetricsRegistry::Global().GetGauge(
            "substream_sharded_ring_occupancy_hwm",
            "High-water mark of per-shard ring occupancy (batches) observed "
            "at push time"),
        obs::MetricsRegistry::Global().GetGauge(
            "substream_sharded_groups",
            "Shard groups in use by the most recently constructed pipeline "
            "(1 on single-node hosts without SKETCH_FORCE_NUMA_GROUPS)"),
        obs::MetricsRegistry::Global().GetCounter(
            "substream_sharded_producer_stalls_total",
            "Flushes that found a ring full and backed off"),
        obs::MetricsRegistry::Global().GetCounter(
            "substream_sharded_buffers_recycled_total",
            "Staged batch column buffers reused from the worker freelist"),
        obs::MetricsRegistry::Global().GetCounter(
            "substream_sharded_batches_consumed_total",
            "Batches applied to shard monitors by workers"),
        obs::MetricsRegistry::Global().GetCounter(
            "substream_sharded_items_consumed_total",
            "Items applied to shard monitors by workers"),
        obs::MetricsRegistry::Global().GetGauge(
            "substream_sampled_rate",
            "Adaptive sampled-ingest admission probability in parts per "
            "million (1000000 = exact counting)"),
        obs::MetricsRegistry::Global().GetCounter(
            "substream_sampled_items_skipped_total",
            "Items dropped by the adaptive sampler under overload"),
        obs::MetricsRegistry::Global().GetCounter(
            "substream_sharded_stall_wait_ns_total",
            "Nanoseconds the producer spent blocked on full rings"),
    };
    return metrics;
  }
};

/// Salt for the shard-routing hash, so routing is independent of every
/// sketch hash (which are all derived through DeriveSeed chains).
constexpr std::uint64_t kShardSalt = 0x5ca1ab1e0ddba11ULL;

std::size_t RoundUpPow2(std::size_t x) {
  std::size_t pow2 = 1;
  while (pow2 < x) pow2 <<= 1;
  return pow2;
}

/// Bounded exponential backoff for spin-wait loops: a burst of yields for
/// the short waits, then sleeps doubling from 1us up to 1024us so a
/// saturated pipeline burns bounded CPU instead of spinning forever.
void BackoffPause(std::size_t* spins) {
  constexpr std::size_t kYields = 64;
  constexpr std::size_t kMaxSleepShift = 10;  // 2^10 us ~ 1ms
  if (*spins < kYields) {
    std::this_thread::yield();
  } else {
    const std::size_t shift =
        std::min<std::size_t>(*spins - kYields, kMaxSleepShift);
    std::this_thread::sleep_for(std::chrono::microseconds(1ULL << shift));
  }
  ++*spins;
}

}  // namespace

ShardedMonitor::ShardedMonitor(const MonitorConfig& config, std::uint64_t seed,
                               ShardedMonitorOptions options)
    // Resolve any accuracy-budget plan ONCE, here: every shard monitor, the
    // merge scratch and every retired window are then built from the same
    // explicit geometry, so one {budget, targets} tuple configures the whole
    // fleet (and SolvePlan never runs on the per-worker construction path).
    : config_(plan::ResolveMonitorConfig(config)), seed_(seed),
      options_(options) {
  SUBSTREAM_CHECK_MSG(options.shards >= 1, "ShardedMonitor needs >= 1 shard");
  SUBSTREAM_CHECK(options.ring_capacity >= 1);
  SUBSTREAM_CHECK(options.batch_items >= 1);
  options_.ring_capacity = RoundUpPow2(options.ring_capacity);
  if (config_.overload_sampling) {
    // The sampler's RNG seed derives from the pipeline seed on its own
    // stream (sketch seeds use DeriveSeed(seed, 1..4) via Monitor), so
    // admission decisions are decorrelated from every hash in the fleet.
    sampler_.emplace(options_.overload, DeriveSeed(seed, 0x0ad));
    sampler_last_stalls_ = producer_stalls_;
  }
  PipelineMetrics::Get().sampled_rate_ppm.Set(1000000);

  const std::size_t shards = options.shards;
  topology_ = numa::DetectTopology();
  const std::size_t groups = std::min(topology_.groups(), shards);

  // Contiguous balanced shard ranges per group: group g owns
  // [g*S/G, (g+1)*S/G).
  shard_group_.resize(shards);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t s = g * shards / groups; s < (g + 1) * shards / groups;
         ++s) {
      shard_group_[s] = g;
    }
  }
  group_cpus_.assign(topology_.cpus.begin(), topology_.cpus.begin() + groups);
  group_hwm_gauges_.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    group_hwm_gauges_.push_back(&obs::MetricsRegistry::Global().GetGauge(
        "substream_sharded_group" + std::to_string(g) + "_ring_occupancy_hwm",
        "High-water mark of ring occupancy (batches) across the group's "
        "shards"));
  }
  group_ring_hwm_.assign(groups, 0);
  PipelineMetrics::Get().groups.Set(static_cast<std::int64_t>(groups));

  // The worker-owned pieces (monitor + both rings) start empty: each worker
  // allocates its own on its thread after pinning, so the first touch of
  // those pages happens on the consuming node.
  monitors_.resize(shards);
  rings_.resize(shards);
  free_rings_.resize(shards);
  sync_.reserve(shards);
  staged_.resize(shards);
  batches_pushed_.assign(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    sync_.push_back(std::make_unique<ShardSync>());
    staged_[s].items.reserve(options_.batch_items);
    staged_[s].hashes.reserve(options_.batch_items);
  }
  workers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
  // Handshake: every producer-side touch of rings_/monitors_ happens after
  // this acquire observes the workers' release-increments, which publish
  // the pointer stores above it.
  std::size_t spins = 0;
  while (ready_workers_.load(std::memory_order_acquire) < shards) {
    BackoffPause(&spins);
  }
}

ShardedMonitor::~ShardedMonitor() {
  // Ship and consume everything staged before stopping: the seed version
  // set done_ with staged batches still in hand, so a pipeline destroyed
  // without Report() silently dropped them while ItemsIngested() claimed
  // otherwise.
  Drain();
  done_.store(true, std::memory_order_release);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  count_t consumed = 0;
  for (const auto& sync : sync_) {
    consumed += sync->items_consumed.load(std::memory_order_relaxed);
  }
  // Every ingested item is either applied by a worker or (accountably)
  // dropped by the adaptive sampler — nothing may vanish silently.
  SUBSTREAM_CHECK_MSG(consumed + items_sampled_out_ == items_ingested_,
                      "ShardedMonitor destroyed with %llu of %llu ingested "
                      "items unconsumed",
                      static_cast<unsigned long long>(items_ingested_ -
                                                      items_sampled_out_ -
                                                      consumed),
                      static_cast<unsigned long long>(items_ingested_));
}

std::size_t ShardedMonitor::ShardOfPrehash(std::uint64_t prehash,
                                           std::size_t shards) {
  // A salted remix keeps routing decorrelated from every sketch's bucket
  // derivations (which remix the same prehash with DeriveSeed chains);
  // fast-range replaces the historical `%`.
  return shards <= 1
             ? 0
             : static_cast<std::size_t>(
                   FastRange64(RemixHash(prehash, kShardSalt), shards));
}

std::size_t ShardedMonitor::ShardOf(item_t item, std::size_t shards) {
  return ShardOfPrehash(PreHash(item), shards);
}

void ShardedMonitor::WorkerLoop(std::size_t shard) {
  if (options_.pin_workers) {
    // Best-effort: a refused affinity call leaves the worker where the
    // scheduler put it (and first-touch below still lands somewhere valid).
    numa::PinThreadToCpus(group_cpus_[shard_group_[shard]]);
  }
  // First-touch: the shard's monitor (every CounterTable level inside it)
  // and both rings are constructed HERE, after pinning, so their pages are
  // faulted in on this worker's node.
  monitors_[shard] = std::make_unique<Monitor>(config_, seed_);
  rings_[shard] = std::make_unique<BatchRing>(options_.ring_capacity);
  free_rings_[shard] = std::make_unique<BufferRing>(options_.ring_capacity);
  ShardSync& sync = *sync_[shard];
  sync.space_bytes.store(monitors_[shard]->SpaceBytes(),
                         std::memory_order_relaxed);
  // Release publishes the three pointer stores; the constructor's acquire
  // loop pairs with it before any producer-side access.
  ready_workers_.fetch_add(1, std::memory_order_release);

  Monitor* monitor = monitors_[shard].get();
  BatchRing& ring = *rings_[shard];
  std::uint64_t worker_epoch = 0;
  Batch batch;
  std::size_t idle_spins = 0;

  while (true) {
    if (ring.TryPop(&batch)) {
      idle_spins = 0;
      if (batch.epoch != worker_epoch) {
        // Epoch boundary (Rotate's marker, or the first data batch of the
        // new epoch): retire the closed window into the mailbox and swap
        // onto a fresh same-seeded Monitor. The allocation happens HERE,
        // on the worker — rotation never blocks the producer on it (and
        // the replacement window is first-touched on this node too).
        // Ordering: publish the fresh footprint BEFORE the mailbox insert,
        // so a concurrent SpaceBytes() momentarily undercounts the shard
        // (retiring window in neither place) rather than double-counting
        // it (stale counter + mailbox walk).
        Monitor closed = std::move(*monitor);
        *monitor = Monitor(config_, seed_);
        sync.space_bytes.store(monitor->SpaceBytes(),
                               std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(sync.retired_mu);
          sync.retired.emplace_back(worker_epoch, std::move(closed));
        }
        worker_epoch = batch.epoch;
      }
      const std::size_t consumed_items = batch.cols.size();
      if (consumed_items != 0) {
        if (options_.throttle_consumer_ns != 0) {
          // Chaos knob: simulate a slow consumer (see options doc).
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(options_.throttle_consumer_ns));
        }
        const std::uint64_t start_ns = obs::NowNs();
        const PrehashedColumns cols{batch.cols.items.data(),
                                    batch.cols.hashes.data()};
        monitor->UpdatePrehashed(cols, consumed_items, batch.weight);
        PipelineMetrics& metrics = PipelineMetrics::Get();
        metrics.batch_consume_ns.Observe(obs::NowNs() - start_ns);
        metrics.batches_consumed.Inc();
        metrics.items_consumed.Inc(consumed_items);
      }
      if (consumed_items != 0) {
        // Hand the drained column pair (capacities intact) back to the
        // producer's staging freelist. Opportunistic: a full freelist just
        // means the buffers deallocate here instead, off the ingest
        // critical path.
        batch.cols.clear();
        free_rings_[shard]->TryPush(std::move(batch.cols));
        batch.cols = ColumnBuffer();
      }
      sync.items_consumed.fetch_add(consumed_items,
                                    std::memory_order_relaxed);
      sync.space_bytes.store(monitor->SpaceBytes(), std::memory_order_relaxed);
      // Published LAST, with release: a producer that observes this count
      // has a happens-before edge to every monitor mutation above (the
      // Drain quiescence barrier Report/Collect/Reset rely on).
      sync.batches_consumed.fetch_add(1, std::memory_order_release);
      continue;
    }
    // done_ is set only after the destructor's Drain(), so an empty ring
    // here is final.
    if (done_.load(std::memory_order_acquire)) break;
    BackoffPause(&idle_spins);
  }
}

void ShardedMonitor::PushBatch(std::size_t shard, Batch&& batch) {
  if (!rings_[shard]->TryPush(std::move(batch))) {
    // Ring full: the saturation case. Count it once per blocked push, time
    // the whole block (stall severity, not just the event), and back off
    // until the worker frees a slot.
    ++producer_stalls_;
    PipelineMetrics::Get().producer_stalls.Inc();
    // Stats().stall_wait_ns is pipeline accounting, not telemetry: read the
    // clock directly (obs::NowNs reads 0 with telemetry compiled out).
    const auto start = std::chrono::steady_clock::now();
    std::size_t spins = 0;
    do {
      BackoffPause(&spins);
    } while (!rings_[shard]->TryPush(std::move(batch)));
    const auto waited_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    stall_wait_ns_ += waited_ns;
    PipelineMetrics::Get().stall_wait_ns.Inc(waited_ns);
  }
  ++batches_pushed_[shard];
  // Occupancy immediately after a successful push is this shard's depth
  // backlog; the process-wide gauge keeps the worst ever seen, the group
  // gauge the worst across the group's shards (a persistently hot group is
  // a slow or oversubscribed node, not a routing skew).
  const std::size_t occupancy = rings_[shard]->SizeApprox();
  PipelineMetrics::Get().ring_occupancy_hwm.SetMax(
      static_cast<std::int64_t>(occupancy));
  const std::size_t group = shard_group_[shard];
  if (occupancy > group_ring_hwm_[group]) {
    group_ring_hwm_[group] = occupancy;
    group_hwm_gauges_[group]->SetMax(static_cast<std::int64_t>(occupancy));
  }
}

void ShardedMonitor::RefillStaged(std::size_t shard) {
  // Prefer a column pair the shard's worker already drained: its capacity
  // was grown by a previous staging round, so the steady-state flush cycle
  // does no allocation at all.
  ColumnBuffer recycled;
  if (free_rings_[shard]->TryPop(&recycled)) {
    ++buffers_recycled_;
    PipelineMetrics::Get().buffers_recycled.Inc();
    staged_[shard] = std::move(recycled);
  } else {
    staged_[shard] = ColumnBuffer();
    staged_[shard].items.reserve(options_.batch_items);
    staged_[shard].hashes.reserve(options_.batch_items);
  }
}

void ShardedMonitor::ShipStaged(std::size_t shard) {
  if (staged_[shard].size() == 0) return;
  Batch batch;
  batch.epoch = epoch_;
  batch.weight = staged_weight_;
  batch.cols = std::move(staged_[shard]);
  RefillStaged(shard);
  PushBatch(shard, std::move(batch));
}

void ShardedMonitor::FlushStaged(std::size_t shard) {
  ShipStaged(shard);
  // Batch granularity is the adaptation cadence: occupancy right after the
  // push is the freshest backpressure signal, and reacting here (not per
  // item) keeps the sampler entirely off the staging hot loop.
  MaybeAdaptSampler(shard);
}

void ShardedMonitor::MaybeAdaptSampler(std::size_t shard) {
  if (!sampler_) return;
  const double occupancy = static_cast<double>(rings_[shard]->SizeApprox()) /
                           static_cast<double>(options_.ring_capacity);
  const std::uint64_t stall_delta = producer_stalls_ - sampler_last_stalls_;
  sampler_last_stalls_ = producer_stalls_;
  if (!sampler_->Observe(occupancy, stall_delta)) return;
  // The rate changed. Everything currently staged (all shards) was admitted
  // at the old rate — ship it under the old weight before adopting the new
  // one, so a batch never mixes weights.
  for (std::size_t s = 0; s < options_.shards; ++s) ShipStaged(s);
  staged_weight_ = sampler_->weight();
  PipelineMetrics::Get().sampled_rate_ppm.Set(
      static_cast<std::int64_t>(sampler_->rate() * 1e6));
}

void ShardedMonitor::Ingest(const item_t* data, std::size_t n) {
  items_ingested_ += n;
  const std::size_t shards = options_.shards;
  SampleController* sampler = sampler_ ? &*sampler_ : nullptr;
  count_t skipped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Admission first: a skipped item pays one branch and a skip-counter
    // decrement — no hash, no staging, no ring traffic. That is what keeps
    // the producer at line rate under overload.
    if (sampler && !sampler->Admit()) {
      ++skipped;
      continue;
    }
    // One strong hash here pays for routing now and every sketch's bucket
    // derivations on the worker side. Item and hash are staged as two
    // parallel columns — the layout the worker-side SIMD kernels load with
    // unit stride.
    const std::uint64_t hash = PreHash(data[i]);
    const std::size_t s = ShardOfPrehash(hash, shards);
    staged_[s].items.push_back(data[i]);
    staged_[s].hashes.push_back(hash);
    if (staged_[s].size() >= options_.batch_items) FlushStaged(s);
  }
  if (skipped != 0) {
    items_sampled_out_ += skipped;
    PipelineMetrics::Get().sampled_items_skipped.Inc(skipped);
  }
}

void ShardedMonitor::Rotate() {
  obs::ScopedTimer timer(PipelineMetrics::Get().rotate_ns);
  // Staged items belong to the closing epoch: ship them under its tag (and
  // the weight they were admitted at).
  for (std::size_t s = 0; s < options_.shards; ++s) ShipStaged(s);
  ++epoch_;
  // One empty marker per shard carries the new epoch through the rings —
  // the in-band rotation signal. Workers retire their closed windows when
  // they reach it; the producer returns immediately (no join, no drain).
  for (std::size_t s = 0; s < options_.shards; ++s) {
    Batch marker;
    marker.epoch = epoch_;
    PushBatch(s, std::move(marker));
  }
}

void ShardedMonitor::Drain() {
  for (std::size_t s = 0; s < options_.shards; ++s) ShipStaged(s);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    const std::uint64_t target = batches_pushed_[s];
    std::size_t spins = 0;
    while (sync_[s]->batches_consumed.load(std::memory_order_acquire) <
           target) {
      BackoffPause(&spins);
    }
  }
}

Monitor& ShardedMonitor::ScratchReset() {
  if (!scratch_) {
    scratch_.emplace(config_, seed_);
  } else {
    scratch_->Reset();
  }
  return *scratch_;
}

MonitorReport ShardedMonitor::Report() {
  // Quiesce, then fold a snapshot in shard order: the shard monitors
  // themselves are left untouched, which is what makes Report repeatable
  // and non-terminal.
  Drain();
  Monitor& scratch = ScratchReset();
  for (const auto& monitor : monitors_) scratch.Merge(*monitor);
  return scratch.Report();
}

std::optional<Monitor> ShardedMonitor::CollectWindow(std::uint64_t epoch) {
  SUBSTREAM_CHECK_MSG(epoch < epoch_,
                      "CollectWindow(%llu): epoch still open, Rotate() first",
                      static_cast<unsigned long long>(epoch));
  // After the drain every worker has consumed the rotation marker(s), so
  // each shard's mailbox holds exactly one window per rotated epoch that
  // was not already collected or Reset away.
  Drain();
  // All-or-nothing: verify presence in every shard before extracting, so a
  // double collection cannot half-consume the mailboxes.
  for (const auto& sync : sync_) {
    std::lock_guard<std::mutex> lock(sync->retired_mu);
    const bool found =
        std::any_of(sync->retired.begin(), sync->retired.end(),
                    [&](const auto& entry) { return entry.first == epoch; });
    if (!found) return std::nullopt;
  }
  // Extract and fold the windows in shard order, using the first window
  // as the accumulator (no scratch copy — the extracted windows are
  // consumed anyway).
  std::optional<Monitor> merged;
  for (const auto& sync : sync_) {
    std::lock_guard<std::mutex> lock(sync->retired_mu);
    auto it = std::find_if(
        sync->retired.begin(), sync->retired.end(),
        [&](const auto& entry) { return entry.first == epoch; });
    if (!merged) {
      merged.emplace(std::move(it->second));
    } else {
      merged->Merge(it->second);
    }
    sync->retired.erase(it);
  }
  return merged;
}

void ShardedMonitor::Reset() {
  Drain();
  for (std::size_t s = 0; s < options_.shards; ++s) {
    // Post-drain the workers are idle and will touch their monitors again
    // only after the next ring push, which carries the needed
    // happens-before edge (release on head_, acquire in TryPop).
    monitors_[s]->Reset();
    sync_[s]->space_bytes.store(monitors_[s]->SpaceBytes(),
                                std::memory_order_relaxed);
    sync_[s]->items_consumed.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(sync_[s]->retired_mu);
      sync_[s]->retired.clear();
    }
  }
  items_ingested_ = 0;
  producer_stalls_ = 0;
  stall_wait_ns_ = 0;
  buffers_recycled_ = 0;
  items_sampled_out_ = 0;
  if (sampler_) {
    // Back to exact counting with the data the rate history described.
    sampler_->Reset();
    staged_weight_ = 1;
    sampler_last_stalls_ = producer_stalls_;
    PipelineMetrics::Get().sampled_rate_ppm.Set(1000000);
  }
}

ShardedMonitorStats ShardedMonitor::Stats() const {
  ShardedMonitorStats stats;
  stats.items_ingested = items_ingested_;
  stats.epoch = epoch_;
  stats.producer_stalls = producer_stalls_;
  stats.stall_wait_ns = stall_wait_ns_;
  stats.buffers_recycled = buffers_recycled_;
  stats.items_sampled_out = items_sampled_out_;
  stats.sample_rate = sampler_ ? sampler_->rate() : 1.0;
  stats.groups = groups();
  stats.group_ring_hwm = group_ring_hwm_;
  for (std::size_t s = 0; s < options_.shards; ++s) {
    stats.items_consumed +=
        sync_[s]->items_consumed.load(std::memory_order_relaxed);
    stats.batches_consumed +=
        sync_[s]->batches_consumed.load(std::memory_order_relaxed);
    stats.batches_pushed += batches_pushed_[s];
    std::lock_guard<std::mutex> lock(sync_[s]->retired_mu);
    stats.windows_retired += sync_[s]->retired.size();
  }
  return stats;
}

std::size_t ShardedMonitor::SpaceBytes() const {
  std::size_t bytes = 0;
  for (std::size_t s = 0; s < options_.shards; ++s) {
    // Workers publish their monitor's footprint after every batch; reading
    // the counter (instead of walking a Monitor under mutation) is what
    // makes this safe during ingest. Read the mailbox BEFORE the counter:
    // the worker publishes the fresh footprint before inserting a retiring
    // window, so this order can transiently undercount a rotating shard
    // but never count the same window in both places.
    {
      std::lock_guard<std::mutex> lock(sync_[s]->retired_mu);
      for (const auto& [epoch, monitor] : sync_[s]->retired) {
        bytes += monitor.SpaceBytes();
      }
    }
    bytes += sync_[s]->space_bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

}  // namespace substream
