#ifndef SUBSTREAM_CORE_MONITOR_H_
#define SUBSTREAM_CORE_MONITOR_H_

#include <optional>
#include <string>
#include <vector>

#include "core/entropy_estimator.h"
#include "core/f0_estimator.h"
#include "core/heavy_hitters.h"
#include "obs/health.h"
#include "plan/plan.h"
#include "sketch/countsketch.h"
#include "util/common.h"

/// \file monitor.h
/// One-stop monitor over a sub-sampled stream: the deployment-shaped facade
/// over the paper's four estimator families. A Monitor is what a sampled-
/// NetFlow collector would instantiate per measurement window: configure the
/// sampling rate once, feed the sampled elements, read a consolidated
/// report about the *original* stream.
///
/// F2 rides one CountSketch on L. For l = 2, Algorithm 1 needs only the
/// collision count C_2(L) = (F2(L) - F1(L)) / 2, so the sketch's row-norm
/// F2(L) estimate supplies it exactly as Eq. (1) expects; the Indyk–Woodruff
/// level sets (FkEstimator) are needed only for the moments k >= 3.
///
/// Monitor itself satisfies the mergeable-summary contract (sketch/sketch.h):
/// two monitors constructed with the same MonitorConfig and seed can be fed
/// disjoint portions of the sampled stream — on different routers, threads
/// or processes — and merged with Merge(); the merged monitor reports on the
/// concatenation. ShardedMonitor (core/sharded_monitor.h) builds a
/// multi-core ingestion pipeline directly on this property.
///
/// ## The two-stage columnar ingest pipeline
///
/// Ingest runs in two stages. Stage 1 (prehash): each item is hashed ONCE
/// with the strong shared PreHash (util/hash.h) — UpdateBatch() fills a
/// stack-resident hash column per chunk alongside the caller's item array,
/// Update() prehashes the single item. Stage 2 (fan-out): the item and
/// hash columns (PrehashedColumns) are fanned to every enabled estimator
/// through its one batched entry point, UpdatePrehashed(); counter-array
/// sketches derive each row's bucket with a cheap seeded remix +
/// fast-range instead of re-hashing, and walk their flat counter tables
/// row-major and cache-blocked. All three entry points (Update /
/// UpdateBatch / UpdatePrehashed) produce bit-identical monitor state.

namespace substream {

/// Which statistics the monitor maintains (all on by default). Disabling
/// unused statistics saves their space and per-update work.
struct MonitorConfig {
  /// Sampling probability of the observed stream (required, (0, 1]).
  double p = 1.0;
  /// Universe size hint. It sizes nothing inside the Monitor; it stays
  /// because the wire header carries it and the planner's F0 fallback
  /// (an unhinted plan's distinct-count guess) reads it.
  item_t universe = 1 << 20;
  /// Original stream length hint, if known (entropy threshold; 0 = infer).
  double n_hint = 0.0;

  bool enable_f0 = true;
  bool enable_f2 = true;
  bool enable_entropy = true;
  bool enable_heavy_hitters = true;

  /// Overload-graceful sampled ingest (NitroSketch mode, core/overload.h).
  /// When true, ShardedMonitor arms an adaptive SampleController: under
  /// ring backpressure it admits elements with probability 2^-L and feeds
  /// survivors through the weighted update chain with the unbiased 2^L
  /// correction, converging back to exact counting when pressure drops.
  /// Off by default: nothing changes anywhere until a deployment opts in.
  /// This is an ingest-side *policy*, not geometry: it does not affect
  /// merge compatibility (MonitorConfigsEqual ignores it), is not
  /// serialized (the weighted counts plus the raw_updates metadata on the
  /// wire already describe the state honestly), and a plain Monitor
  /// ignores it — only the sharded pipeline has a pressure signal.
  bool overload_sampling = false;

  /// Heavy-hitter fraction and gap (Definition 4).
  double hh_alpha = 0.05;
  double hh_epsilon = 0.25;
  /// Accuracy / confidence for the F2 estimator: the F2 CountSketch is
  /// 8 / (p * epsilon^2) buckets wide (at least 64) and
  /// plan::LevelSetDepthFromDelta(delta) rows deep.
  double epsilon = 0.25;
  double delta = 0.05;
  /// Cap on the width of the one F2 CountSketch (0 = analytic width);
  /// defaults to plan::kDefaultF2WidthCap, 1 << 13.
  std::uint64_t max_f2_width = plan::kDefaultF2WidthCap;
  /// Physical cell width of the counter-array sketches (the F2 CountSketch
  /// and the heavy hitters; cell_width.h). Narrow cells spill into wider
  /// overflow levels on saturation, so every estimate is unchanged — this
  /// knob trades nothing but cache footprint. 32-bit cells are a safe default
  /// for windowed deployments; 64-bit is the conservative historical
  /// layout.
  CellWidth cell_width = CellWidth::k64;

  /// F0 backend and geometry; 0 means the library default (KMV k = 1024,
  /// HLL precision 14). Explicit values win, exactly like every other
  /// field here. These are not serialized in the monitor header — the
  /// nested F0 record already carries them on the wire (keeping the format
  /// byte-identical), and Deserialize reconstructs them from it.
  F0Backend f0_backend = F0Backend::kKmv;
  std::size_t f0_kmv_k = 0;
  int f0_hll_precision = 0;

  /// The accuracy-budget route: when set, the geometry planner
  /// (plan/plan.h) compiles {budget_bytes, per-metric (eps, delta)
  /// targets} into the explicit fields above at construction — epsilon,
  /// delta, hh_epsilon, max_f2_width, cell_width, universe and the f0_*
  /// geometry become planner-owned; p, the enable_* switches, hh_alpha and
  /// n_hint stay caller-owned. A config without a plan behaves exactly as
  /// before, byte for byte. Resolved monitors store the compiled config
  /// with `plan` cleared, so a planned Monitor and a hand-built Monitor of
  /// the same geometry are merge-compatible and serialize identically.
  std::optional<plan::PlanSpec> plan;
};

/// True when the two configs describe the same geometry (every field the
/// constructor derives geometry from; `plan` is ignored — resolved configs
/// have it cleared). This is the config half of the Merge precondition.
bool MonitorConfigsEqual(const MonitorConfig& a, const MonitorConfig& b);

/// A consolidated window report. Fields for disabled statistics are
/// std::nullopt.
struct MonitorReport {
  std::optional<double> distinct_items;     ///< F0(P)
  std::optional<double> second_moment;      ///< F2(P) (self-join size)
  std::optional<EntropyResult> entropy;     ///< H(f) with validity info
  std::optional<std::vector<HeavyHitter>> heavy_hitters;  ///< F1-heavy
  count_t sampled_length = 0;               ///< F1(L) (weighted units)
  double scaled_length = 0.0;               ///< F1(L)/p ~ F1(P)
  /// Elements actually applied (post-admission survivors); equals
  /// sampled_length unless sampled ingest weighted some updates.
  count_t raw_updates = 0;
  /// raw_updates / sampled_length in (0, 1]; 1.0 = exact counting.
  double effective_sample_rate = 1.0;
};

/// Single-pass monitor over the sampled stream.
class Monitor {
 public:
  /// Builds the enabled estimators. When `config.plan` is set, the
  /// geometry planner resolves it first (plan/compiler.h); `config()`
  /// afterwards returns the resolved explicit-field config with `plan`
  /// cleared — hand a copy of it to another constructor to get a
  /// merge-compatible, byte-identically-serializing peer.
  Monitor(const MonitorConfig& config, std::uint64_t seed);

  /// Feeds one element of the sampled stream L (prehash once, fan out).
  void Update(item_t item);

  /// Feeds `n` contiguous elements of L: prehashes each chunk once into a
  /// stack buffer, then fans the prehashed column to every estimator.
  void UpdateBatch(const item_t* data, std::size_t n);

  /// Feeds `n` already-prehashed elements of L — the columnar entry point
  /// ShardedMonitor's rings feed so the partitioner's prehash is reused by
  /// every sketch on the worker side. The item/hash columns fan out to
  /// every estimator, so the counter-array sketches run unit-stride SIMD
  /// loads.
  ///
  /// Each element carries `weight` units (>= 1). Weights above 1 are the
  /// sampled-ingest form: the unbiased round(1/p) correction for survivors
  /// of Bernoulli(p) admission (core/overload.h). Every frequency-weighted
  /// summary (F2 CountSketch, entropy MLE, heavy hitters) absorbs the
  /// weight through its linear add path; F0 sees the survivors unweighted
  /// (distinct-count state is a set — a weight cannot conjure the skipped
  /// identities, so under sampling F0 reports distinct *admitted* items).
  /// sampled_length grows by n * weight, raw_updates by n; weight 1 runs
  /// every estimator's unweighted batched path.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                       count_t weight = 1);

  /// Merges a monitor constructed with the same config and seed, so that
  /// this monitor summarizes the concatenation of both sampled streams.
  /// Mismatched configuration or seed aborts (mergeability requires
  /// identical sketch geometry and hash seeds).
  ///
  /// Decayed merge for windowed roll-ups (WindowedMonitor's decay mode):
  /// with `weight` in (0, 1), every *linear* counter of `other` contributes
  /// scaled by `weight` (rounded back to the counter domain), so the merged
  /// monitor approximates the monitor of the decayed stream in which each
  /// of `other`'s items carries weight `weight` — including cross-window
  /// collision terms for F2, by linearity of the underlying sketches.
  /// The F0 estimator merges UNscaled: distinct-count state is a set, and
  /// decay cannot shrink set membership — a decayed report's distinct
  /// count covers every window still inside the horizon.
  void Merge(const Monitor& other, double weight = 1.0);

  /// Alias of Merge(other, weight): the name bench/e2e calls.
  void MergeScaled(const Monitor& other, double weight) {
    Merge(other, weight);
  }

  /// Returns every estimator to its freshly-constructed state, keeping
  /// configuration, seeds and allocations: ready for the next window.
  void Reset();

  /// Consolidated estimates about the original stream P.
  MonitorReport Report() const;

  /// SketchHealth introspection (obs/health.h): one SummaryHealth entry per
  /// enabled estimator backend — geometry, fill ratio, overflow-spill
  /// fraction, derived (eps, delta) bounds, space. Scans the
  /// counter tables, so cost is O(total cells); call at report cadence, not
  /// per batch.
  obs::HealthReport Health() const;

  const MonitorConfig& config() const { return config_; }
  std::uint64_t seed() const { return seed_; }

  /// True exactly when Merge(other) would succeed: same config and seed,
  /// and every nested estimator deep-compatible (a decoded record can
  /// agree on the top-level header yet carry a corrupted nested seed). The
  /// Collector uses this to reject foreign or corrupted summaries
  /// gracefully instead of tripping the Merge abort.
  bool MergeCompatibleWith(const Monitor& other) const;

  /// Total memory across enabled estimators.
  std::size_t SpaceBytes() const;

  /// Appends the versioned wire record: config + seed header, then one
  /// nested record per enabled estimator (serde/serde.h).
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<Monitor> Deserialize(serde::Reader& in);

  /// Durably writes this monitor's wire record to `path` inside a
  /// CRC-validated checkpoint container (serde/checkpoint.h; atomic
  /// tmp-file + rename). Returns false on I/O failure. This is the
  /// crash-safe window handoff: checkpoint at window close, restore in a
  /// fresh process, keep merging.
  bool Checkpoint(const std::string& path) const;

  /// Reads a checkpoint written by Checkpoint(); std::nullopt when the
  /// file is missing, corrupt (CRC/size/version mismatch) or undecodable.
  /// The restored monitor is state-identical to the checkpointed one and
  /// merges with live peers exactly as the original would have.
  static std::optional<Monitor> Restore(const std::string& path);

 private:
  /// Deserialize-only: adopts config and seed without building estimators
  /// (the decoded nested records supply them), so corrupted wire configs
  /// can never size an allocation.
  struct DeserializeTag {};
  Monitor(DeserializeTag, const MonitorConfig& config, std::uint64_t seed)
      : config_(config), seed_(seed) {}

  MonitorConfig config_;
  std::uint64_t seed_;
  count_t sampled_length_ = 0;
  /// Post-admission survivor count: += n on every update path, weighted or
  /// not. sampled_length_ / raw_updates_ is the mean applied weight, so
  /// raw_updates_ / sampled_length_ is the window's effective sample rate.
  count_t raw_updates_ = 0;
  std::optional<F0Estimator> f0_;
  /// CountSketch on L; Report() reads F2(P) from its row-norm F2(L).
  std::optional<CountSketch> f2_;
  std::optional<EntropyEstimator> entropy_;
  std::optional<F1HeavyHitterEstimator> heavy_;
};

}  // namespace substream

#endif  // SUBSTREAM_CORE_MONITOR_H_
