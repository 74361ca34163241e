#ifndef SUBSTREAM_CORE_WINDOWED_MONITOR_H_
#define SUBSTREAM_CORE_WINDOWED_MONITOR_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "plan/plan.h"
#include "util/common.h"

/// \file windowed_monitor.h
/// Windowed and decayed monitoring over a sub-sampled stream: the paper's
/// estimators are defined per measurement window, and a real sampled-
/// NetFlow collector rotates windows continuously. WindowedMonitor keeps a
/// ring of W per-window Monitors, all constructed with the same config and
/// seed (the Monitor::Merge precondition):
///
///   - ingest goes to the *current* window;
///   - `Rotate()` closes it and opens a fresh one, evicting the oldest
///     window once W are retained (advance-on-rotate, O(1), reuses the
///     evicted window's allocations via Monitor::Reset);
///   - queries merge retained windows on demand (merge-at-query), so no
///     per-update cost is paid for the windowing.
///
/// Two query modes:
///
///   - **Sliding window** (`Report(k)` / `MergedOverLast(k)`): the last k
///     windows merge with ordinary Merge. By the mergeable-summary
///     contract the result is state-identical (exactly, for the linear
///     summaries) to a monolithic Monitor fed only those windows' items —
///     the property `tests/windowed_monitor_test.cc` pins byte-for-byte.
///   - **Exponential decay** (`ReportDecayed()`): the window of age a
///     contributes its counters scaled by decay^a (Monitor::MergeScaled),
///     i.e. the report approximates the monitor of the decayed stream.
///     Distinct counts merge unscaled (set membership cannot decay) and
///     age out only by ring eviction; see Monitor::MergeScaled.
///
/// Each window is an ordinary Monitor, so the wire format and
/// checkpointing work per window: `Serialize()` writes a container record
/// (tag kWindowedMonitor) holding one nested Monitor record per retained
/// window, and `Checkpoint()/Restore()` wrap it in the CRC-validated
/// checkpoint file — a collector can crash at any window boundary and
/// resume with its whole horizon intact.
///
/// WindowedMonitor composes with the sharded pipeline through
/// `AdoptWindow()`: a Monitor collected from `ShardedMonitor::
/// CollectWindow()` (one rotated epoch, all shards merged) becomes the
/// newest window of the ring. See examples/windowed_netflow.cpp.
///
/// ## Re-planning across merge horizons
///
/// When the constructor config carries a `plan::PlanSpec`, the ring is
/// *plan-driven*: between windows it feeds the closed window's observed
/// F0/F2/length back into the spec's workload hints and re-solves the
/// geometry. Because every retained window must stay merge-compatible
/// (mixed-geometry Merge aborts loudly), geometry may change only when an
/// entire merge horizon ends: re-planning is evaluated exclusively at ring
/// boundaries — every `windows`-th rotation — and an adopted geometry
/// change clears the ring and starts a fresh horizon (the old windows'
/// statistics informed the new plan; their counters are discarded with the
/// horizon). Within a horizon the geometry is immutable.
///
/// Hysteresis: observed hints are quantized to the nearest power of two
/// before they touch the spec, and a re-plan is adopted only when the
/// resolved config actually differs — steady workloads re-plan zero times
/// (pinned by test). Every adopted change is recorded in `replan_log()`.
///
/// Checkpoint/Restore round-trips the *windows*, not the spec: a restored
/// ring keeps the planned geometry it was checkpointed with but stops
/// re-planning (the spec is not serialized). Re-attach a spec by
/// constructing a fresh plan-driven ring when adaptive behavior must
/// survive restarts.

namespace substream {

/// Tuning for the window ring.
struct WindowedMonitorOptions {
  /// Upper bound on ring capacity, enforced by the constructor and the
  /// decoder alike (a million windows is far beyond any real horizon, and
  /// the decoder needs a bound a corrupted record cannot exceed).
  static constexpr std::size_t kMaxWindows = 1u << 20;

  /// Ring capacity W: how many windows (current + closed) are retained.
  std::size_t windows = 8;
  /// Exponential-decay factor: the window of age a (0 = current) weighs
  /// decay^a in ReportDecayed(). Must be in (0, 1]; 1.0 makes
  /// ReportDecayed() identical to Report() over all retained windows.
  double decay = 1.0;
};

/// Ring of per-window Monitors with merge-at-query roll-ups.
///
/// Not itself a mergeable summary (it is a container of them): every
/// retained window individually satisfies the contract, which is what the
/// serde layer and the equivalence tests rely on.
///
/// Threading: single-threaded, queries included — Report()/ReportDecayed()
/// are const but share one mutable scratch monitor, so concurrent const
/// queries race. Multi-core ingest belongs in ShardedMonitor, with closed
/// epochs fed to this ring via AdoptWindow().
class WindowedMonitor {
 public:
  WindowedMonitor(const MonitorConfig& config, std::uint64_t seed,
                  WindowedMonitorOptions options = {});

  /// Feeds one element of the sampled stream into the current window.
  void Update(item_t item);

  /// Feeds `n` contiguous elements into the current window.
  void UpdateBatch(const item_t* data, std::size_t n);

  /// Feeds `n` already-prehashed elements, as item/hash columns, into the
  /// current window.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n);

  /// Closes the current window and opens a fresh one. Constant-time: while
  /// the ring is below capacity a new Monitor is constructed; afterwards
  /// the evicted oldest window is Reset() and reused, so steady-state
  /// rotation allocates nothing beyond what Reset keeps.
  ///
  /// Plan-driven rings additionally evaluate re-planning at ring
  /// boundaries (every `windows`-th rotation): when the closed window's
  /// observed workload re-solves to different geometry, the whole ring is
  /// replaced with one fresh empty window of the new geometry (see the
  /// file comment on merge horizons).
  void Rotate();

  /// Closes the current window and adopts `window` — built elsewhere with
  /// the same config and seed, e.g. ShardedMonitor::CollectWindow()'s
  /// merged epoch — as the new current window. Aborts on a config/seed
  /// mismatch (the Merge precondition, checked deeply).
  ///
  /// Plan-driven rings evaluate re-planning at ring boundaries here too,
  /// using the adopted window's report as the workload sample. When a
  /// geometry change is adopted the old-geometry `window` cannot join the
  /// new horizon and is dropped after informing the plan — rebuild the
  /// producer pipeline from `config()` before the next collection.
  void AdoptWindow(Monitor&& window);

  /// Rotations performed since construction (the current window's index).
  std::uint64_t epoch() const { return epoch_; }

  /// Ring capacity W.
  std::size_t capacity() const { return options_.windows; }

  /// Windows currently retained: min(epoch + 1, W).
  std::size_t retained() const { return ring_.size(); }

  /// The retained window of age `age` (0 = current, retained()-1 =
  /// oldest). Aborts when `age >= retained()`.
  const Monitor& WindowAt(std::size_t age) const;

  /// Merges the last `k` windows (0 = all retained; k is clamped to
  /// retained()) into a fresh Monitor, oldest first. This is the
  /// merge-at-query primitive behind Report(); exposed so callers can
  /// serialize or keep merging the roll-up.
  Monitor MergedOverLast(std::size_t k) const;

  /// Sliding-window report over the last `k` windows (0 = all retained).
  /// Runs on a reusable scratch monitor: cost is one Reset + k merges, no
  /// allocations in steady state.
  MonitorReport Report(std::size_t k = 0) const;

  /// Exponential-decay report over all retained windows: window of age a
  /// contributes counters scaled by decay^a. With decay == 1 this equals
  /// Report(0).
  MonitorReport ReportDecayed() const;

  /// Drops all windows and restarts at epoch 0 with one fresh current
  /// window; configuration, seed and options are kept.
  void Reset();

  /// The CURRENT resolved window configuration (plan compiled to explicit
  /// geometry, `plan` cleared). Plan-driven rings may change it at ring
  /// boundaries — consult `replan_log()` for when.
  const MonitorConfig& config() const { return config_; }
  std::uint64_t seed() const { return seed_; }
  const WindowedMonitorOptions& options() const { return options_; }

  /// True when the ring was constructed from a plan::PlanSpec and still
  /// re-plans at ring boundaries (false after Deserialize/Restore).
  bool plan_driven() const { return spec_.has_value(); }

  /// Every adopted geometry change, oldest first. Empty for non-plan
  /// rings and for steady workloads.
  const std::vector<plan::ReplanEvent>& replan_log() const {
    return replan_log_;
  }

  /// Total memory across retained windows (query scratch excluded).
  std::size_t SpaceBytes() const;

  /// Appends the versioned container record: ring header (capacity, decay,
  /// epoch, retained count), then one nested Monitor record per retained
  /// window, oldest first.
  void Serialize(serde::Writer& out) const;

  /// Decodes one container record; std::nullopt on truncated or corrupted
  /// input, including retained windows that disagree on config or seed.
  static std::optional<WindowedMonitor> Deserialize(serde::Reader& in);

  /// Durably writes the whole ring to `path` (CRC-validated checkpoint
  /// container, atomic tmp-file + rename). Returns false on I/O failure.
  bool Checkpoint(const std::string& path) const;

  /// Reads a checkpoint written by Checkpoint(); std::nullopt when the
  /// file is missing, corrupt or undecodable. The restored ring is
  /// window-for-window state-identical to the checkpointed one.
  static std::optional<WindowedMonitor> Restore(const std::string& path);

 private:
  /// Deserialize-only: adopts config/seed/options without constructing any
  /// window (the decoded nested records supply them).
  struct DeserializeTag {};
  WindowedMonitor(DeserializeTag, const MonitorConfig& config,
                  std::uint64_t seed, WindowedMonitorOptions options)
      : original_config_(config), config_(config), seed_(seed),
        options_(options) {}

  /// Index into ring_ of the window of age `age`.
  std::size_t IndexOfAge(std::size_t age) const;

  Monitor& ScratchReset() const;

  /// Re-plan decision at a ring boundary, fed the closed (or adopted)
  /// window's report. Returns true when a geometry change was adopted, in
  /// which case the ring has been replaced with one fresh current window
  /// of the new geometry and the caller must not install anything into the
  /// old ring.
  bool MaybeReplan(const MonitorReport& closed);

  /// The constructor config exactly as passed (plan included): re-planning
  /// re-resolves from this with updated hints, so caller-owned knobs
  /// (p, enabled metrics, hh_alpha) are never drifted by the feedback loop.
  MonitorConfig original_config_;
  MonitorConfig config_;
  std::uint64_t seed_;
  WindowedMonitorOptions options_;
  /// Retained windows; grows to options_.windows, then becomes a true
  /// ring indexed through cursor_.
  std::vector<Monitor> ring_;
  std::size_t cursor_ = 0;    ///< ring_ index of the current window
  std::uint64_t epoch_ = 0;   ///< rotations performed
  /// Merge-at-query workspace, built lazily on the first report so a
  /// write-only ring (e.g. a checkpointing relay) never pays for it.
  mutable std::optional<Monitor> scratch_;
  /// Live accuracy-budget spec with learned workload hints; engaged only
  /// when the constructor config carried one (never after deserialize).
  std::optional<plan::PlanSpec> spec_;
  /// Re-plan signal smoothing: log2-space EWMA of the boundary
  /// observations over roughly 1/alpha = 4 horizons. A single-window
  /// workload spike moves the smoothed hint by only alpha * log2(spike),
  /// so geometry churn requires a sustained shift; the first observation
  /// primes the state directly (pass-through), preserving the immediate
  /// first-boundary adaptation of a fresh unhinted ring. Not serialized:
  /// restored rings drop the spec and never re-plan.
  static constexpr double kReplanEwmaAlpha = 0.25;
  bool ewma_primed_ = false;
  double ewma_f0_ = 0.0;
  double ewma_f2_ = 0.0;
  double ewma_n_ = 0.0;
  /// Adopted geometry changes, oldest first.
  std::vector<plan::ReplanEvent> replan_log_;
};

}  // namespace substream

#endif  // SUBSTREAM_CORE_WINDOWED_MONITOR_H_
