#include "core/windowed_monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "plan/compiler.h"
#include "serde/checkpoint.h"
#include "serde/serde.h"
#include "sketch/sketch.h"

namespace substream {

namespace {

// Registry handles for the windowed roll-up layer, resolved once. Rotation
// is the latency-sensitive edge (it sits on the window boundary of a live
// pipeline); the report paths are scan-heavy and their distribution shows
// how merge cost scales with the retained-window count.
struct WindowedMetrics {
  obs::Histogram& rotate_ns;
  obs::Histogram& report_ns;
  obs::Histogram& report_decayed_ns;

  static WindowedMetrics& Get() {
    static WindowedMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new WindowedMetrics{
          registry.GetHistogram("substream_windowed_rotate_duration_ns",
                                "WindowedMonitor::Rotate/AdoptWindow latency"),
          registry.GetHistogram("substream_windowed_report_duration_ns",
                                "WindowedMonitor::Report merge+report latency"),
          registry.GetHistogram(
              "substream_windowed_report_decayed_duration_ns",
              "WindowedMonitor::ReportDecayed merge+report latency"),
      };
    }();
    return *metrics;
  }
};

/// Nearest power of two (in log space): the hysteresis quantizer for the
/// re-plan feedback loop. Workload drift within one pow2 class leaves the
/// spec's hints — and therefore the solved geometry — untouched.
double QuantizeHint(double v) {
  if (!(v > 0.0)) return 0.0;
  return std::exp2(std::round(std::log2(v)));
}

}  // namespace

WindowedMonitor::WindowedMonitor(const MonitorConfig& config,
                                 std::uint64_t seed,
                                 WindowedMonitorOptions options)
    : original_config_(config), config_(plan::ResolveMonitorConfig(config)),
      seed_(seed), options_(options), spec_(config.plan) {
  SUBSTREAM_CHECK_MSG(options.windows >= 1 &&
                          options.windows <= WindowedMonitorOptions::kMaxWindows,
                      "WindowedMonitor ring capacity %zu outside [1, %zu]",
                      options.windows, WindowedMonitorOptions::kMaxWindows);
  SUBSTREAM_CHECK_MSG(ValidMergeWeight(options.decay),
                      "window decay %f outside (0, 1]", options.decay);
  ring_.reserve(options.windows);
  ring_.emplace_back(config_, seed_);
}

void WindowedMonitor::Update(item_t item) { ring_[cursor_].Update(item); }

void WindowedMonitor::UpdateBatch(const item_t* data, std::size_t n) {
  ring_[cursor_].UpdateBatch(data, n);
}

void WindowedMonitor::UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
  ring_[cursor_].UpdatePrehashed(cols, n);
}

bool WindowedMonitor::MaybeReplan(const MonitorReport& closed) {
  // An empty window carries no workload signal; keep the current plan.
  if (closed.sampled_length == 0) return false;
  const double observed_f0 =
      closed.distinct_items ? *closed.distinct_items : 0.0;
  const double observed_f2 =
      closed.second_moment ? *closed.second_moment : 0.0;
  const double observed_n = closed.scaled_length;  // original-stream units
  // Smooth the boundary observations in log2 space — the domain the
  // quantizer rounds in — before quantizing. A K-times one-window spike
  // moves the smoothed signal by alpha * log2(K) classes instead of
  // log2(K), so a transient burst inside one horizon cannot flush the ring
  // while a sustained workload shift still converges within ~1/alpha
  // boundaries. Components with no signal (disabled metric, empty value)
  // leave their smoothed state untouched.
  if (!ewma_primed_) {
    ewma_f0_ = observed_f0;
    ewma_f2_ = observed_f2;
    ewma_n_ = observed_n;
    ewma_primed_ = true;
  } else {
    auto smooth = [](double prev, double obs) {
      if (!(obs > 0.0)) return prev;
      if (!(prev > 0.0)) return obs;
      return std::exp2((1.0 - kReplanEwmaAlpha) * std::log2(prev) +
                       kReplanEwmaAlpha * std::log2(obs));
    };
    ewma_f0_ = smooth(ewma_f0_, observed_f0);
    ewma_f2_ = smooth(ewma_f2_, observed_f2);
    ewma_n_ = smooth(ewma_n_, observed_n);
  }
  // Hysteresis: hints only move when the smoothed observation crosses into
  // a different power-of-two class.
  const double f0_hint = QuantizeHint(ewma_f0_);
  const double f2_hint = QuantizeHint(ewma_f2_);
  const double n_hint = QuantizeHint(ewma_n_);
  if (f0_hint == spec_->f0_hint && f2_hint == spec_->f2_hint &&
      n_hint == spec_->n_hint) {
    return false;
  }
  // Adopt the hints either way — even when the re-solve lands on the same
  // geometry, the next boundary should compare against what was last seen.
  spec_->f0_hint = f0_hint;
  spec_->f2_hint = f2_hint;
  spec_->n_hint = n_hint;
  MonitorConfig candidate = original_config_;
  candidate.plan = spec_;
  const MonitorConfig resolved = plan::ResolveMonitorConfig(candidate);
  if (MonitorConfigsEqual(resolved, config_)) return false;

  plan::ReplanEvent event;
  event.epoch = epoch_ + 1;  // first window index with the new geometry
  event.observed_f0 = observed_f0;
  event.observed_f2 = observed_f2;
  event.observed_n = observed_n;
  event.old_universe = config_.universe;
  event.new_universe = resolved.universe;
  event.old_max_f2_width = config_.max_f2_width;
  event.new_max_f2_width = resolved.max_f2_width;
  event.old_kmv_k = config_.f0_kmv_k;
  event.new_kmv_k = resolved.f0_kmv_k;

  // The horizon ends here: mixed-geometry windows can never co-merge, so
  // the whole ring (and the query scratch, whose geometry also changed) is
  // replaced by one fresh current window of the new geometry.
  config_ = resolved;
  ring_.clear();
  ring_.emplace_back(config_, seed_);
  cursor_ = 0;
  scratch_.reset();
  event.planned_bytes = ring_.front().SpaceBytes();
  replan_log_.push_back(event);
  return true;
}

void WindowedMonitor::Rotate() {
  obs::ScopedTimer timer(WindowedMetrics::Get().rotate_ns);
  // Ring boundary (every W-th rotation) on a plan-driven ring: feed the
  // closing window's report back into the spec. An adopted change has
  // already rebuilt the ring around a fresh current window.
  if (spec_ && (epoch_ + 1) % options_.windows == 0 &&
      MaybeReplan(ring_[cursor_].Report())) {
    ++epoch_;
    return;
  }
  ++epoch_;
  if (ring_.size() < options_.windows) {
    ring_.emplace_back(config_, seed_);
    cursor_ = ring_.size() - 1;
    return;
  }
  // Steady state: evict the oldest window in place. Reset keeps the
  // estimator allocations, so rotation stays O(summary size) with no
  // allocation churn.
  cursor_ = (cursor_ + 1) % ring_.size();
  ring_[cursor_].Reset();
}

void WindowedMonitor::AdoptWindow(Monitor&& window) {
  SUBSTREAM_CHECK_MSG(window.MergeCompatibleWith(ring_[cursor_]),
                      "adopted window disagrees with the ring's config or "
                      "seed");
  // Advance like Rotate(), but install `window` directly: the slot is
  // overwritten wholesale, so neither a fresh construction (growth phase)
  // nor the eviction Reset's counter zero-fill is ever paid here.
  obs::ScopedTimer timer(WindowedMetrics::Get().rotate_ns);
  // Ring boundary on a plan-driven ring: the adopted window is the
  // workload sample. When a geometry change is adopted the old-geometry
  // `window` cannot join the new horizon — it is dropped after informing
  // the plan (the producer should rebuild from config()).
  if (spec_ && (epoch_ + 1) % options_.windows == 0 &&
      MaybeReplan(window.Report())) {
    ++epoch_;
    return;
  }
  ++epoch_;
  if (ring_.size() < options_.windows) {
    ring_.push_back(std::move(window));
    cursor_ = ring_.size() - 1;
    return;
  }
  cursor_ = (cursor_ + 1) % ring_.size();
  ring_[cursor_] = std::move(window);
}

std::size_t WindowedMonitor::IndexOfAge(std::size_t age) const {
  SUBSTREAM_CHECK_MSG(age < ring_.size(), "window age %zu >= retained %zu",
                      age, ring_.size());
  return (cursor_ + ring_.size() - age) % ring_.size();
}

const Monitor& WindowedMonitor::WindowAt(std::size_t age) const {
  return ring_[IndexOfAge(age)];
}

Monitor& WindowedMonitor::ScratchReset() const {
  if (!scratch_) {
    scratch_.emplace(config_, seed_);
  } else {
    scratch_->Reset();
  }
  return *scratch_;
}

Monitor WindowedMonitor::MergedOverLast(std::size_t k) const {
  if (k == 0 || k > ring_.size()) k = ring_.size();
  Monitor merged(config_, seed_);
  // Oldest-first merge order: deterministic, so two rings holding the same
  // per-window state roll up to byte-identical merged monitors.
  for (std::size_t age = k; age-- > 0;) {
    merged.Merge(WindowAt(age));
  }
  return merged;
}

MonitorReport WindowedMonitor::Report(std::size_t k) const {
  obs::ScopedTimer timer(WindowedMetrics::Get().report_ns);
  if (k == 0 || k > ring_.size()) k = ring_.size();
  Monitor& scratch = ScratchReset();
  for (std::size_t age = k; age-- > 0;) {
    scratch.Merge(WindowAt(age));
  }
  return scratch.Report();
}

MonitorReport WindowedMonitor::ReportDecayed() const {
  obs::ScopedTimer timer(WindowedMetrics::Get().report_decayed_ns);
  Monitor& scratch = ScratchReset();
  for (std::size_t age = ring_.size(); age-- > 0;) {
    // decay^age can underflow to 0 for old windows under aggressive decay.
    // Clamp to the smallest normal double instead of skipping: every
    // counter still rounds to zero (fully aged out), but the window's F0
    // state merges unscaled as documented — distinct counts age out only
    // by ring eviction, never by weight underflow.
    const double weight =
        std::max(std::pow(options_.decay, static_cast<double>(age)),
                 std::numeric_limits<double>::min());
    scratch.Merge(WindowAt(age), weight);
  }
  return scratch.Report();
}

void WindowedMonitor::Reset() {
  ring_.clear();
  ring_.emplace_back(config_, seed_);
  cursor_ = 0;
  epoch_ = 0;
  // Epoch numbering restarts, so the log's epoch tags would dangle; the
  // spec keeps its learned hints (the workload did not change because the
  // ring was cleared) and the current geometry is retained.
  replan_log_.clear();
}

std::size_t WindowedMonitor::SpaceBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const Monitor& window : ring_) bytes += window.SpaceBytes();
  return bytes;
}

void WindowedMonitor::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kWindowedMonitor);
  out.Varint(options_.windows);
  out.F64(options_.decay);
  out.Varint(epoch_);
  out.Varint(ring_.size());
  // Nested Monitor records, oldest first; each carries its own config +
  // seed header, which Deserialize cross-checks across windows.
  for (std::size_t age = ring_.size(); age-- > 0;) {
    WindowAt(age).Serialize(out);
  }
}

std::optional<WindowedMonitor> WindowedMonitor::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kWindowedMonitor)) return std::nullopt;
  WindowedMonitorOptions options;
  options.windows = in.Varint();
  options.decay = in.F64();
  const std::uint64_t epoch = in.Varint();
  const std::uint64_t retained = in.Varint();
  if (!in.ok() || options.windows < 1 ||
      options.windows > WindowedMonitorOptions::kMaxWindows ||
      !ValidMergeWeight(options.decay) || retained < 1 ||
      retained > options.windows || retained > epoch + 1 ||
      !in.CanHold(retained, 2)) {
    return std::nullopt;
  }
  // The first (oldest) window supplies config and seed; every later window
  // must agree deeply, or the record is corrupt/foreign.
  auto first = Monitor::Deserialize(in);
  if (!first) return std::nullopt;
  WindowedMonitor ring(DeserializeTag{}, first->config(), first->seed(),
                       options);
  // Reserve only what this record actually carries: options.windows is a
  // wire-supplied value and must never size an allocation (a corrupted
  // capacity would throw out of vector::reserve instead of returning
  // nullopt). The ring grows lazily toward the capacity at runtime.
  ring.ring_.reserve(retained);
  ring.ring_.push_back(std::move(*first));
  for (std::uint64_t w = 1; w < retained; ++w) {
    auto window = Monitor::Deserialize(in);
    if (!window || !window->MergeCompatibleWith(ring.ring_.front())) {
      return std::nullopt;
    }
    ring.ring_.push_back(std::move(*window));
  }
  ring.cursor_ = ring.ring_.size() - 1;  // newest decoded window is current
  ring.epoch_ = epoch;
  return ring;
}

bool WindowedMonitor::Checkpoint(const std::string& path) const {
  serde::Writer writer;
  Serialize(writer);
  return serde::WriteCheckpointFile(path, writer.bytes());
}

std::optional<WindowedMonitor> WindowedMonitor::Restore(
    const std::string& path) {
  const auto payload = serde::ReadCheckpointFile(path);
  if (!payload) return std::nullopt;
  serde::Reader reader(*payload);
  auto ring = Deserialize(reader);
  if (!ring || reader.remaining() != 0) return std::nullopt;
  return ring;
}

}  // namespace substream
