#include "core/monitor.h"

#include <algorithm>

#include "core/collision.h"
#include "core/fk_estimator.h"
#include "obs/metrics.h"
#include "plan/compiler.h"
#include "serde/checkpoint.h"
#include "serde/serde.h"
#include "sketch/sketch.h"
#include "util/hash.h"

namespace substream {

// The core estimators and the Monitor facade honor the same mergeable-
// summary contract as the sketch layer (their headers cannot assert it
// without depending on sketch/sketch.h in every interface).
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(F0Estimator);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(FkEstimator);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(EntropyEstimator);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(F1HeavyHitterEstimator);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(F2HeavyHitterEstimator);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(Monitor);

bool MonitorConfigsEqual(const MonitorConfig& a, const MonitorConfig& b) {
  return a.p == b.p && a.universe == b.universe && a.n_hint == b.n_hint &&
         a.enable_f0 == b.enable_f0 && a.enable_f2 == b.enable_f2 &&
         a.enable_entropy == b.enable_entropy &&
         a.enable_heavy_hitters == b.enable_heavy_hitters &&
         a.hh_alpha == b.hh_alpha && a.hh_epsilon == b.hh_epsilon &&
         a.epsilon == b.epsilon && a.delta == b.delta &&
         a.max_f2_width == b.max_f2_width && a.cell_width == b.cell_width &&
         a.f0_backend == b.f0_backend && a.f0_kmv_k == b.f0_kmv_k &&
         a.f0_hll_precision == b.f0_hll_precision;
}

Monitor::Monitor(const MonitorConfig& config, std::uint64_t seed)
    : config_(plan::ResolveMonitorConfig(config)), seed_(seed) {
  SUBSTREAM_CHECK_MSG(config_.p > 0.0 && config_.p <= 1.0,
                      "sampling probability p=%f", config_.p);
  if (config_.enable_f0) {
    F0Params params;
    params.p = config_.p;
    params.delta = config_.delta;
    params.backend = config_.f0_backend;
    params.kmv_k = config_.f0_kmv_k;
    params.hll_precision = config_.f0_hll_precision;
    f0_.emplace(params, DeriveSeed(seed, 1));
  }
  if (config_.enable_f2) {
    SUBSTREAM_CHECK(config_.epsilon > 0.0 && config_.epsilon < 1.0);
    SUBSTREAM_CHECK(config_.delta > 0.0 && config_.delta < 1.0);
    // The k = 2 width of Theorem 1: 8 / (p * eps^2), at least 64, capped.
    FkParams params;
    params.p = config_.p;
    params.epsilon = config_.epsilon;
    params.max_width = config_.max_f2_width;
    f2_.emplace(plan::LevelSetDepthFromDelta(config_.delta),
                FkEstimator::SketchWidth(params), DeriveSeed(seed, 2),
                config_.cell_width);
  }
  if (config_.enable_entropy) {
    EntropyParams params;
    params.p = config_.p;
    params.n_hint = config_.n_hint;
    entropy_.emplace(params);
  }
  if (config_.enable_heavy_hitters) {
    HeavyHitterParams params;
    params.alpha = config_.hh_alpha;
    params.epsilon = config_.hh_epsilon;
    params.delta = config_.delta;
    params.p = config_.p;
    params.cell_width = config_.cell_width;
    heavy_.emplace(params, DeriveSeed(seed, 4));
  }
}

void Monitor::Update(item_t item) {
  const std::uint64_t hash = PreHash(item);
  UpdatePrehashed(PrehashedColumns{&item, &hash}, 1);
}

void Monitor::UpdateBatch(const item_t* data, std::size_t n) {
  // Stage 1: one strong hash per item into a stack-resident hash column
  // alongside the caller's item array (no copy of the items).
  // Stage 2: fan both columns to every estimator (UpdatePrehashed).
  ForEachPrehashedChunkCols(data, n,
                            [this](PrehashedColumns cols, std::size_t m) {
                              UpdatePrehashed(cols, m);
                            });
}

void Monitor::UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                              count_t weight) {
  SUBSTREAM_CHECK_MSG(weight >= 1, "sampled-ingest weight must be >= 1");
  sampled_length_ += n * weight;
  raw_updates_ += n;
  // F0 stays unweighted: set membership cannot be multiplied (see header).
  if (f0_) f0_->UpdatePrehashed(cols, n);
  if (f2_) {
    if (weight == 1) {
      f2_->UpdatePrehashed(cols, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        f2_->Update(cols.At(i), static_cast<std::int64_t>(weight));
      }
    }
  }
  if (entropy_) entropy_->UpdatePrehashed(cols, n, weight);
  if (heavy_) heavy_->UpdatePrehashed(cols, n, weight);
}

bool Monitor::MergeCompatibleWith(const Monitor& other) const {
  if (seed_ != other.seed_ || !MonitorConfigsEqual(config_, other.config_)) {
    return false;
  }
  // Deep check: a decoded record can agree on the monitor-level header yet
  // hold nested summaries with flipped seeds or geometry, which would trip
  // the nested Merge aborts. Walk every enabled estimator.
  if (f0_.has_value() != other.f0_.has_value() ||
      f2_.has_value() != other.f2_.has_value() ||
      entropy_.has_value() != other.entropy_.has_value() ||
      heavy_.has_value() != other.heavy_.has_value()) {
    return false;
  }
  if (f0_ && !f0_->MergeCompatibleWith(*other.f0_)) return false;
  if (f2_ && !f2_->MergeCompatibleWith(*other.f2_)) return false;
  if (entropy_ && !entropy_->MergeCompatibleWith(*other.entropy_)) {
    return false;
  }
  if (heavy_ && !heavy_->MergeCompatibleWith(*other.heavy_)) return false;
  return true;
}

void Monitor::Merge(const Monitor& other, double weight) {
  SUBSTREAM_CHECK_MSG(ValidMergeWeight(weight),
                      "monitor decayed-merge weight %f outside (0, 1]",
                      weight);
  SUBSTREAM_CHECK_MSG(seed_ == other.seed_,
                      "merging monitors with different seeds");
  SUBSTREAM_CHECK_MSG(MonitorConfigsEqual(config_, other.config_),
                      "merging monitors with different configurations");
  sampled_length_ += ScaleCounter(other.sampled_length_, weight);
  raw_updates_ += ScaleCounter(other.raw_updates_, weight);
  // Distinct-count state is a set: membership cannot be fractionally
  // decayed, so F0 merges unscaled and decays only by horizon eviction.
  if (f0_) f0_->Merge(*other.f0_);
  if (f2_) f2_->Merge(*other.f2_, weight);
  if (entropy_) entropy_->Merge(*other.entropy_, weight);
  if (heavy_) heavy_->Merge(*other.heavy_, weight);
}

void Monitor::Reset() {
  sampled_length_ = 0;
  raw_updates_ = 0;
  if (f0_) f0_->Reset();
  if (f2_) f2_->Reset();
  if (entropy_) entropy_->Reset();
  if (heavy_) heavy_->Reset();
}

MonitorReport Monitor::Report() const {
  MonitorReport report;
  report.sampled_length = sampled_length_;
  report.scaled_length = static_cast<double>(sampled_length_) / config_.p;
  report.raw_updates = raw_updates_;
  report.effective_sample_rate =
      sampled_length_ > 0 ? static_cast<double>(raw_updates_) /
                                static_cast<double>(sampled_length_)
                          : 1.0;
  if (f0_) report.distinct_items = f0_->Estimate();
  if (f2_) {
    // Eq. (1) at l = 2: C~_2(L) = (F2~(L) - F1(L)) / 2, unbiased by p^2,
    // then F2 = 2 C_2 + F1. Clamped at phi~_1 (F2 >= F1 for integer
    // frequencies), as FkEstimator::AllMoments does.
    const double phi1 = report.scaled_length;
    const double collisions_sampled =
        (f2_->EstimateF2() - static_cast<double>(sampled_length_)) / 2.0;
    const double f2 = MomentFromCollisions(
        2, UnbiasedOriginalCollisions(collisions_sampled, config_.p, 2),
        {phi1});
    report.second_moment = std::max(f2, phi1);
  }
  if (entropy_) report.entropy = entropy_->Estimate();
  if (heavy_) report.heavy_hitters = heavy_->Estimate();
  return report;
}

obs::HealthReport Monitor::Health() const {
  obs::HealthReport report;
  report.sampled_length = sampled_length_;
  report.sampling_p = config_.p;
  report.raw_updates = raw_updates_;
  report.effective_sample_rate =
      sampled_length_ > 0 ? static_cast<double>(raw_updates_) /
                                static_cast<double>(sampled_length_)
                          : 1.0;
  report.sampled_epsilon = plan::SampledEpsilon(report.effective_sample_rate,
                                                config_.delta, raw_updates_);
  if (f0_) f0_->AppendHealth("f0", &report.summaries);
  if (f2_) {
    obs::SummaryHealth health = f2_->Health();
    health.name = "f2";
    report.summaries.push_back(std::move(health));
  }
  if (entropy_) {
    // The entropy frequency map has no counter table to scan; report
    // identity and footprint so the summary list is complete per enabled
    // estimator.
    obs::SummaryHealth health;
    health.name = "entropy";
    health.kind = "entropy_mle";
    health.space_bytes = entropy_->SpaceBytes();
    obs::FinalizeRatios(health);
    report.summaries.push_back(std::move(health));
  }
  if (heavy_) heavy_->AppendHealth("hh", &report.summaries);
  return report;
}

std::size_t Monitor::SpaceBytes() const {
  std::size_t bytes = sizeof(*this);
  if (f0_) bytes += f0_->SpaceBytes();
  if (f2_) bytes += f2_->SpaceBytes();
  if (entropy_) bytes += entropy_->SpaceBytes();
  if (heavy_) bytes += heavy_->SpaceBytes();
  return bytes;
}

void Monitor::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kMonitor);
  out.F64(config_.p);
  out.Varint(config_.universe);
  out.F64(config_.n_hint);
  out.Bool(config_.enable_f0);
  out.Bool(config_.enable_f2);
  out.Bool(config_.enable_entropy);
  out.Bool(config_.enable_heavy_hitters);
  out.F64(config_.hh_alpha);
  out.F64(config_.hh_epsilon);
  out.F64(config_.epsilon);
  out.F64(config_.delta);
  out.Varint(config_.max_f2_width);
  out.U8(static_cast<std::uint8_t>(config_.cell_width));
  out.U64(seed_);
  out.Varint(sampled_length_);
  // v4: the raw survivor count behind sampled_length_. Peers merging this
  // record add it into their own, so the collector's effective sample rate
  // and widened (eps, delta) stay honest across process boundaries.
  out.Varint(raw_updates_);
  if (f0_) f0_->Serialize(out);
  if (f2_) f2_->Serialize(out);
  if (entropy_) entropy_->Serialize(out);
  if (heavy_) heavy_->Serialize(out);
}

std::optional<Monitor> Monitor::Deserialize(serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kMonitor)) return std::nullopt;
  MonitorConfig config;
  config.p = in.F64();
  config.universe = in.Varint();
  config.n_hint = in.F64();
  config.enable_f0 = in.Bool();
  config.enable_f2 = in.Bool();
  config.enable_entropy = in.Bool();
  config.enable_heavy_hitters = in.Bool();
  config.hh_alpha = in.F64();
  config.hh_epsilon = in.F64();
  config.epsilon = in.F64();
  config.delta = in.F64();
  config.max_f2_width = in.Varint();
  std::uint8_t cell_width = static_cast<std::uint8_t>(CellWidth::k64);
  if (in.record_version() >= 3) cell_width = in.U8();
  const std::uint64_t seed = in.U64();
  const count_t sampled_length = in.Varint();
  // Pre-v4 records predate sampled ingest: every update carried weight 1.
  count_t raw_updates = sampled_length;
  if (in.record_version() >= 4) raw_updates = in.Varint();
  if (!in.ok() || !serde::ValidProbability(config.p) ||
      raw_updates > sampled_length ||
      cell_width > static_cast<std::uint8_t>(CellWidth::k64)) {
    return std::nullopt;
  }
  config.cell_width = static_cast<CellWidth>(cell_width);
  Monitor monitor(DeserializeTag{}, config, seed);
  monitor.sampled_length_ = sampled_length;
  monitor.raw_updates_ = raw_updates;
  // Nested records follow in fixed order, one per enabled estimator; their
  // own headers re-check parameters and geometry.
  if (config.enable_f0) {
    auto f0 = F0Estimator::Deserialize(in);
    if (!f0) return std::nullopt;
    // The monitor header does not carry the F0 geometry fields (it never
    // did — the format stays byte-identical); the nested record does.
    // Reconstruct them so the decoded config compares equal to the live
    // peer's resolved config.
    monitor.config_.f0_backend = f0->params().backend;
    monitor.config_.f0_kmv_k = f0->params().kmv_k;
    monitor.config_.f0_hll_precision = f0->params().hll_precision;
    monitor.f0_.emplace(std::move(*f0));
  } else {
    plan::CanonicalizeF0Geometry(monitor.config_);
  }
  if (config.enable_f2) {
    // A record carrying the retired FkEstimator F2 record fails here on
    // its type tag.
    auto f2 = CountSketch::Deserialize(in);
    if (!f2) return std::nullopt;
    monitor.f2_.emplace(std::move(*f2));
  }
  if (config.enable_entropy) {
    auto entropy = EntropyEstimator::Deserialize(in);
    if (!entropy) return std::nullopt;
    monitor.entropy_.emplace(std::move(*entropy));
  }
  if (config.enable_heavy_hitters) {
    auto heavy = F1HeavyHitterEstimator::Deserialize(in);
    if (!heavy) return std::nullopt;
    monitor.heavy_.emplace(std::move(*heavy));
  }
  return monitor;
}

bool Monitor::Checkpoint(const std::string& path) const {
  static obs::Histogram& encode_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "substream_serde_encode_duration_ns",
          "Wall time serializing a Monitor record for checkpointing");
  serde::Writer writer;
  {
    obs::ScopedTimer timer(encode_hist);
    Serialize(writer);
  }
  return serde::WriteCheckpointFile(path, writer.bytes());
}

std::optional<Monitor> Monitor::Restore(const std::string& path) {
  const auto payload = serde::ReadCheckpointFile(path);
  if (!payload) return std::nullopt;
  serde::Reader reader(*payload);
  auto monitor = Deserialize(reader);
  // A checkpoint holds exactly one record; trailing bytes mean corruption
  // the CRC happened to miss (or a foreign file), so refuse them.
  if (!monitor || reader.remaining() != 0) return std::nullopt;
  return monitor;
}

}  // namespace substream
