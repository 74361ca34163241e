#include "bench/e2e/workload.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/random.h"

namespace substream::e2e {

namespace {

constexpr double kOpenLoopRate = 500000.0;

// Each workload measures one group per this many seconds of --seconds, at
// least one. At --seconds 30 that is 2, 1 and 2 groups, which take about
// 30, 25 and 20 s on a 4-vCPU guest.
constexpr int kHotSecondsPerGroup = 15;
constexpr int kWideSecondsPerGroup = 30;
constexpr int kWindowedSecondsPerGroup = 15;

std::size_t Groups(int seconds, int seconds_per_group) {
  return static_cast<std::size_t>(std::max(1, seconds / seconds_per_group));
}

WorkloadSpec ZipfHot(int seconds) {
  WorkloadSpec spec;
  spec.name = "zipf_hot";
  spec.skew = 1.1;
  spec.universe = std::uint64_t{1} << 16;
  spec.ingest_items = std::size_t{1} << 23;
  spec.window_items = std::size_t{1} << 17;
  spec.rounds = 16;
  spec.groups = Groups(seconds, kHotSecondsPerGroup);
  spec.report_calls = 2;
  return spec;
}

WorkloadSpec ZipfWide(int seconds) {
  WorkloadSpec spec;
  spec.name = "zipf_wide";
  spec.skew = 0.7;
  spec.universe = std::uint64_t{1} << 22;
  spec.ingest_items = std::size_t{1} << 22;
  // Readouts cost ~0.6 s per merged Report and ~1.5 s per window close
  // here (the entropy map holds millions of flows), whatever the window
  // size: small windows and one report per round keep a group near 25 s.
  spec.window_items = std::size_t{1} << 15;
  spec.rounds = 8;
  spec.groups = Groups(seconds, kWideSecondsPerGroup);
  spec.report_calls = 1;
  return spec;
}

WorkloadSpec WindowedRollup(int seconds) {
  WorkloadSpec spec = ZipfHot(seconds);
  spec.name = "windowed_rollup";
  spec.ingest_items = std::size_t{1} << 21;
  spec.window_items = std::size_t{1} << 18;
  spec.rate = kOpenLoopRate;
  spec.rounds = 8;
  spec.groups = Groups(seconds, kWindowedSecondsPerGroup);
  spec.report_calls = 3;
  return spec;
}

/// Everything the generator allocates. It outlives BuildInput inside
/// Input::generator_storage.
struct Storage {
  explicit Storage(const std::vector<double>& weights) : zipf(weights) {}

  AliasTable zipf;  ///< index r with probability proportional to (r+1)^-skew
  // `counts` covers P up to the end of the ingest prefix; `recent` covers
  // P behind the last kReportWindows windows. The flows drawn in each live
  // window sit in `window_flows`, a ring indexed by window number.
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> recent;
  std::vector<std::vector<std::uint32_t>> window_flows;
};

/// Exact statistics of the count vector `counts` (index = flow id).
Truth Summarize(const std::vector<std::uint32_t>& counts, double f1,
                double f2, const MonitorConfig& config) {
  Truth truth;
  truth.f1 = f1;
  truth.f2 = f2;
  const double heavy_cut = config.hh_alpha * f1;
  const double allowed_cut = (1.0 - config.hh_epsilon) * heavy_cut;
  double sum_f_log_f = 0.0;
  for (std::size_t id = 0; id < counts.size(); ++id) {
    const double f = counts[id];
    if (f == 0.0) continue;
    truth.f0 += 1.0;
    sum_f_log_f += f * std::log2(f);
    if (f >= allowed_cut) truth.allowed.push_back(id);
    if (f >= heavy_cut) truth.heavy.push_back(id);
  }
  truth.entropy = f1 > 0.0 ? std::log2(f1) - sum_f_log_f / f1 : 0.0;
  return truth;
}

}  // namespace

bool LookupWorkload(const std::string& name, int seconds, bool smoke,
                    WorkloadSpec* out) {
  if (name == "zipf_hot") {
    *out = ZipfHot(seconds);
  } else if (name == "zipf_wide") {
    *out = ZipfWide(seconds);
  } else if (name == "windowed_rollup") {
    *out = WindowedRollup(seconds);
  } else {
    return false;
  }
  if (smoke) {
    // Plumbing only: readout cost grows with distinct flows, so the smoke
    // universe is small for every workload.
    out->universe = std::uint64_t{1} << 12;
    out->ingest_items = std::size_t{1} << 15;
    out->window_items = std::size_t{1} << 12;
    out->rounds = 4;
    out->groups = 1;
    out->report_calls = 1;
    out->setups = 8;
  }
  return true;
}

Input BuildInput(const WorkloadSpec& spec, const MonitorConfig& config,
                 std::uint64_t seed) {
  std::vector<double> weights(spec.universe);
  for (std::uint64_t r = 0; r < spec.universe; ++r) {
    weights[r] = std::pow(static_cast<double>(r + 1), -spec.skew);
  }
  auto storage = std::make_shared<Storage>(weights);
  Storage& s = *storage;
  s.counts.assign(spec.universe + 1, 0);
  s.recent.assign(spec.universe + 1, 0);
  s.window_flows.resize(kReportWindows);
  const auto expected_flows = static_cast<std::size_t>(
      1.2 * static_cast<double>(spec.window_items) / config.p + 1024);
  for (auto& flows : s.window_flows) flows.reserve(expected_flows);

  Input input;
  std::uint64_t stream_seed = seed;
  for (char c : spec.name) stream_seed = Mix64(stream_seed ^ c);
  Rng rng(stream_seed);
  const std::size_t l_items = spec.l_items();
  input.sampled.reserve(l_items);
  double counts_f2 = 0.0;
  double recent_f1 = 0.0;
  double recent_f2 = 0.0;
  // Bernoulli(p) as one 64-bit draw per element of P.
  const auto keep_below =
      static_cast<std::uint64_t>(config.p * 18446744073709551616.0);
  std::uint64_t digest = 0x5ca1ab1e;
  while (input.sampled.size() < l_items) {
    const item_t id = 1 + s.zipf.Sample(rng);
    ++input.original_items;
    if (input.sampled.size() < spec.ingest_items) {
      counts_f2 += 2.0 * s.counts[id]++ + 1.0;
    }
    const std::size_t window = input.sampled.size() / spec.window_items;
    const bool rolling = window < spec.windows();
    if (rolling) {
      recent_f2 += 2.0 * s.recent[id]++ + 1.0;
      recent_f1 += 1.0;
      s.window_flows[window % kReportWindows].push_back(
          static_cast<std::uint32_t>(id));
    }
    if (rng.Next() >= keep_below) continue;

    input.sampled.push_back(id);
    digest = Mix64(digest ^ id);
    const std::size_t n = input.sampled.size();
    if (n == spec.ingest_items) {
      input.ingest =
          Summarize(s.counts, static_cast<double>(input.original_items),
                    counts_f2, config);
    }
    if (rolling && n % spec.window_items == 0) {
      input.windows.push_back(
          Summarize(s.recent, recent_f1, recent_f2, config));
      // The next window reuses the slot of the one leaving the roll-up.
      auto& leaving = s.window_flows[(window + 1) % kReportWindows];
      for (std::uint32_t old : leaving) {
        recent_f2 -= 2.0 * s.recent[old]-- - 1.0;
        recent_f1 -= 1.0;
      }
      leaving.clear();
    }
  }
  input.digest = Mix64(digest ^ input.original_items);
  input.generator_storage = std::move(storage);
  return input;
}

}  // namespace substream::e2e
