/// F2 conformance: Theorem 1's (eps, delta) promise for the Monitor's F2,
/// checked statistically instead of on one seed.
///
/// Grid: three original streams P (Zipf 1.1 over 2^16, Zipf 0.3 over 2^20,
/// uniform over 2^20; 2^20 items each) at sampling rates p in {1, 0.5, 0.1,
/// 0.01}. Each trial Bernoulli(p)-samples P with its own seed and feeds L
/// to an F2-only default Monitor with its own seed; the truth is the exact
/// F2(P). On the hot and flat p = 0.1 cells the same trials also run a
/// 3-way Merge of monitors fed contiguous thirds of L and a 3-shard
/// ShardedMonitor.
///
/// Pass rule: the promise is |err| <= eps with probability >= 1 - delta.
/// Over the trials, the number of misses must not exceed the most that a
/// one-sided binomial test at kSignificance allows for Binomial(trials,
/// delta). Cells below FkEstimator::MinSamplingProbability(2, m, n), where
/// Theorem 1 promises nothing, are skipped. A cell on kKnownMisses is a
/// recorded defect: the test asserts that it still misses, so a fix shows
/// up as a failure that asks for the entry to be removed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/fk_estimator.h"
#include "core/monitor.h"
#include "core/sharded_monitor.h"
#include "stream/exact_stats.h"
#include "stream/generators.h"
#include "stream/samplers.h"

namespace substream {
namespace {

constexpr std::size_t kStreamItems = std::size_t{1} << 20;
constexpr int kTrials = 30;
/// Significance of the one-sided binomial test on per-trial misses.
constexpr double kSignificance = 0.01;

struct Shape {
  const char* name;
  item_t universe;
  double zipf_s;  ///< 0 = uniform
};

constexpr Shape kShapes[] = {
    {"zipf1_1", item_t{1} << 16, 1.1},
    {"zipf0_3", item_t{1} << 20, 0.3},
    {"uniform", item_t{1} << 20, 0.0},
};
constexpr double kRates[] = {1.0, 0.5, 0.1, 0.01};

/// Cells that miss the promise today, named as the test prints them
/// ("<shape>_p<rate>/<subject>").
///
/// Flat traffic at p = 0.01: the 1 << 13 width cap binds (the analytic
/// width is 8 / (p eps^2) = 12800), and the row-norm noise of F2(L) is of
/// the order of the collision signal p^2 (F2(P) - F1(P)) it must resolve.
const std::set<std::string> kKnownMisses = {
    "zipf0_3_p0_01/monitor",
    "uniform_p0_01/monitor",
};

/// The most of `n` independent trials that may miss an (eps, delta)
/// promise before a one-sided binomial test rejects the promise: the
/// smallest k with P(X > k) < kSignificance, X ~ Binomial(n, delta).
std::size_t AllowedMisses(std::size_t n, double delta) {
  double pmf = std::pow(1.0 - delta, static_cast<double>(n));  // P(X = 0)
  double cdf = pmf;
  std::size_t k = 0;
  while (k < n && 1.0 - cdf >= kSignificance) {
    pmf *= static_cast<double>(n - k) / static_cast<double>(k + 1) * delta /
           (1.0 - delta);
    cdf += pmf;
    ++k;
  }
  return k;
}

struct Original {
  Stream items;
  double f2 = 0.0;
};

/// P for shape `s`, generated once per process.
const Original& OriginalFor(std::size_t s) {
  static std::map<std::size_t, Original> cache;
  auto it = cache.find(s);
  if (it != cache.end()) return it->second;
  const Shape& shape = kShapes[s];
  Original original;
  if (shape.zipf_s > 0.0) {
    ZipfGenerator generator(shape.universe, shape.zipf_s, 31 + s);
    original.items = Materialize(generator, kStreamItems);
  } else {
    UniformGenerator generator(shape.universe, 31 + s);
    original.items = Materialize(generator, kStreamItems);
  }
  original.f2 = ExactStats(original.items).Fk(2);
  return cache.emplace(s, std::move(original)).first->second;
}

MonitorConfig F2OnlyConfig(double p) {
  MonitorConfig config;
  config.p = p;
  config.enable_f0 = false;
  config.enable_entropy = false;
  config.enable_heavy_hitters = false;
  return config;
}

double SingleMonitorF2(const MonitorConfig& config, std::uint64_t seed,
                       const Stream& sampled) {
  Monitor monitor(config, seed);
  monitor.UpdateBatch(sampled.data(), sampled.size());
  return *monitor.Report().second_moment;
}

double MergedF2(const MonitorConfig& config, std::uint64_t seed,
                const Stream& sampled) {
  std::vector<Monitor> parts;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t begin = sampled.size() * k / 3;
    const std::size_t end = sampled.size() * (k + 1) / 3;
    parts.emplace_back(config, seed);
    parts.back().UpdateBatch(sampled.data() + begin, end - begin);
  }
  parts[0].Merge(parts[1]);
  parts[0].Merge(parts[2]);
  return *parts[0].Report().second_moment;
}

double ShardedF2(const MonitorConfig& config, std::uint64_t seed,
                 const Stream& sampled) {
  ShardedMonitorOptions options;
  options.shards = 3;
  options.pin_workers = false;
  ShardedMonitor sharded(config, seed, options);
  sharded.Ingest(sampled);
  return *sharded.Report().second_moment;
}

using Subject = double (*)(const MonitorConfig&, std::uint64_t, const Stream&);

class F2ConformanceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

std::string CellName(std::size_t s, double p) {
  char rate[16];
  std::snprintf(rate, sizeof(rate), "%g", p);
  std::string name = std::string(kShapes[s].name) + "_p" + rate;
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

TEST_P(F2ConformanceTest, PromiseHoldsOverSeededTrials) {
  const auto [s, p] = GetParam();
  const Original& original = OriginalFor(s);
  if (p < FkEstimator::MinSamplingProbability(2, kShapes[s].universe,
                                              original.items.size())) {
    GTEST_SKIP() << "below Theorem 1's feasibility threshold";
  }
  const MonitorConfig config = F2OnlyConfig(p);
  std::vector<std::pair<std::string, Subject>> subjects = {
      {"monitor", SingleMonitorF2}};
  if (p == 0.1 && kShapes[s].zipf_s > 0.0) {
    subjects.push_back({"merge3", MergedF2});
    subjects.push_back({"sharded3", ShardedF2});
  }
  std::map<std::string, std::vector<double>> errors;
  for (int trial = 0; trial < kTrials; ++trial) {
    BernoulliSampler sampler(p, 1000 + static_cast<std::uint64_t>(trial));
    const Stream sampled = sampler.Sample(original.items);
    const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(trial);
    for (const auto& [name, run] : subjects) {
      const double estimate = run(config, seed, sampled);
      errors[name].push_back(std::fabs(estimate - original.f2) /
                             original.f2);
    }
  }
  const std::size_t allowed = AllowedMisses(kTrials, config.delta);
  for (auto& [name, errs] : errors) {
    const std::string cell = CellName(s, p) + "/" + name;
    const std::size_t misses = static_cast<std::size_t>(
        std::count_if(errs.begin(), errs.end(),
                      [&](double e) { return e > config.epsilon; }));
    std::sort(errs.begin(), errs.end());
    std::printf("%-24s misses %zu/%d (allowed %zu)  median err %.4f  "
                "max err %.4f\n",
                cell.c_str(), misses, kTrials, allowed, errs[errs.size() / 2],
                errs.back());
    if (kKnownMisses.count(cell) != 0) {
      EXPECT_GT(misses, allowed)
          << cell << " now keeps its promise: drop it from kKnownMisses";
    } else {
      EXPECT_LE(misses, allowed)
          << cell << " misses eps = " << config.epsilon << " in " << misses
          << " of " << kTrials << " trials; delta = " << config.delta
          << " allows " << allowed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, F2ConformanceTest,
    ::testing::Combine(::testing::Range(std::size_t{0}, std::size(kShapes)),
                       ::testing::ValuesIn(kRates)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, double>>& info) {
      return CellName(std::get<0>(info.param), std::get<1>(info.param));
    });

}  // namespace
}  // namespace substream
