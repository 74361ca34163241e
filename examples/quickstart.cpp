/// Quickstart: estimate statistics of a stream you never saw.
///
/// A monitor observes only a Bernoulli(p) sample L of an original stream P
/// (the "Randomly Sampled NetFlow" situation from the paper's intro). This
/// example generates P, samples it at p = 10%, runs the library's four
/// estimator families over L in a single pass, and compares with the exact
/// values of P.
///
/// Every estimator here follows the mergeable-summary contract
/// (sketch/sketch.h): besides the item-at-a-time Update used below for the
/// sampling loop, each supports UpdatePrehashed(cols, n) for prehashed
/// item/hash column batches, Merge(other) for combining same-seeded
/// summaries built on different machines or threads (see
/// examples/distributed_monitors.cpp and ShardedMonitor in
/// core/sharded_monitor.h), and Reset() for reusing a summary across
/// measurement windows. The Monitor facade at the end shows
/// the batched one-object version of the same pipeline.
///
///   ./quickstart [p] [n]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/substream.h"

using namespace substream;

int main(int argc, char** argv) {
  const double p = argc > 1 ? std::atof(argv[1]) : 0.1;
  const std::size_t n = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2]))
                                 : (1u << 20);
  const item_t universe = 1 << 16;
  std::printf("substream quickstart: n=%zu, universe=%llu, p=%.3f\n\n", n,
              static_cast<unsigned long long>(universe), p);

  // 1. The original stream P (we only materialize it to compute ground
  //    truth; the estimators never see it).
  ZipfGenerator generator(universe, 1.1, /*seed=*/42);
  Stream original = Materialize(generator, n);
  FrequencyTable exact = ExactStats(original);

  // 2. The estimators, all configured with the sampling probability p.
  FkParams fk_params;
  fk_params.k = 2;
  fk_params.p = p;
  fk_params.universe = universe;
  fk_params.backend = CollisionBackend::kSketch;
  fk_params.epsilon = 0.2;
  fk_params.max_width = 1 << 14;
  FkEstimator f2(fk_params, /*seed=*/1);

  F0Params f0_params;
  f0_params.p = p;
  F0Estimator f0(f0_params, /*seed=*/2);

  EntropyParams h_params;
  h_params.p = p;
  h_params.n_hint = static_cast<double>(n);
  EntropyEstimator entropy(h_params);

  HeavyHitterParams hh_params;
  hh_params.alpha = 0.02;
  hh_params.epsilon = 0.25;
  hh_params.p = p;
  F1HeavyHitterEstimator heavy(hh_params, /*seed=*/4);

  // 3. One pass over the sampled stream L.
  BernoulliSampler sampler(p, /*seed=*/5);
  for (item_t a : original) {
    if (!sampler.Keep()) continue;
    f2.Update(a);
    f0.Update(a);
    entropy.Update(a);
    heavy.Update(a);
  }

  // 4. Results.
  std::printf("%-22s %15s %15s %10s\n", "statistic", "estimate", "exact",
              "rel.err");
  auto report = [](const char* name, double est, double truth) {
    std::printf("%-22s %15.4g %15.4g %9.1f%%\n", name, est, truth,
                100.0 * RelativeError(est, truth));
  };
  report("F2 (repeat rate)", f2.Estimate(), exact.Fk(2));
  report("F0 (distinct items)", f0.Estimate(),
         static_cast<double>(exact.F0()));
  const EntropyResult h = entropy.Estimate();
  report("entropy (bits)", h.entropy, exact.Entropy());
  std::printf("  entropy guarantee %s (threshold %.3f)\n",
              h.reliable ? "in force" : "NOT in force", h.threshold);
  std::printf("  F0 worst-case factor bound: %.2f\n", f0.ErrorFactorBound());

  std::printf("\nheavy hitters (alpha=%.2f):\n", hh_params.alpha);
  std::printf("%-12s %15s %15s\n", "item", "est.freq", "exact freq");
  for (const HeavyHitter& hit : heavy.Estimate()) {
    std::printf("%-12llu %15.0f %15llu\n",
                static_cast<unsigned long long>(hit.item),
                hit.estimated_frequency,
                static_cast<unsigned long long>(exact.Frequency(hit.item)));
  }

  std::printf("\nspace used: F2 sketch %zu KB, F0 %zu B, entropy %zu KB,"
              " heavy hitters %zu KB\n",
              f2.SpaceBytes() / 1024, f0.SpaceBytes(),
              entropy.SpaceBytes() / 1024, heavy.SpaceBytes() / 1024);

  // 5. The same pipeline through the Monitor facade, fed in batches: one
  //    UpdateBatch call per buffer of sampled elements prehashes it once
  //    and fans the columns out to every enabled estimator's batch loop.
  MonitorConfig monitor_config;
  monitor_config.p = p;
  monitor_config.universe = universe;
  monitor_config.n_hint = static_cast<double>(n);
  monitor_config.hh_alpha = hh_params.alpha;
  Monitor monitor(monitor_config, /*seed=*/6);
  BernoulliSampler monitor_sampler(p, /*seed=*/7);
  const Stream sampled = monitor_sampler.Sample(original);
  monitor.UpdateBatch(sampled.data(), sampled.size());
  const MonitorReport window = monitor.Report();
  std::printf("\nmonitor facade (batched ingestion of %zu sampled items):\n",
              sampled.size());
  std::printf("  F0 %.4g | F2 %.4g | H %.3f bits | %zu heavy hitters"
              " | %zu KB total\n",
              window.distinct_items.value_or(0.0),
              window.second_moment.value_or(0.0),
              window.entropy ? window.entropy->entropy : 0.0,
              window.heavy_hitters ? window.heavy_hitters->size() : 0,
              monitor.SpaceBytes() / 1024);
  return 0;
}
