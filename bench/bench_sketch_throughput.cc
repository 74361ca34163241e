/// M1 (Section 1.2): per-update cost of every sketch in the library. The
/// paper claims O~(1) update time per sampled item; these microbenchmarks
/// report ns/update (and bytes) for each substrate so the claim is
/// checkable on real hardware.
///
/// The *_Batch variants measure the batched UpdatePrehashed paths of the
/// mergeable-summary contract (row-major loops with hoisted hash state),
/// fed raw items through FeedItems, on the same workloads, and the
/// Monitor/ShardedMonitor benchmarks measure end-to-end ingestion;
/// `bench_ingest_scaling` emits the same comparison as JSON rows for
/// trajectory tracking. Run with --benchmark_format=json for
/// machine-readable output here too.

#include <benchmark/benchmark.h>

#include "core/monitor.h"
#include "core/sharded_monitor.h"

#include "sketch/ams_f2.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "sketch/entropy_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"
#include "sketch/level_sets.h"
#include "sketch/sketch.h"
#include "sketch/space_saving.h"
#include "stream/generators.h"
#include "stream/samplers.h"
#include "util/hash.h"

namespace substream {
namespace {

Stream BenchStream(std::size_t n) {
  ZipfGenerator gen(1 << 16, 1.1, 7);
  return Materialize(gen, n);
}

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = Mix64(x + 1));
  }
}
BENCHMARK(BM_Mix64);

void BM_PolynomialHash(benchmark::State& state) {
  PolynomialHash h(static_cast<int>(state.range(0)), 1);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Hash(++x));
  }
}
BENCHMARK(BM_PolynomialHash)->Arg(2)->Arg(4);

void BM_TabulationHash(benchmark::State& state) {
  TabulationHash h(1);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Hash(++x));
  }
}
BENCHMARK(BM_TabulationHash);

void BM_BernoulliSamplerKeep(benchmark::State& state) {
  BernoulliSampler sampler(0.1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Keep());
  }
}
BENCHMARK(BM_BernoulliSamplerKeep);

void BM_ZipfGenerate(benchmark::State& state) {
  ZipfGenerator gen(1 << 16, 1.1, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_ZipfGenerate);

void BM_CountMinUpdate(benchmark::State& state) {
  CountMinSketch cm(static_cast<int>(state.range(0)), 4096, 9);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    cm.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinUpdate)->Arg(4)->Arg(8);

void BM_CountSketchUpdate(benchmark::State& state) {
  CountSketch cs(static_cast<int>(state.range(0)), 4096, 11);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    cs.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountSketchUpdate)->Arg(5)->Arg(9);

void BM_CountMinUpdateBatch(benchmark::State& state) {
  CountMinSketch cm(static_cast<int>(state.range(0)), 4096, 9);
  Stream s = BenchStream(1 << 14);
  for (auto _ : state) {
    FeedItems(cm, s.data(), s.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_CountMinUpdateBatch)->Arg(4)->Arg(8);

void BM_CountSketchUpdateBatch(benchmark::State& state) {
  CountSketch cs(static_cast<int>(state.range(0)), 4096, 11);
  Stream s = BenchStream(1 << 14);
  for (auto _ : state) {
    FeedItems(cs, s.data(), s.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_CountSketchUpdateBatch)->Arg(5)->Arg(9);

void BM_AmsF2UpdateBatch(benchmark::State& state) {
  AmsF2Sketch ams = AmsF2Sketch::WithGeometry(
      5, static_cast<std::size_t>(state.range(0)), 15);
  Stream s = BenchStream(1 << 14);
  for (auto _ : state) {
    FeedItems(ams, s.data(), s.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_AmsF2UpdateBatch)->Arg(16)->Arg(128);

void BM_MonitorUpdate(benchmark::State& state) {
  MonitorConfig config;
  config.p = 0.1;
  config.universe = 1 << 16;
  config.max_f2_width = 1 << 12;
  Monitor monitor(config, 3);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    monitor.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorUpdate);

void BM_MonitorUpdateBatch(benchmark::State& state) {
  MonitorConfig config;
  config.p = 0.1;
  config.universe = 1 << 16;
  config.max_f2_width = 1 << 12;
  Monitor monitor(config, 3);
  Stream s = BenchStream(1 << 14);
  for (auto _ : state) {
    monitor.UpdateBatch(s.data(), s.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_MonitorUpdateBatch);

void BM_ShardedMonitorIngest(benchmark::State& state) {
  MonitorConfig config;
  config.p = 0.1;
  config.universe = 1 << 16;
  config.max_f2_width = 1 << 12;
  ShardedMonitorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  ShardedMonitor monitor(config, 3, options);
  Stream s = BenchStream(1 << 16);
  for (auto _ : state) {
    monitor.Ingest(s.data(), s.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_ShardedMonitorIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_CountSketchPointQuery(benchmark::State& state) {
  CountSketch cs(7, 4096, 13);
  Stream s = BenchStream(1 << 14);
  for (item_t a : s) cs.Update(a);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.Estimate(s[i++ & (s.size() - 1)]));
  }
}
BENCHMARK(BM_CountSketchPointQuery);

void BM_SpaceSavingUpdate(benchmark::State& state) {
  SpaceSaving ss(static_cast<std::size_t>(state.range(0)));
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    ss.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingUpdate)->Arg(64)->Arg(1024);

void BM_AmsF2Update(benchmark::State& state) {
  AmsF2Sketch ams = AmsF2Sketch::WithGeometry(
      5, static_cast<std::size_t>(state.range(0)), 15);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    ams.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AmsF2Update)->Arg(16)->Arg(128);

void BM_KmvUpdate(benchmark::State& state) {
  KmvSketch kmv(1024, 17);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    kmv.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KmvUpdate);

void BM_HyperLogLogUpdate(benchmark::State& state) {
  HyperLogLog hll(14, 19);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    hll.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperLogLogUpdate);

void BM_IndykWoodruffUpdate(benchmark::State& state) {
  LevelSetParams params;
  params.cs_width = static_cast<std::uint64_t>(state.range(0));
  params.cs_depth = 5;
  params.max_depth = 16;
  IndykWoodruffEstimator iw(params, 23);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    iw.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndykWoodruffUpdate)->Arg(512)->Arg(4096);

}  // namespace
}  // namespace substream

BENCHMARK_MAIN();
