/// M1 (continued): end-to-end costs of the core estimators — update paths
/// (per sampled element) and estimate() calls. Theorem 1 claims O~(1)
/// update time and an estimate cost roughly linear in the structure size;
/// both are measured here.

#include <benchmark/benchmark.h>

#include "core/baselines.h"
#include "core/entropy_estimator.h"
#include "core/f0_estimator.h"
#include "core/fk_estimator.h"
#include "core/heavy_hitters.h"
#include "sketch/sketch.h"
#include "stream/generators.h"

namespace substream {
namespace {

Stream BenchStream(std::size_t n) {
  ZipfGenerator gen(1 << 16, 1.1, 3);
  return Materialize(gen, n);
}

FkParams SketchFkParams(int k) {
  FkParams params;
  params.k = k;
  params.p = 0.1;
  params.universe = 1 << 16;
  params.epsilon = 0.25;
  params.backend = CollisionBackend::kSketch;
  params.space_multiplier = 0.5;
  params.max_width = 4096;
  return params;
}

void BM_FkUpdateSketch(benchmark::State& state) {
  FkEstimator est(SketchFkParams(static_cast<int>(state.range(0))), 5);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    est.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FkUpdateSketch)->Arg(2)->Arg(4);

void BM_FkUpdateExactBackend(benchmark::State& state) {
  FkParams params = SketchFkParams(2);
  params.backend = CollisionBackend::kExactCollisions;
  FkEstimator est(params, 7);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    est.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FkUpdateExactBackend);

void BM_FkUpdateBatchSketch(benchmark::State& state) {
  FkEstimator est(SketchFkParams(static_cast<int>(state.range(0))), 5);
  Stream s = BenchStream(1 << 14);
  for (auto _ : state) {
    FeedItems(est, s.data(), s.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_FkUpdateBatchSketch)->Arg(2)->Arg(4);

void BM_FkEstimateSketch(benchmark::State& state) {
  FkEstimator est(SketchFkParams(2), 9);
  for (item_t a : BenchStream(1 << 15)) est.Update(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Estimate());
  }
}
BENCHMARK(BM_FkEstimateSketch);

void BM_F0Update(benchmark::State& state) {
  F0Params params;
  params.p = 0.1;
  params.backend =
      state.range(0) == 0 ? F0Backend::kKmv : F0Backend::kHyperLogLog;
  F0Estimator est(params, 11);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    est.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_F0Update)->Arg(0)->Arg(1);

void BM_EntropyUpdateMle(benchmark::State& state) {
  EntropyParams params;
  params.p = 0.1;
  EntropyEstimator est(params);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    est.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntropyUpdateMle);

void BM_F0UpdateBatch(benchmark::State& state) {
  F0Params params;
  params.p = 0.1;
  params.backend =
      state.range(0) == 0 ? F0Backend::kKmv : F0Backend::kHyperLogLog;
  F0Estimator est(params, 11);
  Stream s = BenchStream(1 << 14);
  for (auto _ : state) {
    FeedItems(est, s.data(), s.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_F0UpdateBatch)->Arg(0)->Arg(1);

void BM_F1HeavyHitterUpdate(benchmark::State& state) {
  HeavyHitterParams params;
  params.alpha = 0.05;
  params.epsilon = 0.25;
  params.p = 0.1;
  F1HeavyHitterEstimator est(params, 15);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    est.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_F1HeavyHitterUpdate);

void BM_F2HeavyHitterUpdate(benchmark::State& state) {
  HeavyHitterParams params;
  params.alpha = 0.2;
  params.epsilon = 0.25;
  params.p = 0.25;
  F2HeavyHitterEstimator est(params, 17);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    est.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_F2HeavyHitterUpdate);

void BM_RusuDobraUpdate(benchmark::State& state) {
  RusuDobraF2Estimator est(0.1, 5, static_cast<std::size_t>(state.range(0)),
                           19);
  Stream s = BenchStream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    est.Update(s[i++ & (s.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RusuDobraUpdate)->Arg(16)->Arg(128);

}  // namespace
}  // namespace substream

BENCHMARK_MAIN();
