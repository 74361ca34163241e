/// Wire-format harness: serialized size and encode/decode throughput for
/// every summary type at its default geometry, after ingesting the same
/// Zipf workload. One JSON row per type on stdout (same convention as
/// bench_ingest_scaling), so BENCH_*.json trajectories can track wire-size
/// regressions, and the README wire-size table is generated from here.
///
///   ./bench_serde [items] [repeats]
///
/// Output (one object per line):
///   {"bench":"serde","type":"CountMinSketch","wire_bytes":...,
///    "space_bytes":...,"encode_mb_per_sec":...,"decode_mb_per_sec":...}

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "core/entropy_estimator.h"
#include "core/f0_estimator.h"
#include "core/fk_estimator.h"
#include "core/heavy_hitters.h"
#include "core/monitor.h"
#include "serde/serde.h"
#include "sketch/ams_f2.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "sketch/entropy_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"
#include "sketch/level_sets.h"
#include "sketch/space_saving.h"
#include "stream/generators.h"

using namespace substream;

namespace {

std::size_t g_items = 1 << 18;
int g_repeats = 5;

Stream Workload() {
  static const Stream stream = [] {
    ZipfGenerator generator(1 << 16, 1.1, 7);
    return Materialize(generator, g_items);
  }();
  return stream;
}

template <typename S>
void Run(const char* name, S summary) {
  for (item_t a : Workload()) summary.Update(a);

  serde::Writer first;
  summary.Serialize(first);
  const std::vector<std::uint8_t> bytes = first.Take();
  const double mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);

  double encode_s = 1e300;
  for (int r = 0; r < g_repeats; ++r) {
    serde::Writer writer;
    bench::Stopwatch timer;
    summary.Serialize(writer);
    encode_s = std::min(encode_s, timer.Seconds());
    if (writer.size() != bytes.size()) {
      std::fprintf(stderr, "%s: non-deterministic encoding size\n", name);
      std::exit(1);
    }
  }

  double decode_s = 1e300;
  bool roundtrip_ok = true;
  for (int r = 0; r < g_repeats; ++r) {
    serde::Reader reader(bytes);
    bench::Stopwatch timer;
    auto decoded = S::Deserialize(reader);
    decode_s = std::min(decode_s, timer.Seconds());
    roundtrip_ok = roundtrip_ok && decoded.has_value() &&
                   reader.remaining() == 0;
  }
  if (!roundtrip_ok) {
    std::fprintf(stderr, "%s: roundtrip failed\n", name);
    std::exit(1);
  }

  std::printf(
      "{\"bench\":\"serde\",\"type\":\"%s\",\"wire_bytes\":%zu,"
      "\"space_bytes\":%zu,\"wire_vs_ram\":%.3f,"
      "\"encode_mb_per_sec\":%.1f,\"decode_mb_per_sec\":%.1f}\n",
      name, bytes.size(), summary.SpaceBytes(),
      summary.SpaceBytes() > 0
          ? static_cast<double>(bytes.size()) /
                static_cast<double>(summary.SpaceBytes())
          : 0.0,
      mb / encode_s, mb / decode_s);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) g_items = static_cast<std::size_t>(std::atoll(argv[1]));
  if (argc > 2) g_repeats = std::atoi(argv[2]);

  Run("CountMinSketch", CountMinSketch(CountMinParams{}, 3));
  Run("CountMinHeavyHitters", CountMinHeavyHitters(0.02, 0.25, 0.05, 3));
  Run("CountSketch", CountSketch(5, 1 << 12, 3));
  Run("CountSketchHeavyHitters", CountSketchHeavyHitters(0.05, 0.25, 0.05, 3));
  Run("AmsF2Sketch", AmsF2Sketch(0.1, 0.05, 3));
  Run("HyperLogLog", HyperLogLog(14, 3));
  Run("KmvSketch", KmvSketch(1024, 3));
  Run("SpaceSaving", SpaceSaving(256));
  Run("EntropyMleEstimator", EntropyMleEstimator());
  {
    LevelSetParams params;  // default geometry, universe-appropriate depth
    params.max_depth = 16;
    Run("IndykWoodruffEstimator", IndykWoodruffEstimator(params, 3));
  }
  Run("ExactLevelSets", ExactLevelSets(0.25, 0.5));
  {
    F0Params params;
    params.p = 0.1;
    Run("F0Estimator", F0Estimator(params, 3));
  }
  {
    FkParams params;
    params.p = 0.1;
    params.max_width = 1 << 12;
    Run("FkEstimator", FkEstimator(params, 3));
  }
  {
    EntropyParams params;
    params.p = 0.1;
    Run("EntropyEstimator", EntropyEstimator(params));
  }
  {
    HeavyHitterParams params;
    params.p = 0.1;
    Run("F1HeavyHitterEstimator", F1HeavyHitterEstimator(params, 3));
    Run("F2HeavyHitterEstimator", F2HeavyHitterEstimator(params, 3));
  }
  {
    MonitorConfig config;
    config.p = 0.1;
    config.universe = 1 << 16;
    config.max_f2_width = 1 << 12;
    Run("Monitor", Monitor(config, 3));
  }
  return 0;
}
