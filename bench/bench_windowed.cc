/// Windowed/decayed monitoring benchmark: rotation cost and merge-at-query
/// latency for the WindowedMonitor ring, the Monitor::Report() readout of
/// the merged windows on its own, plus the sharded pipeline's stall-free
/// Rotate() and CollectWindow() costs — the numbers behind the README's
/// rotation cost model.
///
///   ./bench_windowed [items_per_window] [windows] [repeats]
///
/// One JSON object per line on stdout; CI redirects the output into
/// BENCH_windowed.json, validates the rows and uploads the artifact so the
/// rotation/query cost trajectory is comparable across commits:
///   {"bench":"windowed","target":"windowed_monitor","mode":"rotate",...}

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/sharded_monitor.h"
#include "core/windowed_monitor.h"
#include "sketch/counter_kernels.h"
#include "stream/generators.h"
#include "util/simd.h"

using namespace substream;

namespace {

MonitorConfig BenchConfig() {
  MonitorConfig config;
  config.p = 0.1;
  config.universe = 1 << 16;
  config.hh_alpha = 0.02;
  config.max_f2_width = 1 << 12;
  return config;
}

void EmitRow(const char* target, const char* mode, std::size_t windows,
             std::size_t items, double ns_per_op, double ops_per_sec) {
  // isa/compiler/build tags make BENCH_windowed.json rows comparable
  // across hosts (rotation cost depends on the active kernel level through
  // the Reset/merge passes).
  std::printf(
      "{\"bench\":\"windowed\",\"target\":\"%s\",\"mode\":\"%s\","
      "\"windows\":%zu,\"items\":%zu,\"ns_per_op\":%.0f,"
      "\"ops_per_sec\":%.1f,%s}\n",
      target, mode, windows, items, ns_per_op, ops_per_sec,
      bench::RowTags(simd::Name(kernels::ActiveIsa())).c_str());
}

/// Times `op()` run `reps` times, returns best-of-`repeats` ns/op.
template <typename Op>
double BestNsPerOp(int repeats, std::size_t reps, Op op) {
  double best_ns = 0.0;
  for (int r = 0; r < repeats; ++r) {
    bench::Stopwatch timer;
    for (std::size_t i = 0; i < reps; ++i) op();
    const double ns = timer.Seconds() * 1e9 / static_cast<double>(reps);
    best_ns = (r == 0) ? ns : std::min(best_ns, ns);
  }
  return best_ns;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t items_per_window =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : (1u << 16);
  const std::size_t windows =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8;
  const int repeats = argc > 3 ? std::atoi(argv[3]) : 3;

  ZipfGenerator generator(1 << 16, 1.1, 7);
  const Stream window_items = Materialize(generator, items_per_window);
  const MonitorConfig config = BenchConfig();

  // --- WindowedMonitor: steady-state rotation (ring at capacity, so each
  // Rotate() is an eviction + Reset reuse) with a window of ingest between
  // rotations, measured separately from the ingest itself.
  {
    WindowedMonitorOptions options;
    options.windows = windows;
    WindowedMonitor ring(config, /*seed=*/3, options);
    // Warm to capacity so rotation measures the steady-state eviction path
    // (Reset-and-reuse of the oldest window's allocations).
    for (std::size_t w = 0; w < windows; ++w) {
      ring.UpdateBatch(window_items.data(), window_items.size());
      ring.Rotate();
    }
    // Time ONLY the Rotate() calls; the per-window ingest between them is
    // outside the stopwatch.
    double rotate_best_ns = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
      double total_ns = 0.0;
      for (std::size_t w = 0; w < windows; ++w) {
        ring.UpdateBatch(window_items.data(), window_items.size());
        bench::Stopwatch timer;
        ring.Rotate();
        total_ns += timer.Seconds() * 1e9;
      }
      const double ns = total_ns / static_cast<double>(windows);
      rotate_best_ns = (rep == 0) ? ns : std::min(rotate_best_ns, ns);
    }
    EmitRow("windowed_monitor", "rotate", windows, items_per_window,
            rotate_best_ns, 1e9 / rotate_best_ns);

    // Merge-at-query latency over the last k windows, plus decayed mode.
    std::vector<std::size_t> ks{1, std::min<std::size_t>(windows, 4),
                                windows};
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    for (std::size_t k : ks) {
      char mode[32];
      std::snprintf(mode, sizeof(mode), "report_k%zu", k);
      const double query_ns =
          BestNsPerOp(repeats, 3, [&] { (void)ring.Report(k); });
      EmitRow("windowed_monitor", mode, windows, items_per_window, query_ns,
              1e9 / query_ns);
    }
    // Readout alone: Report() on the monitor merged over every retained
    // window, the merge outside the stopwatch.
    const Monitor merged = ring.MergedOverLast(windows);
    const double readout_ns =
        BestNsPerOp(repeats, 3, [&] { (void)merged.Report(); });
    EmitRow("monitor", "report", windows, items_per_window, readout_ns,
            1e9 / readout_ns);

    WindowedMonitorOptions decay_options;
    decay_options.windows = windows;
    decay_options.decay = 0.8;
    WindowedMonitor decayed(config, /*seed=*/3, decay_options);
    for (std::size_t w = 0; w < windows; ++w) {
      decayed.UpdateBatch(window_items.data(), window_items.size());
      decayed.Rotate();
    }
    const double decay_ns =
        BestNsPerOp(repeats, 3, [&] { (void)decayed.ReportDecayed(); });
    EmitRow("windowed_monitor", "report_decayed", windows, items_per_window,
            decay_ns, 1e9 / decay_ns);
  }

  // --- ShardedMonitor: the stall-free rotation itself (flush + one marker
  // per shard) and the cost of collecting a rotated window.
  {
    ShardedMonitorOptions options;
    options.shards = 4;
    ShardedMonitor sharded(config, /*seed=*/3, options);
    double rotate_total_ns = 0.0;
    double collect_total_ns = 0.0;
    const std::size_t rounds = std::max<std::size_t>(windows, 4);
    for (std::size_t w = 0; w < rounds; ++w) {
      sharded.Ingest(window_items.data(), window_items.size());
      // Rotate() is the stall-free path: flush + one marker per shard.
      bench::Stopwatch rotate_timer;
      sharded.Rotate();
      rotate_total_ns += rotate_timer.Seconds() * 1e9;
      // Let the workers pass the boundary before timing the collection, so
      // collect_window measures the mailbox merge rather than how long the
      // workers take to chew the epoch's backlog.
      sharded.Drain();
      bench::Stopwatch collect_timer;
      auto window = sharded.CollectWindow(sharded.CurrentEpoch() - 1);
      collect_total_ns += collect_timer.Seconds() * 1e9;
      if (!window) return 1;
    }
    const double rotate_ns = rotate_total_ns / static_cast<double>(rounds);
    const double collect_ns = collect_total_ns / static_cast<double>(rounds);
    EmitRow("sharded_monitor", "rotate", rounds, items_per_window, rotate_ns,
            1e9 / rotate_ns);
    EmitRow("sharded_monitor", "collect_window", rounds, items_per_window,
            collect_ns, 1e9 / collect_ns);
  }

  return 0;
}
