/// One-hash-per-item pipeline benchmark: items/sec for the three ingest
/// paths — scalar Update, raw items in batches (chunked prehash inside:
/// Monitor::UpdateBatch, FeedItems for a bare sketch), and caller-prehashed
/// item/hash columns through UpdatePrehashed — per summary class and for
/// the full Monitor, over the same Zipf workload.
///
///   ./bench_pipeline [items] [repeats]
///
/// Also walks the SIMD dispatch ladder: for every level the host supports
/// (scalar, avx2, avx512 — see sketch/counter_kernels.h) it re-measures the
/// CounterTable/CountSketch ingest kernels and the raw bucket/sign
/// derivation kernels with dispatch forced to that level.
///
/// A planner A/B section compares a Monitor whose geometry the accuracy-
/// budget planner solved from {budget = hand-picked footprint} against the
/// hand-picked geometry itself: equal memory, same ingest path, with the
/// Health()-bound and empirically measured F2 epsilon on every row.
///
/// One JSON object per line on stdout; CI redirects the output into
/// BENCH_ingest.json, validates it with bench/check_bench.py and uploads it
/// as an artifact, so the speedup trajectory is comparable across commits.
/// Every row carries the dispatch level it ran under plus compiler/build
/// tags:
///   {"bench":"pipeline","target":"monitor","mode":"prehashed",...,
///    "isa":"avx512","compiler":"gcc-12.2","build":"release"}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "core/monitor.h"
#include "obs/metrics.h"
#include "plan/compiler.h"
#include "plan/plan.h"
#include "sketch/counter_kernels.h"
#include "sketch/counter_table.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"
#include "sketch/sketch.h"
#include "stream/exact_stats.h"
#include "stream/generators.h"
#include "util/hash.h"
#include "util/random.h"
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

/// Cell-width ladder row: like EmitRow but tagged with the physical cell
/// width, and its speedup denominator is the same-ISA 64-bit-cell rate so
/// the row reads directly as "narrow cells buy this much at this level".
void EmitCellRow(const char* target, const char* mode, std::size_t items,
                 double items_per_sec, double wide_baseline, int cell_bits) {
  std::printf(
      "{\"bench\":\"pipeline\",\"target\":\"%s\",\"mode\":\"%s\","
      "\"cell_bits\":%d,\"items\":%zu,\"items_per_sec\":%.0f,"
      "\"speedup_vs_64bit\":%.3f,%s}\n",
      target, mode, cell_bits, items, items_per_sec,
      wide_baseline > 0.0 ? items_per_sec / wide_baseline : 0.0,
      bench::RowTags(simd::Name(kernels::ActiveIsa())).c_str());
}

void EmitRow(const char* target, const char* mode, std::size_t items,
             double items_per_sec, double scalar_baseline) {
  // Every row carries the dispatch level it ran under plus compiler/build
  // tags, so BENCH_ingest.json rows are comparable across hosts and the
  // per-ISA kernel section below can be told apart from the default-level
  // summary rows.
  std::printf(
      "{\"bench\":\"pipeline\",\"target\":\"%s\",\"mode\":\"%s\","
      "\"items\":%zu,\"items_per_sec\":%.0f,\"speedup_vs_scalar\":%.3f,"
      "%s}\n",
      target, mode, items, items_per_sec,
      scalar_baseline > 0.0 ? items_per_sec / scalar_baseline : 0.0,
      bench::RowTags(simd::Name(kernels::ActiveIsa())).c_str());
}

/// Times `run(target)` best-of-`repeats` over a fresh `make()` instance per
/// run, returns items/sec. Construction happens OUTSIDE the timed region:
/// a Monitor zero-fills megabytes of counter tables, which would otherwise
/// dominate small-item runs and corrupt the artifact rows.
template <typename Make, typename Run>
double BestRate(int repeats, std::size_t items, Make make, Run run) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    auto target = make();
    bench::Stopwatch timer;
    run(target);
    best = std::max(best, static_cast<double>(items) / timer.Seconds());
  }
  return best;
}

/// The "batch" row's entry point: raw items in, chunked prehash inside.
template <typename S>
void FeedBatch(S& summary, const Stream& s) {
  FeedItems(summary, s.data(), s.size());
}
void FeedBatch(Monitor& monitor, const Stream& s) {
  monitor.UpdateBatch(s.data(), s.size());
}

/// Benchmarks one summary across scalar / batch / prehashed and emits the
/// three rows. `make` constructs a fresh instance per timing run; `cols`
/// holds the item/hash columns of `s`.
template <typename Make>
void BenchSummary(const char* target, int repeats, const Stream& s,
                  PrehashedColumns cols, Make make) {
  const double scalar = BestRate(repeats, s.size(), make, [&](auto& sk) {
    for (item_t a : s) sk.Update(a);
  });
  EmitRow(target, "scalar", s.size(), scalar, scalar);

  const double batch = BestRate(repeats, s.size(), make,
                                [&](auto& sk) { FeedBatch(sk, s); });
  EmitRow(target, "batch", s.size(), batch, scalar);

  const double prehashed = BestRate(repeats, s.size(), make, [&](auto& sk) {
    sk.UpdatePrehashed(cols, s.size());
  });
  EmitRow(target, "prehashed", s.size(), prehashed, scalar);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t items =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : (1u << 21);
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;

  ZipfGenerator generator(1 << 16, 1.1, 7);
  const Stream sampled = Materialize(generator, items);
  // The prehash column of the stream; the item column is the stream itself
  // (the ShardedMonitor batch layout).
  std::vector<std::uint64_t> hash_col(sampled.size());
  PrehashColumnSoA(sampled.data(), sampled.size(), hash_col.data());
  const PrehashedColumns cols{sampled.data(), hash_col.data()};

  // --- Individual counter-table sketches.
  BenchSummary("countmin", repeats, sampled, cols,
               [] { return CountMinSketch(4, 4096, 3); });
  BenchSummary("countsketch", repeats, sampled, cols,
               [] { return CountSketch(5, 4096, 3); });

  // --- Per-ISA kernel ladder: the same hot loops re-measured with kernel
  // dispatch forced to every level this host supports. "kernel" rows are
  // the end-to-end batched row passes (CounterTable::AddPrehashed — the
  // CountMin ingest kernel — and CountSketch's fused bucket+sign ingest).
  // Their speedup_vs_scalar denominator is the per-item Update rate
  // re-measured under FORCED scalar dispatch (the rows above run at the
  // host's default level), so a ladder row means the same thing on every
  // host regardless of what CPUID picked. "kernel_raw" rows are the
  // bucket/sign derivation kernels alone (no counter traffic), reported
  // against the scalar level of the same kernel so the lane-level speedup
  // is visible undiluted by the shared increment replay.
  {
    constexpr std::size_t kRawBlock = 1024;
    static std::uint64_t raw_idx[kRawBlock];
    static std::int64_t raw_sgn[kRawBlock];
    const std::uint64_t sign_coeffs[4] = {123456789ULL, 2718281828ULL,
                                          31415926535ULL, 1414213562ULL};
    const std::size_t raw_items = (sampled.size() / kRawBlock) * kRawBlock;
    double bucket_row_scalar = 0.0;
    double sign_row4_scalar = 0.0;
    // Restored after the ladder: the sections above/below must honor the
    // entry-time level (which a SKETCH_SIMD override may have forced).
    const simd::Isa entry_isa = kernels::ActiveIsa();
    kernels::SetActive(simd::Isa::kScalar);
    const double countmin_scalar = BestRate(
        repeats, items,
        [] { return CountMinSketch(4, 4096, 3); },
        [&](auto& sk) {
          for (item_t a : sampled) sk.Update(a);
        });
    const double countsketch_scalar = BestRate(
        repeats, items, [] { return CountSketch(5, 4096, 3); },
        [&](auto& sk) {
          for (item_t a : sampled) sk.Update(a);
        });
    for (simd::Isa isa : kernels::AvailableIsas()) {
      if (!kernels::SetActive(isa)) continue;
      const double cm = BestRate(
          repeats, items, [] { return CounterTable<count_t>(4, 4096, 3); },
          [&](auto& table) {
            table.AddPrehashed(hash_col.data(), hash_col.size());
          });
      EmitRow("countmin", "kernel", items, cm, countmin_scalar);
      const double cs = BestRate(
          repeats, items, [] { return CountSketch(5, 4096, 3); },
          [&](auto& sk) { sk.UpdatePrehashed(cols, sampled.size()); });
      EmitRow("countsketch", "kernel", items, cs, countsketch_scalar);

      // Cell-width ladder: the same CountMin ingest kernel at every
      // physical cell width, at a dense cache-pressure geometry (4 x 2^16
      // cells, matching the stream universe: 2 MiB of 64-bit counters vs
      // 256 KiB of 8-bit ones) so every touched line is shared and the rows
      // show what compact cells buy via footprint. Buckets use the one
      // production reduction, fast-range. The denominator is the same-ISA
      // 64-bit rate, measured first.
      {
        double cells_wide = 0.0;
        for (CellWidth cw : {CellWidth::k64, CellWidth::k32, CellWidth::k16,
                             CellWidth::k8}) {
          const double rate = BestRate(
              repeats, items,
              [cw] {
                return CounterTable<count_t>(4, std::uint64_t{1} << 16, 3,
                                             cw);
              },
              [&](auto& table) {
                table.AddPrehashed(hash_col.data(), hash_col.size());
              });
          if (cw == CellWidth::k64) cells_wide = rate;
          EmitCellRow("countmin", "kernel_cells", items, rate, cells_wide,
                      CellBits(cw));
        }
      }

      const kernels::KernelTable& kt = kernels::Dispatch();
      const double braw = BestRate(
          repeats, raw_items, [] { return 0; },
          [&](int&) {
            for (std::size_t b = 0; b < raw_items; b += kRawBlock) {
              kt.bucket_row_cols(hash_col.data() + b, kRawBlock,
                                 0x9e3779b97f4a7c15ULL, 4096, raw_idx);
            }
          });
      if (isa == simd::Isa::kScalar) bucket_row_scalar = braw;
      EmitRow("bucket_row", "kernel_raw", raw_items, braw, bucket_row_scalar);
      const double sraw = BestRate(
          repeats, raw_items, [] { return 0; },
          [&](int&) {
            for (std::size_t b = 0; b < raw_items; b += kRawBlock) {
              kt.sign_row4_cols(sampled.data() + b, kRawBlock, sign_coeffs,
                                raw_sgn);
            }
          });
      if (isa == simd::Isa::kScalar) sign_row4_scalar = sraw;
      EmitRow("sign_row4", "kernel_raw", raw_items, sraw, sign_row4_scalar);
    }
    // Back to the entry-time level for the Monitor section below.
    kernels::SetActive(entry_isa);
  }

  BenchSummary("hyperloglog", repeats, sampled, cols,
               [] { return HyperLogLog(14, 3); });
  BenchSummary("kmv", repeats, sampled, cols,
               [] { return KmvSketch(1024, 3); });

  // --- The full Monitor: the paper's many-estimators-one-pass facade.
  BenchSummary("monitor", repeats, sampled, cols,
               [] { return Monitor(BenchConfig(), 3); });

  // --- Planner A/B: the accuracy-budget planner handed EXACTLY the bytes
  // the hand-picked geometry spends, vs that hand-picked geometry, on the
  // same ingest path. Both rows carry the shared budget, the model's
  // planned_bytes, the Health()-reported F2 epsilon bound
  // (target_epsilon) and the empirical F2 relative error on this workload
  // (measured_epsilon), so one artifact line answers "did the planner's
  // spend of the same memory hold its promised accuracy at the same
  // speed". The handpicked row is its own speedup denominator, so the
  // planned row's speedup_vs_scalar reads directly as planned/handpicked.
  {
    FrequencyTable exact;
    exact.AddStream(sampled);
    const double f2_exact = exact.Fk(2);

    // p = 1: the bench stream is fed unsampled, so the report's estimate
    // targets the fed stream itself and measured_epsilon is well defined.
    // Entropy is off on both sides: its frequency map grows with the data
    // (not a plannable fixed geometry), so it would blur the equal-memory
    // claim.
    MonitorConfig handpicked_config = BenchConfig();
    handpicked_config.p = 1.0;
    handpicked_config.enable_entropy = false;
    Monitor probe(handpicked_config, 3);
    probe.UpdateBatch(sampled.data(), sampled.size());
    const std::size_t budget = probe.SpaceBytes();

    MonitorConfig planned_config;
    planned_config.p = 1.0;
    planned_config.enable_entropy = false;
    planned_config.universe = handpicked_config.universe;
    planned_config.hh_alpha = handpicked_config.hh_alpha;
    plan::PlanSpec spec;
    spec.budget_bytes = budget;  // equal memory, best-effort targets
    spec.f0_hint = static_cast<double>(exact.F0());
    spec.n_hint = static_cast<double>(sampled.size());
    planned_config.plan = spec;
    const auto plan = plan::PlanFor(planned_config);

    const auto f2_health_epsilon = [](const Monitor& monitor) {
      for (const auto& summary : monitor.Health().summaries) {
        if (summary.name == "f2") return summary.epsilon;
      }
      return 0.0;
    };
    const auto f2_measured_epsilon = [&](const Monitor& monitor) {
      const MonitorReport report = monitor.Report();
      if (!report.second_moment || f2_exact <= 0.0) return 0.0;
      return std::fabs(*report.second_moment - f2_exact) / f2_exact;
    };
    const auto emit = [&](const char* mode, const MonitorConfig& config,
                          std::size_t planned_bytes, double rate,
                          double denominator) {
      Monitor filled(config, 3);
      filled.UpdateBatch(sampled.data(), sampled.size());
      std::printf(
          "{\"bench\":\"pipeline\",\"target\":\"planner\",\"mode\":\"%s\","
          "\"items\":%zu,\"items_per_sec\":%.0f,\"speedup_vs_scalar\":%.3f,"
          "\"budget_bytes\":%zu,\"planned_bytes\":%zu,"
          "\"target_epsilon\":%.4f,\"measured_epsilon\":%.4f,%s}\n",
          mode, sampled.size(), rate,
          denominator > 0.0 ? rate / denominator : 0.0, budget, planned_bytes,
          f2_health_epsilon(filled), f2_measured_epsilon(filled),
          bench::RowTags(simd::Name(kernels::ActiveIsa())).c_str());
    };

    const double handpicked_rate = BestRate(
        repeats, items, [&] { return Monitor(handpicked_config, 3); },
        [&](Monitor& monitor) {
          monitor.UpdateBatch(sampled.data(), sampled.size());
        });
    emit("handpicked", handpicked_config, budget, handpicked_rate,
         handpicked_rate);
    const double planned_rate = BestRate(
        repeats, items, [&] { return Monitor(planned_config, 3); },
        [&](Monitor& monitor) {
          monitor.UpdateBatch(sampled.data(), sampled.size());
        });
    emit("planned", planned_config, plan ? plan->planned_bytes : 0,
         planned_rate, handpicked_rate);
  }

  // --- Sampled ingest (NitroSketch mode): geometric-skip admission over
  // the raw stream, survivors prehashed in chunks and applied through
  // Monitor::UpdatePrehashed with the unbiased weight round(1/p).
  // Rates are per ORIGINAL item — the producer-side view, where skipped
  // items pay only the skip countdown — so the p = 1/64 row reads directly
  // as the line-rate headroom overload shedding buys. Each row carries the
  // sample-widened F2 promise (the Health() geometric bound plus
  // plan::SampledEpsilon) as target_epsilon and the empirical F2 relative
  // error under that sampling rate as measured_epsilon; perf-smoke asserts
  // measured stays within the promise and that shedding actually buys
  // throughput.
  {
    FrequencyTable exact;
    exact.AddStream(sampled);
    const double f2_exact = exact.Fk(2);

    // p = 1 so the estimates target the fed stream itself and
    // measured_epsilon is well defined (as in the planner A/B above).
    MonitorConfig config = BenchConfig();
    config.p = 1.0;

    constexpr std::size_t kChunk = 1024;
    const auto sampled_ingest = [&](Monitor& monitor, count_t weight) {
      const double p = 1.0 / static_cast<double>(weight);
      Rng rng(42);
      item_t survivors[kChunk];
      std::uint64_t hashes[kChunk];
      std::size_t fill = 0;
      std::uint64_t skip = weight == 1 ? 0 : rng.NextGeometric(p);
      for (item_t a : sampled) {
        if (weight > 1) {
          if (skip > 0) {
            --skip;
            continue;
          }
          skip = rng.NextGeometric(p);
        }
        survivors[fill++] = a;
        if (fill == kChunk) {
          PrehashColumnSoA(survivors, fill, hashes);
          monitor.UpdatePrehashed(PrehashedColumns{survivors, hashes}, fill,
                                  weight);
          fill = 0;
        }
      }
      if (fill > 0) {
        PrehashColumnSoA(survivors, fill, hashes);
        monitor.UpdatePrehashed(PrehashedColumns{survivors, hashes}, fill,
                                weight);
      }
    };

    double exact_rate = 0.0;
    for (const count_t weight : {count_t{1}, count_t{8}, count_t{64}}) {
      const double rate = BestRate(
          repeats, items, [&] { return Monitor(config, 3); },
          [&](Monitor& monitor) { sampled_ingest(monitor, weight); });
      if (weight == 1) exact_rate = rate;

      // Accuracy of the estimate under this rate, on a filled monitor.
      Monitor filled(config, 3);
      sampled_ingest(filled, weight);
      const obs::HealthReport health = filled.Health();
      double f2_epsilon = 0.0;
      for (const auto& summary : health.summaries) {
        if (summary.name == "f2") f2_epsilon = summary.epsilon;
      }
      const double target_epsilon = f2_epsilon + health.sampled_epsilon;
      const MonitorReport report = filled.Report();
      const double measured_epsilon =
          report.second_moment && f2_exact > 0.0
              ? std::fabs(*report.second_moment - f2_exact) / f2_exact
              : 0.0;
      std::printf(
          "{\"bench\":\"pipeline\",\"target\":\"monitor\","
          "\"mode\":\"sampled\",\"sample_rate\":%.6f,\"items\":%zu,"
          "\"items_per_sec\":%.0f,\"speedup_vs_scalar\":%.3f,"
          "\"target_epsilon\":%.4f,\"measured_epsilon\":%.4f,%s}\n",
          1.0 / static_cast<double>(weight), sampled.size(), rate,
          exact_rate > 0.0 ? rate / exact_rate : 0.0, target_epsilon,
          measured_epsilon,
          bench::RowTags(simd::Name(kernels::ActiveIsa())).c_str());
    }
  }

  // --- Telemetry overhead: the same Monitor batched ingest, plain vs
  // wrapped in exactly the per-batch probes the pipeline layer adds (one
  // ScopedTimer observation plus two counter increments per batch — the
  // instrumentation granularity of ShardedMonitor's worker loop; telemetry
  // never sits inside per-item sketch loops). speedup_vs_scalar reads as
  // instrumented/plain, so a value near 1.0 IS the overhead budget this
  // row exists to pin; with SKETCH_DISABLE_TELEMETRY the probes compile to
  // nothing and the ratio measures pure noise. perf-smoke asserts the row
  // is present and the ratio stays sane.
  {
    constexpr std::size_t kBatch = 4096;
    const auto batched_ingest = [&](Monitor& monitor) {
      for (std::size_t i = 0; i < sampled.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, sampled.size() - i);
        monitor.UpdateBatch(sampled.data() + i, n);
      }
    };
    const double plain =
        BestRate(repeats, items, [] { return Monitor(BenchConfig(), 3); },
                 batched_ingest);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    obs::Counter& batches = registry.GetCounter("bench_ingest_batches_total");
    obs::Counter& ingested = registry.GetCounter("bench_ingest_items_total");
    obs::Histogram& batch_ns =
        registry.GetHistogram("bench_ingest_batch_duration_ns");
    const double instrumented = BestRate(
        repeats, items, [] { return Monitor(BenchConfig(), 3); },
        [&](Monitor& monitor) {
          for (std::size_t i = 0; i < sampled.size(); i += kBatch) {
            const std::size_t n = std::min(kBatch, sampled.size() - i);
            obs::ScopedTimer timer(batch_ns);
            monitor.UpdateBatch(sampled.data() + i, n);
            batches.Inc();
            ingested.Inc(n);
          }
        });
    EmitRow("monitor", "metrics_overhead", items, instrumented, plain);
  }

  return 0;
}
