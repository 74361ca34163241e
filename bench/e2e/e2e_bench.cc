/// End-to-end benchmark of the sub-sampled-stream collector: the repo
/// benchmark described by BENCHMARK.json and bench/e2e/README.md.
///
///   e2e_bench --workload <zipf_hot|zipf_wide|windowed_rollup> --seed <n>
///             [--seconds <n>] [--trace 0|1] [--smoke] [--out <dir>]
///
/// The harness draws the original stream P from the seed, samples L with
/// p = 0.1 and keeps exact statistics of P; the system under test only
/// receives L. Every workload runs the same three jobs on its own traffic:
///   1. a single-thread Monitor over the ingest prefix of L (the baseline),
///   2. the sharded pipeline over the same prefix, closed loop,
///   3. a window roll-up through ShardedMonitor into a WindowedMonitor,
///      closed loop, or open loop at a fixed rate for windowed_rollup.
/// The untraced run interleaves them in rounds (see WorkloadSpec); the
/// number of rounds is set by --seconds.
///
/// Output: a header (seed, input digest, |P|, |L|, shards, nproc, ISA,
/// compiler), one `metric <name> <value> <unit> n=<samples>` line per
/// end-to-end metric, a line per failed check, and as the last line
/// {"correct", "attempted", "failed", "metrics"}. With --trace 1 the spans
/// recorded around every public call go to <out>/trace.json instead and
/// the metrics object is left empty: run.py fills it with the per-layer
/// metrics trace_report.py derives from the spans.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/e2e/trace.h"
#include "bench/e2e/workload.h"
#include "core/monitor.h"
#include "core/sharded_monitor.h"
#include "core/windowed_monitor.h"
#include "serde/serde.h"
#include "sketch/counter_kernels.h"
#include "sketch/countsketch.h"
#include "util/hash.h"
#include "util/simd.h"

namespace substream::e2e {
namespace {

constexpr std::uint64_t kSketchSeed = 3;
constexpr std::size_t kLayerRounds = 8;
constexpr int kReadoutCalls = 5;
constexpr int kCheckpointCalls = 3;
constexpr double kMiB = 1024.0 * 1024.0;
/// An open-loop batch handed over later than this after its due time
/// counts as late.
constexpr double kLateBatchMs = 1.0;
/// Theorem 5's constant factor, as the entropy estimator tests demand it.
constexpr double kEntropyFactor = 3.0;
/// Significance of the one-sided binomial test on per-window F2 misses.
constexpr double kPromiseSignificance = 0.01;

/// The existing bench config (bench_pipeline, bench_windowed).
MonitorConfig BenchConfig() {
  MonitorConfig config;
  config.p = 0.1;
  config.universe = 1 << 16;
  config.hh_alpha = 0.02;
  config.max_f2_width = 1 << 12;
  return config;
}

WindowedMonitorOptions RingOptions() {
  WindowedMonitorOptions options;
  options.windows = 8;
  options.decay = 0.8;
  return options;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  bool smoke = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::size_t CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// A field of /proc/self/status in KiB (VmRSS, VmHWM).
double StatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kb = std::atof(line + len);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

double MsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

/// The most of `n` independent queries that may miss an (eps, delta)
/// promise before a one-sided binomial test rejects the promise: the
/// smallest k with P(X > k) < kPromiseSignificance, X ~ Binomial(n, delta).
std::size_t AllowedMisses(std::size_t n, double delta) {
  double pmf = std::pow(1.0 - delta, static_cast<double>(n));  // P(X = 0)
  double cdf = pmf;
  std::size_t k = 0;
  while (k < n && 1.0 - cdf >= kPromiseSignificance) {
    pmf *= static_cast<double>(n - k) / static_cast<double>(k + 1) * delta /
           (1.0 - delta);
    cdf += pmf;
    ++k;
  }
  return k;
}

double RelErr(double estimate, double truth) {
  return truth != 0.0 ? std::fabs(estimate - truth) / truth : 0.0;
}

/// Keeps micro-benchmark results observable.
volatile double g_sink = 0.0;

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::printf("check FAILED %s\n", what.c_str());
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;
};

/// Items through a job and the time they took, summed over its slices.
struct Throughput {
  double items = 0.0;
  double seconds = 0.0;
  std::size_t slices = 0;

  void Add(std::size_t n, double s) {
    items += static_cast<double>(n);
    seconds += s;
    ++slices;
  }
  double rate() const { return seconds > 0.0 ? items / seconds : 0.0; }
};

/// Heavy-hitter recall against the Definition 4 truth, plus the check that
/// nothing below the (1 - eps) alpha cut was reported.
struct HeavyHitterScore {
  std::size_t found = 0;
  std::size_t heavy = 0;
};

HeavyHitterScore ScoreHeavyHitters(const MonitorReport& report,
                                   const Truth& truth, const char* where,
                                   Checks& checks) {
  HeavyHitterScore score;
  score.heavy = truth.heavy.size();
  std::size_t false_positives = 0;
  for (const HeavyHitter& hh : *report.heavy_hitters) {
    if (!std::binary_search(truth.allowed.begin(), truth.allowed.end(),
                            hh.item)) {
      ++false_positives;
    }
    if (std::binary_search(truth.heavy.begin(), truth.heavy.end(), hh.item)) {
      ++score.found;
    }
  }
  checks.Expect(false_positives == 0,
                std::string(where) + ": " + std::to_string(false_positives) +
                    " heavy hitters below the Definition 4 cut");
  return score;
}

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec, const Input& input)
      : args_(args),
        spec_(spec),
        input_(input),
        config_(BenchConfig()),
        nproc_(CpuCount()),
        shards_(std::max<std::size_t>(1, nproc_ - 1)),
        tracer_(args.trace) {}

  int Run();

 private:
  const item_t* data() const { return input_.sampled.data(); }
  std::size_t ingest_items() const { return spec_.ingest_items; }
  /// [begin, end) of slice `k` of `slices` of the ingest prefix.
  std::pair<std::size_t, std::size_t> Slice(std::size_t k,
                                            std::size_t slices) const {
    return {ingest_items() * k / slices, ingest_items() * (k + 1) / slices};
  }

  void Add(const char* name, double value, const char* unit,
           std::size_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples});
  }

  std::vector<std::pair<std::string, std::string>> Meta() const;
  void Measure();
  void Traced();
  void MeasureSetup(int samples, std::vector<double>* seconds);
  void SingleThreadSlice(std::size_t k);
  void PipelineSlice(std::size_t k);
  ShardedMonitorStats PipelinePass(std::size_t shards, const char* name,
                                   bool trace_calls,
                                   std::optional<Monitor>* merged);
  void CheckPassStats(const ShardedMonitorStats& stats, const char* name);
  void TimeReports(int calls, std::vector<double>* report_ms);
  void CheckMerged(const Monitor& merged);
  void StartRollUp();
  void CloseNextWindow();
  void FinishRollUp();
  void Serde(const Monitor& merged);
  void Layers();
  void CountSketchKernels(const Monitor& merged);
  void Readouts(const Monitor& merged);
  void ShardSkew();

  const Args& args_;
  const WorkloadSpec& spec_;
  const Input& input_;
  const MonitorConfig config_;
  const std::size_t nproc_;
  const std::size_t shards_;
  Tracer tracer_;
  Checks checks_;
  std::vector<Metric> metrics_;
  /// The merged monitor of one full pipeline pass: the Report() timings,
  /// the checks, serde and space_mb read it.
  std::optional<Monitor> merged_;
  /// Jobs 1 and 2, each alive for one pass of the ingest prefix.
  std::optional<Monitor> single_;
  std::optional<ShardedMonitor> pass_;
  Throughput single_rate_;
  Throughput pipeline_rate_;

  /// Job 3: the roll-up pipeline, its window ring and what the windows
  /// closed so far measured.
  struct RollUp {
    std::optional<ShardedMonitor> pipeline;
    std::optional<WindowedMonitor> ring;
    std::size_t next_window = 0;
    std::vector<double> batch_ms;
    std::size_t late = 0;
    std::vector<double> result_ms;
    std::vector<double> decayed_ms;
    std::vector<double> f2_errors;  ///< indexed by window
    HeavyHitterScore hh;
  };
  RollUp rollup_;
};

/// The run's identity: printed as the header line and stored as the
/// trace's meta object.
std::vector<std::pair<std::string, std::string>> Bench::Meta() const {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(input_.digest));
  return {
      {"workload", spec_.name},
      {"seed", std::to_string(args_.seed)},
      {"digest", digest},
      {"P", std::to_string(input_.original_items)},
      {"L", std::to_string(input_.sampled.size())},
      {"ingest", std::to_string(spec_.ingest_items)},
      {"window", std::to_string(spec_.window_items)},
      {"rounds", std::to_string(spec_.groups) + "x" +
                     std::to_string(spec_.rounds)},
      {"rate", std::to_string(static_cast<long long>(spec_.rate))},
      {"shards", std::to_string(shards_)},
      {"nproc", std::to_string(nproc_)},
      {"isa", simd::Name(kernels::ActiveIsa())},
      {"compiler", __VERSION__},
  };
}

/// setup_s samples: constructing the system under test — the
/// single-thread Monitor, the sharded pipeline (workers spawned and
/// first-touched) and the window ring. Each sample starts from a trimmed
/// heap, as in a fresh process, so it pays the page faults of the memory
/// it touches first. Without the trim a sample reuses whatever memory
/// earlier ones freed or pays ~300 faults, depending on the allocator's
/// state; in a VM, where a fault costs microseconds, that alone moved a
/// run's median by 2x.
void Bench::MeasureSetup(int samples, std::vector<double>* seconds) {
  for (int sample = 0; sample < samples; ++sample) {
    malloc_trim(0);
    const std::int64_t start = NowNs();
    Monitor monitor(config_, kSketchSeed);
    ShardedMonitorOptions options;
    options.shards = shards_;
    ShardedMonitor pipeline(config_, kSketchSeed, options);
    WindowedMonitor ring(pipeline.config(), kSketchSeed, RingOptions());
    seconds->push_back(MsSince(start) * 1e-3);
  }
}

/// Job 1, slice `k` of spec_.rounds: Monitor::UpdateBatch on this thread
/// into a Monitor that lives for one pass of the ingest prefix. The last
/// slice adds the pass's final Report().
void Bench::SingleThreadSlice(std::size_t k) {
  if (k == 0) single_.emplace(config_, kSketchSeed);
  const auto [begin, end] = Slice(k, spec_.rounds);
  const std::int64_t start = NowNs();
  single_->UpdateBatch(data() + begin, end - begin);
  if (k + 1 == spec_.rounds) {
    g_sink = g_sink + single_->Report().scaled_length;
  }
  single_rate_.Add(end - begin, MsSince(start) * 1e-3);
  if (k + 1 == spec_.rounds) single_.reset();
}

/// Job 2, slice `k` of spec_.rounds: Ingest of the slice in kBatchItems
/// calls, then Drain, into a pipeline that lives for one pass of the
/// ingest prefix. The last slice adds the pass's final Report().
void Bench::PipelineSlice(std::size_t k) {
  if (k == 0) {
    ShardedMonitorOptions options;
    options.shards = shards_;
    pass_.emplace(config_, kSketchSeed, options);
  }
  const auto [begin, end] = Slice(k, spec_.rounds);
  const std::int64_t start = NowNs();
  for (std::size_t i = begin; i < end; i += kBatchItems) {
    pass_->Ingest(data() + i, std::min(kBatchItems, end - i));
  }
  pass_->Drain();
  if (k + 1 == spec_.rounds) {
    g_sink = g_sink + pass_->Report().scaled_length;
  }
  pipeline_rate_.Add(end - begin, MsSince(start) * 1e-3);
  if (k + 1 == spec_.rounds) {
    CheckPassStats(pass_->Stats(), "pipeline pass");
    pass_.reset();
  }
}

void Bench::CheckPassStats(const ShardedMonitorStats& stats,
                           const char* name) {
  checks_.Expect(stats.items_ingested == stats.items_consumed &&
                     stats.items_consumed == ingest_items(),
                 std::string(name) + ": items_ingested " +
                     std::to_string(stats.items_ingested) +
                     " != items_consumed " +
                     std::to_string(stats.items_consumed));
}

/// One closed-loop pass over the ingest prefix on a fresh pipeline: Ingest
/// in kBatchItems calls, Drain, Report, all inside the span `name`. With
/// `trace_calls` false the calls themselves are not traced (the untraced
/// side of the overhead ratio). `merged` receives the pass's merged
/// monitor.
ShardedMonitorStats Bench::PipelinePass(std::size_t shards, const char* name,
                                        bool trace_calls,
                                        std::optional<Monitor>* merged) {
  ShardedMonitorOptions options;
  options.shards = shards;
  ShardedMonitor pipeline(config_, kSketchSeed, options);
  const std::size_t n = ingest_items();
  {
    Span pass(tracer_, name, n);
    tracer_.set_paused(!trace_calls);
    for (std::size_t i = 0; i < n; i += kBatchItems) {
      const std::size_t m = std::min(kBatchItems, n - i);
      Span span(tracer_, "sharded.ingest", m);
      pipeline.Ingest(data() + i, m);
    }
    {
      Span span(tracer_, "sharded.drain");
      pipeline.Drain();
    }
    {
      Span span(tracer_, "sharded.report");
      g_sink = g_sink + pipeline.Report().scaled_length;
    }
    tracer_.set_paused(false);
  }
  const ShardedMonitorStats stats = pipeline.Stats();
  CheckPassStats(stats, name);
  if (merged != nullptr) {
    pipeline.Rotate();
    *merged = pipeline.CollectWindow(pipeline.CurrentEpoch() - 1);
  }
  return stats;
}

/// Times `calls` Monitor::Report() calls on the merged monitor.
void Bench::TimeReports(int calls, std::vector<double>* report_ms) {
  for (int call = 0; call < calls; ++call) {
    const std::int64_t start = NowNs();
    Span span(tracer_, "monitor.report");
    g_sink = g_sink + merged_->Report().scaled_length;
    report_ms->push_back(MsSince(start));
  }
}

/// The merged monitor of the pipeline against the exact statistics of P.
void Bench::CheckMerged(const Monitor& merged) {
  const Truth& truth = input_.ingest;
  const MonitorReport report = merged.Report();
  const double f2_err = RelErr(*report.second_moment, truth.f2);
  checks_.Expect(f2_err <= config_.epsilon,
                 "F2 rel err " + std::to_string(f2_err) + " > epsilon");
  const double f0_factor = 4.0 / std::sqrt(config_.p);
  const double f0 = *report.distinct_items;
  checks_.Expect(f0 >= truth.f0 / f0_factor && f0 <= truth.f0 * f0_factor,
                 "F0 " + std::to_string(f0) + " outside 4/sqrt(p) of " +
                     std::to_string(truth.f0));
  const EntropyResult& entropy = *report.entropy;
  checks_.Expect(!entropy.reliable ||
                     (entropy.entropy >= truth.entropy / kEntropyFactor &&
                      entropy.entropy <= truth.entropy * kEntropyFactor),
                 "entropy " + std::to_string(entropy.entropy) +
                     " outside the Theorem 5 factor of " +
                     std::to_string(truth.entropy));
  const HeavyHitterScore hh =
      ScoreHeavyHitters(report, truth, "merged", checks_);
  const double recall =
      hh.heavy > 0 ? static_cast<double>(hh.found) / hh.heavy : 1.0;
  const double entropy_err = RelErr(entropy.entropy, truth.entropy);
  std::printf(
      "accuracy merged f2_rel_err=%.5f entropy_rel_err=%.5f reliable=%d "
      "hh_recall=%.3f (%zu/%zu) f0=%.0f/%.0f\n",
      f2_err, entropy_err, entropy.reliable ? 1 : 0, recall, hh.found,
      hh.heavy, f0, truth.f0);
  tracer_.Counter("accuracy.f2_rel_err", f2_err);
  tracer_.Counter("accuracy.entropy_rel_err", entropy_err);
  tracer_.Counter("accuracy.hh_recall", recall);
}

void Bench::StartRollUp() {
  ShardedMonitorOptions options;
  options.shards = shards_;
  rollup_.pipeline.emplace(config_, kSketchSeed, options);
  rollup_.ring.emplace(rollup_.pipeline->config(), kSketchSeed,
                       RingOptions());
}

/// Job 3, one window: its window_items go through the roll-up pipeline —
/// closed loop, or open loop with batches due at spec_.rate and timed from
/// their due time — and the producer closes the window: Rotate → Drain →
/// CollectWindow → AdoptWindow → Report(kReportWindows) → ReportDecayed().
/// The window's result is timed from the due time of its last batch; in a
/// closed loop that is when the batch was handed to Ingest.
void Bench::CloseNextWindow() {
  RollUp& r = rollup_;
  const std::size_t w = r.next_window++;
  const bool open_loop = spec_.rate > 0.0;
  const std::size_t batches = spec_.window_items / kBatchItems;
  const double ns_per_batch =
      open_loop ? 1e9 * static_cast<double>(kBatchItems) / spec_.rate : 0.0;
  const item_t* window = data() + w * spec_.window_items;
  const std::int64_t start = NowNs() + 1000000;
  std::int64_t due = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    due = NowNs();
    if (open_loop) {
      due = start + static_cast<std::int64_t>(static_cast<double>(b) *
                                              ns_per_batch);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      r.late += MsSince(due) > kLateBatchMs ? 1 : 0;
    }
    {
      Span span(tracer_, "sharded.ingest", kBatchItems);
      r.pipeline->Ingest(window + b * kBatchItems, kBatchItems);
    }
    r.batch_ms.push_back(MsSince(due));
  }

  Span close(tracer_, "window.close");
  {
    Span span(tracer_, "sharded.rotate");
    r.pipeline->Rotate();
  }
  {
    Span span(tracer_, "sharded.collect_wait");
    r.pipeline->Drain();
  }
  std::optional<Monitor> closed;
  {
    Span span(tracer_, "sharded.collect_window");
    closed = r.pipeline->CollectWindow(r.pipeline->CurrentEpoch() - 1);
  }
  checks_.Expect(closed.has_value(),
                 "window " + std::to_string(w) + ": CollectWindow empty");
  if (!closed) return;
  {
    Span span(tracer_, "windowed.adopt");
    r.ring->AdoptWindow(std::move(*closed));
  }
  MonitorReport report;
  {
    Span span(tracer_, "windowed.report_k4");
    report = r.ring->Report(kReportWindows);
  }
  r.result_ms.push_back(MsSince(due));
  {
    const std::int64_t query = NowNs();
    Span span(tracer_, "windowed.report_decayed");
    g_sink = g_sink + r.ring->ReportDecayed().scaled_length;
    r.decayed_ms.push_back(MsSince(query));
  }

  const Truth& truth = input_.windows[w];
  r.f2_errors.push_back(RelErr(*report.second_moment, truth.f2));
  const HeavyHitterScore hh = ScoreHeavyHitters(
      report, truth, ("window " + std::to_string(w)).c_str(), checks_);
  r.hh.found += hh.found;
  r.hh.heavy += hh.heavy;
}

void Bench::FinishRollUp() {
  RollUp& r = rollup_;
  r.pipeline->Drain();
  const ShardedMonitorStats stats = r.pipeline->Stats();
  checks_.Expect(stats.items_ingested == stats.items_consumed,
                 "rollup: items_ingested " +
                     std::to_string(stats.items_ingested) +
                     " != items_consumed " +
                     std::to_string(stats.items_consumed));
  // Each window's Report(kReportWindows) promises F2 within epsilon with
  // probability 1 - delta, so a few misses are expected and the check is
  // on their count. Only the reports that cover disjoint blocks of
  // kReportWindows windows count: overlapping reports share data, so
  // their misses would come in runs. The blocks still share the sketch
  // seed, so the binomial test is approximate.
  std::size_t blocks = 0;
  std::size_t misses = 0;
  for (std::size_t w = kReportWindows - 1; w < r.f2_errors.size();
       w += kReportWindows) {
    ++blocks;
    misses += r.f2_errors[w] > config_.epsilon ? 1 : 0;
  }
  const std::size_t allowed = AllowedMisses(blocks, config_.delta);
  checks_.Expect(misses <= allowed,
                 "window F2 outside epsilon in " + std::to_string(misses) +
                     " of " + std::to_string(blocks) +
                     " disjoint blocks; delta allows " +
                     std::to_string(allowed));
  if (!args_.trace) {
    Add("window_result_ms_mean", Mean(r.result_ms), "ms",
        r.result_ms.size());
    Add("decayed_query_ms_mean", Mean(r.decayed_ms), "ms",
        r.decayed_ms.size());
  }

  const double late_frac = r.batch_ms.empty()
                               ? 0.0
                               : static_cast<double>(r.late) /
                                     static_cast<double>(r.batch_ms.size());
  const double recall =
      r.hh.heavy > 0 ? static_cast<double>(r.hh.found) / r.hh.heavy : 1.0;
  std::printf(
      "rollup windows=%zu batch_latency_ms_p99=%.3f late_batch_frac=%.4f "
      "window_f2_rel_err_p50=%.5f window_hh_recall=%.3f\n",
      r.result_ms.size(), Percentile(r.batch_ms, 99.0), late_frac,
      Median(r.f2_errors), recall);
  tracer_.Counter("gen.batch_latency_ms_p99", Percentile(r.batch_ms, 99.0));
  tracer_.Counter("gen.late_batch_frac", late_frac);
  tracer_.Counter("accuracy.window_f2_rel_err", Median(r.f2_errors));
  tracer_.Counter("accuracy.window_hh_recall", recall);
}

/// Serialize -> Deserialize -> Serialize must give equal bytes. The traced
/// run also times each step and a durable checkpoint.
void Bench::Serde(const Monitor& merged) {
  const int calls = args_.trace ? kReadoutCalls : 1;
  std::vector<std::uint8_t> bytes;
  for (int call = 0; call < calls; ++call) {
    serde::Writer writer;
    Span span(tracer_, "serde.serialize");
    merged.Serialize(writer);
    bytes = writer.Take();
  }
  std::optional<Monitor> decoded;
  for (int call = 0; call < calls; ++call) {
    serde::Reader reader(bytes);
    Span span(tracer_, "serde.deserialize");
    decoded = Monitor::Deserialize(reader);
  }
  bool equal = false;
  if (decoded) {
    serde::Writer again;
    decoded->Serialize(again);
    equal = again.bytes() == bytes;
  }
  checks_.Expect(equal, "serde round trip changed the bytes");
  tracer_.Counter("serde.bytes", static_cast<double>(bytes.size()));
  if (!args_.trace) return;

  const std::filesystem::path dir =
      std::filesystem::path(args_.out) / "checkpoint";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "monitor.ckpt").string();
  for (int call = 0; call < kCheckpointCalls; ++call) {
    Span span(tracer_, "serde.checkpoint");
    checks_.Expect(merged.Checkpoint(path), "checkpoint write failed");
  }
  std::filesystem::remove_all(dir);
}

/// Per-estimator cost: the full Monitor, Monitors with one estimator
/// enabled, and one with none (prehash and fan-out alone) replay the ingest
/// prefix side by side in kLayerRounds slices, in rotating order. Every
/// layer then samples the same stretches of the run, so a speed shift of
/// the host between two replays does not distort their shares.
void Bench::Layers() {
  struct Layer {
    const char* span;
    const char* space;
    bool f0, f2, entropy, hh;
  };
  const Layer layers[] = {
      {"layer.monitor", nullptr, true, true, true, true},
      {"layer.prehash", nullptr, false, false, false, false},
      {"layer.f0", "f0.space_mb", true, false, false, false},
      {"layer.f2", "f2.space_mb", false, true, false, false},
      {"layer.entropy", "entropy.space_mb", false, false, true, false},
      {"layer.hh", "hh.space_mb", false, false, false, true},
  };
  constexpr std::size_t kLayers = sizeof(layers) / sizeof(layers[0]);
  std::vector<Monitor> monitors;
  monitors.reserve(kLayers);
  for (const Layer& layer : layers) {
    MonitorConfig config = config_;
    config.enable_f0 = layer.f0;
    config.enable_f2 = layer.f2;
    config.enable_entropy = layer.entropy;
    config.enable_heavy_hitters = layer.hh;
    monitors.emplace_back(config, kSketchSeed);
  }
  for (std::size_t round = 0; round < kLayerRounds; ++round) {
    const auto [begin, end] = Slice(round, kLayerRounds);
    for (std::size_t k = 0; k < kLayers; ++k) {
      const std::size_t i = (round + k) % kLayers;
      Span span(tracer_, layers[i].span, end - begin);
      monitors[i].UpdateBatch(data() + begin, end - begin);
    }
  }
  for (std::size_t i = 0; i < kLayers; ++i) {
    if (layers[i].space != nullptr) {
      tracer_.Counter(layers[i].space,
                      static_cast<double>(monitors[i].SpaceBytes()) / kMiB);
    }
    if (layers[i].f2 && !layers[i].entropy) {
      for (int call = 0; call < kReadoutCalls; ++call) {
        Span span(tracer_, "f2.report");
        g_sink = g_sink + *monitors[i].Report().second_moment;
      }
    }
  }
}

/// The level-set CountSketch at the F2 geometry Health() reports: the fused
/// per-item update-and-estimate, the batched column kernel, and the F2
/// median the candidate threshold reads.
void Bench::CountSketchKernels(const Monitor& merged) {
  int depth = 0;
  std::uint64_t width = 0;
  for (const obs::SummaryHealth& summary : merged.Health().summaries) {
    if (summary.name == "f2") {
      depth = static_cast<int>(summary.depth);
      width = summary.width;
    }
  }
  if (depth <= 0 || width == 0) return;
  const std::size_t n =
      std::min<std::size_t>(ingest_items(), std::size_t{1} << 20);
  std::vector<std::uint64_t> hashes(n);
  PrehashColumnSoA(data(), n, hashes.data());
  double sum = 0.0;
  {
    CountSketch sketch(depth, width, kSketchSeed);
    Span span(tracer_, "countsketch.update_and_estimate", n);
    for (std::size_t i = 0; i < n; ++i) {
      sum += sketch.UpdateAndEstimate(PrehashedItem{data()[i], hashes[i]}, 1);
    }
  }
  CountSketch sketch(depth, width, kSketchSeed);
  {
    Span span(tracer_, "countsketch.batched", n);
    sketch.UpdatePrehashed(PrehashedColumns{data(), hashes.data()}, n);
  }
  const std::size_t calls = std::size_t{1} << 16;
  {
    Span span(tracer_, "countsketch.estimate_f2", calls);
    for (std::size_t i = 0; i < calls; ++i) sum += sketch.EstimateF2();
  }
  g_sink = g_sink + sum;
}

/// Health, merge and decayed merge of the merged monitor.
void Bench::Readouts(const Monitor& merged) {
  for (int call = 0; call < kReadoutCalls; ++call) {
    Span span(tracer_, "monitor.health");
    g_sink = g_sink + merged.Health().sampling_p;
  }
  for (int call = 0; call < kReadoutCalls; ++call) {
    Monitor target(config_, kSketchSeed);
    Span span(tracer_, "monitor.merge");
    target.Merge(merged);
  }
  for (int call = 0; call < kReadoutCalls; ++call) {
    Monitor target(config_, kSketchSeed);
    Span span(tracer_, "monitor.merge_scaled");
    target.MergeScaled(merged, 0.8);
  }
}

/// max/mean items per shard under the pipeline's routing.
void Bench::ShardSkew() {
  std::vector<double> per_shard(shards_, 0.0);
  for (std::size_t i = 0; i < ingest_items(); ++i) {
    per_shard[ShardedMonitor::ShardOf(data()[i], shards_)] += 1.0;
  }
  const double mean =
      static_cast<double>(ingest_items()) / static_cast<double>(shards_);
  tracer_.Counter("sharded.shard_skew",
                  *std::max_element(per_shard.begin(), per_shard.end()) /
                      mean);
}

/// The untraced run. It times the set-ups first, before anything else
/// holds memory, then builds the merged monitor with an untimed pipeline
/// pass. Then every round does a slice of jobs 1 and 2, Report() calls on
/// the merged monitor and one window of job 3. On a
/// shared host the speed shifts by tens of percent for seconds at a time;
/// spreading every job over the whole run makes each metric sample all of
/// those stretches instead of carrying one of them whole. For the same
/// reason the latency metrics are means: the samples fall into a fast and
/// a slow mode, and a median jumps between the modes as their mix shifts
/// from run to run, where a mean moves with the mix.
void Bench::Measure() {
  std::vector<double> setup_s;
  MeasureSetup(spec_.setups, &setup_s);
  PipelinePass(shards_, "pipeline.warmup", false, &merged_);
  if (!merged_) return;
  StartRollUp();
  std::vector<double> report_ms;
  const std::int64_t start = NowNs();
  for (std::size_t group = 0; group < spec_.groups; ++group) {
    for (std::size_t k = 0; k < spec_.rounds; ++k) {
      SingleThreadSlice(k);
      PipelineSlice(k);
      TimeReports(spec_.report_calls, &report_ms);
      CloseNextWindow();
    }
  }
  std::printf("# measured %zu groups of %zu rounds in %.1f s\n",
              spec_.groups, spec_.rounds, MsSince(start) * 1e-3);
  FinishRollUp();
  Add("setup_s", Median(setup_s), "s", setup_s.size());
  Add("monitor_items_per_s", single_rate_.rate(), "items/s",
      single_rate_.slices);
  Add("pipeline_items_per_s", pipeline_rate_.rate(), "items/s",
      pipeline_rate_.slices);
  Add("report_ms_mean", Mean(report_ms), "ms", report_ms.size());
}

/// The traced run: the pipeline untraced, traced (building the merged
/// monitor), untraced again (so warm-up does not land on one side of the
/// overhead ratio) and at one shard for the scaling efficiency; Report()
/// calls; one group's windows of the roll-up; then the layer replays and
/// the readout, kernel and serde timings.
void Bench::Traced() {
  PipelinePass(shards_, "pipeline.plain", false, nullptr);
  const ShardedMonitorStats stats =
      PipelinePass(shards_, "pipeline.traced", true, &merged_);
  PipelinePass(shards_, "pipeline.plain", false, nullptr);
  PipelinePass(1, "pipeline.one_shard", false, nullptr);
  std::uint64_t hwm = 0;
  for (std::uint64_t h : stats.group_ring_hwm) hwm = std::max(hwm, h);
  tracer_.Counter("sharded.stall_wait_ms",
                  static_cast<double>(stats.stall_wait_ns) * 1e-6);
  tracer_.Counter("sharded.producer_stalls",
                  static_cast<double>(stats.producer_stalls));
  tracer_.Counter("sharded.ring_hwm", static_cast<double>(hwm));
  tracer_.Counter("sharded.recycle_ratio",
                  stats.batches_pushed > 0
                      ? static_cast<double>(stats.buffers_recycled) /
                            static_cast<double>(stats.batches_pushed)
                      : 0.0);
  if (!merged_) return;
  std::vector<double> report_ms;
  TimeReports(kReadoutCalls, &report_ms);
  StartRollUp();
  {
    Span phase(tracer_, "rollup", spec_.rounds * spec_.window_items);
    for (std::size_t k = 0; k < spec_.rounds; ++k) CloseNextWindow();
  }
  FinishRollUp();
  Layers();
  CountSketchKernels(*merged_);
  Readouts(*merged_);
  ShardSkew();
}

int Bench::Run() {
  std::printf("# e2e_bench");
  for (const auto& [key, value] : Meta()) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf(" trace=%d\n", args_.trace ? 1 : 0);
  const double rss_input_kb = StatusKb("VmRSS:");
  if (args_.trace) {
    Traced();
  } else {
    Measure();
  }
  checks_.Expect(merged_.has_value(), "the pipeline gave no merged monitor");
  if (merged_) {
    CheckMerged(*merged_);
    Serde(*merged_);
  }
  double space_bytes = 0.0;
  if (spec_.rate > 0.0 && rollup_.ring) {
    space_bytes = static_cast<double>(rollup_.ring->SpaceBytes());
  } else if (merged_) {
    space_bytes = static_cast<double>(merged_->SpaceBytes());
  }
  Add("space_mb", space_bytes / kMiB, "MB", 1);
  Add("rss_mb", (StatusKb("VmHWM:") - rss_input_kb) / 1024.0, "MB", 1);

  for (const Metric& m : metrics_) {
    std::printf("metric %s %.6g %s n=%zu\n", m.name.c_str(), m.value, m.unit,
                m.samples);
  }
  if (args_.trace) {
    std::filesystem::create_directories(args_.out);
    const std::string path =
        (std::filesystem::path(args_.out) / "trace.json").string();
    checks_.Expect(tracer_.Write(path, Meta()),
                   "could not write " + path);
    std::printf("# trace written to %s\n", path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              checks_.failed() == 0 ? "true" : "false", checks_.attempted(),
              checks_.failed());
  if (!args_.trace) {
    const char* sep = "";
    for (const Metric& m : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), m.value, m.unit);
      sep = ", ";
    }
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace substream::e2e

int main(int argc, char** argv) {
  using namespace substream::e2e;
#ifndef NDEBUG
  std::fprintf(stderr,
               "e2e_bench: built without NDEBUG; timings of an unoptimized "
               "build are meaningless. Configure with "
               "-DCMAKE_BUILD_TYPE=Release.\n");
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> --seed <n> "
                 "[--seconds <n>] [--trace 0|1] [--smoke] [--out <dir>]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, args.seconds, args.smoke, &spec)) {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Input input = BuildInput(spec, BenchConfig(), args.seed);
  Bench bench(args, spec, input);
  return bench.Run();
}
