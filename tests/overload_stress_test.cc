/// Overload stress: saturate tiny rings behind a deliberately slow consumer
/// (ShardedMonitorOptions::throttle_consumer_ns) and verify the NitroSketch
/// degradation path end to end — sampled mode engages under pressure, the
/// producer keeps moving instead of blocking on the ring, the weighted
/// estimates stay inside the sample-widened promise Health() reports, and
/// the controller converges back to exact counting once pressure releases.
/// This suite runs under TSan in CI: the producer-side sampler, the weight-
/// tagged batches and the worker-side weighted applies cross the SPSC rings
/// concurrently here.

#include "core/sharded_monitor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "stream/exact_stats.h"
#include "stream/generators.h"

namespace substream {
namespace {

constexpr std::uint64_t kSeed = 7;

/// p = 1 so FrequencyTable on the ingested stream is the exact reference;
/// the only sampling in play is the overload controller's.
MonitorConfig StressConfig(bool overload_sampling) {
  MonitorConfig config;
  config.p = 1.0;
  config.universe = 3000;
  config.hh_alpha = 0.02;
  config.overload_sampling = overload_sampling;
  return config;
}

/// One shard, a 4-batch ring, small batches, and a consumer that burns
/// 200us per batch: the producer outruns the pipeline after a handful of
/// batches, making saturation deterministic instead of load-dependent.
ShardedMonitorOptions SlowConsumerOptions() {
  ShardedMonitorOptions options;
  options.shards = 1;
  options.ring_capacity = 4;
  options.batch_items = 256;
  options.pin_workers = false;
  options.throttle_consumer_ns = 200 * 1000;
  return options;
}

Stream BurstStream(std::size_t n) {
  ZipfGenerator generator(3000, 1.2, 11);
  return Materialize(generator, n);
}

double MaxF2Epsilon(const obs::HealthReport& health) {
  double epsilon = 0.0;
  for (const obs::SummaryHealth& summary : health.summaries) {
    if (summary.name.rfind("f2", 0) == 0) {
      epsilon = std::max(epsilon, summary.epsilon);
    }
  }
  return epsilon;
}

TEST(OverloadStressTest, SampledModeEngagesAndStaysWithinWidenedBounds) {
  const Stream burst = BurstStream(200000);
  FrequencyTable exact;
  exact.AddStream(burst);

  ShardedMonitor monitor(StressConfig(true), kSeed, SlowConsumerOptions());
  monitor.Ingest(burst);

  // The slow consumer saturated the ring: the controller must have shed
  // load at line rate instead of blocking the producer on every batch.
  const ShardedMonitorStats mid = monitor.Stats();
  EXPECT_LT(mid.sample_rate, 1.0) << "sampled mode never engaged";
  EXPECT_GT(mid.items_sampled_out, 0u);

  monitor.Rotate();
  auto window = monitor.CollectWindow(0);
  ASSERT_TRUE(window.has_value());

  // Accounting: every ingested item was either applied or sampled out.
  const ShardedMonitorStats stats = monitor.Stats();
  EXPECT_EQ(stats.items_ingested,
            stats.items_consumed + stats.items_sampled_out);

  const MonitorReport report = window->Report();
  const obs::HealthReport health = window->Health();
  EXPECT_LT(report.effective_sample_rate, 1.0);
  EXPECT_LT(report.raw_updates, report.sampled_length);
  EXPECT_EQ(health.raw_updates, report.raw_updates);
  EXPECT_GT(health.sampled_epsilon, 0.0);

  // The weighted stream length is an unbiased estimate of the true length
  // (survivor count times 2^level per batch).
  EXPECT_NEAR(double(report.sampled_length), double(burst.size()),
              0.10 * double(burst.size()));

  // F2 within the sample-widened promise. The geometric epsilon and the
  // sampling epsilon are both ~1-sigma scales, so allow 3x their sum — the
  // same confidence slack the unsampled pipeline suites use.
  ASSERT_TRUE(report.second_moment.has_value());
  const double exact_f2 = exact.Fk(2);
  const double f2_error = std::abs(*report.second_moment - exact_f2) / exact_f2;
  const double widened = MaxF2Epsilon(health) + health.sampled_epsilon;
  EXPECT_GT(widened, 0.0);
  EXPECT_LE(f2_error, 3.0 * widened)
      << "F2 error " << f2_error << " vs widened promise " << widened;

  // The exact top heavy hitter survives sampling with a frequency estimate
  // inside the widened tolerance.
  ASSERT_TRUE(report.heavy_hitters.has_value());
  ASSERT_FALSE(report.heavy_hitters->empty());
  const auto top = exact.TopK(1).front();
  const auto found = std::find_if(
      report.heavy_hitters->begin(), report.heavy_hitters->end(),
      [&](const HeavyHitter& h) { return h.item == top.first; });
  ASSERT_NE(found, report.heavy_hitters->end())
      << "exact top item lost under sampled ingest";
  EXPECT_NEAR(found->estimated_frequency, double(top.second),
              (0.15 + 3.0 * health.sampled_epsilon) * double(top.second));
}

TEST(OverloadStressTest, ProducerDegradesGracefullyInsteadOfStalling) {
  using Clock = std::chrono::steady_clock;
  const Stream burst = BurstStream(120000);

  // Same workload, same slow consumer, sampling off: the producer has no
  // relief valve and must ride the backoff loop for most batches.
  std::uint64_t exact_stalls = 0;
  std::uint64_t exact_stall_ns = 0;
  Clock::duration exact_elapsed{};
  {
    ShardedMonitor monitor(StressConfig(false), kSeed, SlowConsumerOptions());
    const auto t0 = Clock::now();
    monitor.Ingest(burst);
    exact_elapsed = Clock::now() - t0;
    const ShardedMonitorStats stats = monitor.Stats();
    exact_stalls = stats.producer_stalls;
    exact_stall_ns = stats.stall_wait_ns;
    EXPECT_EQ(stats.sample_rate, 1.0);
    EXPECT_EQ(stats.items_sampled_out, 0u);
  }
  EXPECT_GT(exact_stalls, 0u);
  EXPECT_GT(exact_stall_ns, 0u);  // severity counter moves with the events

  // Sampling on: the controller sheds load, so ingest finishes in a
  // fraction of the blocked-producer time. 0.6 is a loose ceiling — the
  // measured ratio is far smaller — chosen to stay robust under TSan.
  {
    ShardedMonitor monitor(StressConfig(true), kSeed, SlowConsumerOptions());
    const auto t0 = Clock::now();
    monitor.Ingest(burst);
    const Clock::duration sampled_elapsed = Clock::now() - t0;
    const ShardedMonitorStats stats = monitor.Stats();
    EXPECT_LT(stats.sample_rate, 1.0);
    EXPECT_LT(stats.producer_stalls, exact_stalls);
    EXPECT_LT(sampled_elapsed.count(),
              std::chrono::duration_cast<Clock::duration>(exact_elapsed)
                      .count() *
                  6 / 10)
        << "sampled ingest did not relieve producer backpressure";
  }
}

TEST(OverloadStressTest, ConvergesBackToExactCountingAfterBurst) {
  // A deeper ring than the saturation tests: during recovery an Ingest
  // call occasionally flushes two batches back-to-back, and with a 4-slot
  // ring that alone reads as engage-level occupancy. 16 slots keep the
  // trickle phase's observations honestly calm while the burst phase still
  // saturates (the consumer is 200us/batch slower than the producer).
  ShardedMonitorOptions options = SlowConsumerOptions();
  options.ring_capacity = 16;
  ShardedMonitor monitor(StressConfig(true), kSeed, options);

  // Pressure phase: drive the rate down.
  const Stream burst = BurstStream(100000);
  monitor.Ingest(burst);
  ASSERT_LT(monitor.Stats().sample_rate, 1.0);
  monitor.Drain();

  // Pressure release: trickle ingest — one flushed batch per call, drained
  // before the next, so every controller observation sees a near-empty
  // ring. The rate must walk back to exact counting within two windows.
  const Stream calm = BurstStream(40000);
  for (int window = 0; window < 2; ++window) {
    for (int i = 0; i < 20; ++i) {
      // One batch's worth of *admitted* items at the current rate, with
      // slack so the binomial admission still fills the batch.
      const double rate = monitor.Stats().sample_rate;
      const std::size_t chunk = std::min(
          calm.size(),
          static_cast<std::size_t>(std::lround(256.0 / rate)) + 64);
      monitor.Ingest(calm.data(), chunk);
      monitor.Drain();
    }
    monitor.Rotate();
  }
  const ShardedMonitorStats stats = monitor.Stats();
  EXPECT_EQ(stats.sample_rate, 1.0)
      << "controller failed to converge back to exact counting";

  // Post-recovery ingest is exact again: no new items sampled out.
  const count_t sampled_out_before = stats.items_sampled_out;
  monitor.Ingest(calm.data(), 256);
  monitor.Drain();
  EXPECT_EQ(monitor.Stats().items_sampled_out, sampled_out_before);
}

}  // namespace
}  // namespace substream
