/// Continuously-rotating sampled-NetFlow collector: the deployment shape
/// the windowed subsystem exists for — now configured by an ACCURACY
/// BUDGET, not hand-picked geometry.
///
/// One {byte budget, (epsilon, delta) targets} tuple configures the whole
/// fleet: the geometry planner solves every summary's geometry from it
/// once, the multi-core ShardedMonitor pipeline and the WindowedMonitor
/// ring are both built from that single resolved plan (so every window is
/// merge-compatible by construction), and the startup banner prints the
/// geometry the planner chose plus the accuracy it promises.
///
/// A router exports a 1-in-1/p packet sample; the collector ingests it
/// through the pipeline and closes a measurement window every
/// `window_packets` packets. Each closed window — one merged Monitor per
/// epoch — is adopted into the ring, which answers sliding-window and
/// exponential-decay questions while checkpointing the horizon to disk.
///
/// The ring keeps the PlanSpec alive: at every merge-horizon boundary it
/// re-solves the plan from the closed window's OBSERVED workload (F0, F2,
/// volume). When the re-plan changes geometry the whole ring is replaced —
/// geometry never changes mid-horizon, so mixed-geometry merges cannot
/// happen — and this collector rebuilds its producer pipeline from
/// `ring.config()`, the one source of truth. Every re-plan decision is
/// printed from `ring.replan_log()`.
///
/// A volumetric attack begins mid-run; the decayed entropy collapses
/// within a window or two of onset while the all-time view barely moves.
/// Watch the re-plan lines: the first boundary adapts the unhinted plan
/// down to the observed background (~2^18 flows), and the attack's skew
/// shows up in the observed-F2 column of the next boundary.
///
///   ./windowed_netflow [p] [windows]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include <string>

#include "core/substream.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "plan/compiler.h"
#include "plan/plan.h"
#include "util/numa.h"

using namespace substream;

int main(int argc, char** argv) {
  const double p = argc > 1 ? std::atof(argv[1]) : 0.05;
  const std::size_t total_windows =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8;
  const std::size_t window_packets = 1 << 18;
  const std::uint64_t seed = 42;

  // The whole fleet's configuration: sampling rate, a byte budget and the
  // accuracy we want. No widths, depths or cell sizes anywhere — the
  // planner solves those, and re-solves them as the workload reveals
  // itself.
  MonitorConfig config;
  config.p = p;
  config.universe = 1 << 20;
  config.hh_alpha = 0.05;
  plan::PlanSpec spec;
  spec.budget_bytes = 4 << 20;  // 4 MiB per window
  spec.f0.epsilon = 0.05;
  spec.f2.epsilon = 0.10;
  spec.f2.delta = 0.05;
  config.plan = spec;

  const auto plan = plan::PlanFor(config);
  if (!plan) return 1;
  std::printf(
      "planned geometry for {budget=%zu B, f0 eps<=%.2f, f2 eps<=%.2f "
      "delta<=%.2f}:\n",
      spec.budget_bytes, spec.f0.epsilon, spec.f2.epsilon, spec.f2.delta);
  std::printf(
      "  f0 %s k=%zu | f2 %dx%llu | hh %dx%llu | %d-bit cells | "
      "universe 2^%d\n",
      plan->f0_use_hll ? "hll" : "kmv", plan->kmv_k, plan->f2_cs_depth,
      static_cast<unsigned long long>(plan->f2_width), plan->hh_depth,
      static_cast<unsigned long long>(plan->hh_width),
      CellBits(plan->cell_width),
      [](std::uint64_t u) {
        int bits = 0;
        while ((std::uint64_t{1} << bits) < u) ++bits;
        return bits;
      }(plan->universe));
  std::printf("  model %zu of %zu bytes; achieved f0 eps %.4f, f2 eps %.4f "
              "(delta %.4f)%s\n\n",
              plan->planned_bytes, spec.budget_bytes,
              plan->achieved_f0_epsilon, plan->achieved_f2_epsilon,
              plan->achieved_f2_delta,
              plan->degraded ? "  [DEGRADED: budget too small]" : "");

  ShardedMonitorOptions pipeline_options;
  pipeline_options.shards = 4;
  auto pipeline =
      std::make_unique<ShardedMonitor>(config, seed, pipeline_options);

  // The ring keeps the spec (plan_driven() == true) so it can re-plan at
  // horizon boundaries; the half-length horizon gives this short run two
  // boundaries to show the adaptation at.
  WindowedMonitorOptions ring_options;
  ring_options.windows = total_windows > 2 ? total_windows / 2 : 2;
  ring_options.decay = 0.5;  // a window ages to half weight per rotation
  WindowedMonitor ring(config, seed, ring_options);

  // Group layout the pipeline actually picked: workers were pinned into
  // per-NUMA-node shard groups (SKETCH_FORCE_NUMA_GROUPS emulates nodes on
  // a single-socket host), and Report/CollectWindow merge per group first.
  const std::string layout_tag =
      std::to_string(pipeline->groups()) + "x" +
      std::to_string(pipeline->shards() / pipeline->groups());
  std::printf("windowed sampled-netflow collector: p=%.3f, %zu windows of "
              "%zu packets, horizon %zu, decay %.2f\n",
              p, total_windows, window_packets, ring_options.windows,
              ring_options.decay);
  std::printf("topology: %s -> %zu shard group(s) of %zu shard(s) "
              "[layout %s]\n\n",
              numa::Describe(pipeline->topology()).c_str(),
              pipeline->groups(), pipeline->shards() / pipeline->groups(),
              layout_tag.c_str());
  std::printf("%-8s %-10s %-14s %-14s %-12s\n", "window", "traffic",
              "H(sliding-2)", "H(decayed)", "stalls");

  ZipfGenerator background(200000, 1.1, 7);
  Rng attack_rng(9);
  BernoulliSampler sampler(p, seed + 100);
  const item_t attack_flow = 999999999;
  obs::MetricsSnapshot prev_snap;
  std::size_t replans_seen = 0;

  for (std::size_t w = 0; w < total_windows; ++w) {
    // The attack starts at the midpoint and carries 40% of the packets.
    const bool attacking = w >= total_windows / 2;
    Stream sampled;
    for (std::size_t i = 0; i < window_packets; ++i) {
      const item_t flow = (attacking && attack_rng.NextBernoulli(0.4))
                              ? attack_flow
                              : background.Next();
      if (sampler.Keep()) sampled.push_back(flow);
    }
    pipeline->Ingest(sampled);

    // Close the window without stalling ingest, collect the merged epoch
    // and age it into the ring. Health is read off the closed window
    // before the ring absorbs it: this is the per-window degradation
    // signal (fill/spill per summary plus derived bounds).
    pipeline->Rotate();
    auto closed = pipeline->CollectWindow(pipeline->CurrentEpoch() - 1);
    if (!closed) return 1;
    const obs::HealthReport window_health = closed->Health();
    ring.AdoptWindow(std::move(*closed));

    // A horizon boundary may have re-planned: the ring replaced itself
    // with the new geometry (dropping the old-geometry horizon), so the
    // producer pipeline must be rebuilt from the ring's resolved config —
    // a stale producer would now be loudly merge-incompatible.
    while (replans_seen < ring.replan_log().size()) {
      const plan::ReplanEvent& event = ring.replan_log()[replans_seen++];
      std::printf("  re-plan @epoch %llu: observed f0=%.0f f2=%.3g n=%.0f "
                  "-> universe %llu->%llu, f2 width %llu->%llu, kmv k "
                  "%zu->%zu (%zu B)\n",
                  static_cast<unsigned long long>(event.epoch),
                  event.observed_f0, event.observed_f2, event.observed_n,
                  static_cast<unsigned long long>(event.old_universe),
                  static_cast<unsigned long long>(event.new_universe),
                  static_cast<unsigned long long>(event.old_max_f2_width),
                  static_cast<unsigned long long>(event.new_max_f2_width),
                  event.old_kmv_k, event.new_kmv_k, event.planned_bytes);
      pipeline = std::make_unique<ShardedMonitor>(ring.config(), seed,
                                                  pipeline_options);
    }

    // Crash-safe handoff: the whole horizon, one CRC-validated file.
    ring.Checkpoint("/tmp/windowed_netflow.ckpt");

    const MonitorReport sliding = ring.Report(/*k=*/2);
    const MonitorReport decayed = ring.ReportDecayed();
    std::printf("%-8zu %-10.0f %-14.3f %-14.3f %-12llu%s\n", w,
                sliding.scaled_length, sliding.entropy->entropy,
                decayed.entropy->entropy,
                static_cast<unsigned long long>(
                    pipeline->Stats().producer_stalls),
                attacking ? "  << attack" : "");

    // Per-window telemetry: the process registry as JSON, with rates
    // diffed against the previous window's snapshot (what a scraper would
    // compute), plus the closed window's health report. The stall and
    // rotate-latency series live in the metrics line; spill/fill
    // degradation lives in the health line.
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::Global().Snapshot();
    std::printf("  metrics[groups=%s] %s\n", layout_tag.c_str(),
                obs::ToJson(snap, w == 0 ? nullptr : &prev_snap).c_str());
    std::printf("  health  %s\n", obs::ToJson(window_health).c_str());
    prev_snap = snap;
  }

  // A fresh process restores the ring and keeps answering. The restored
  // ring keeps the planned geometry but drops the spec: re-planning stops,
  // which is exactly what a replayed checkpoint needs (its windows must
  // stay mergeable with what the file holds).
  auto restored = WindowedMonitor::Restore("/tmp/windowed_netflow.ckpt");
  if (!restored) return 1;
  std::printf("\nrestored from checkpoint: %zu windows, epoch %llu, "
              "plan-driven=%s, decayed entropy %.3f bits\n",
              restored->retained(),
              static_cast<unsigned long long>(restored->epoch()),
              restored->plan_driven() ? "yes" : "no",
              restored->ReportDecayed().entropy->entropy);
  std::remove("/tmp/windowed_netflow.ckpt");
  return 0;
}
