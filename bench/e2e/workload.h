#ifndef SUBSTREAM_BENCH_E2E_WORKLOAD_H_
#define SUBSTREAM_BENCH_E2E_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "util/common.h"

/// \file workload.h
/// Input side of the end-to-end benchmark: the workload table, the seeded
/// generator of the original stream P and its Bernoulli(p) sample L, and
/// the exact statistics of P the outputs are checked against. The system
/// under test only ever receives L.

namespace substream::e2e {

/// One benchmark workload. Sizes are in items of the sampled stream L.
///
/// A run measures `groups` groups of `rounds` rounds. A group passes the
/// ingest prefix once through the single-thread Monitor and once through
/// the sharded pipeline, a slice per round, and closes one window of the
/// roll-up per round. Spreading every job over the whole run this way
/// makes each metric sample every stretch of it. The number of groups is
/// fixed by --seconds, not by the clock, so every run of a workload does
/// the same work.
struct WorkloadSpec {
  std::string name;
  double skew = 1.1;           ///< Zipf exponent of P
  std::uint64_t universe = 0;  ///< flow ids are 1..universe
  /// Prefix of L fed to the single-thread Monitor and the sharded pipeline.
  std::size_t ingest_items = 0;
  /// Items per window of the roll-up.
  std::size_t window_items = 0;
  /// Open-loop offered rate of the roll-up in L items/s; 0 = closed loop.
  double rate = 0.0;
  std::size_t rounds = 0;  ///< rounds per group
  std::size_t groups = 0;  ///< groups per run
  /// Monitor::Report() calls timed on the merged monitor per round.
  int report_calls = 0;
  /// Set-ups timed before the rounds.
  int setups = 128;

  std::size_t windows() const { return rounds * groups; }
  std::size_t l_items() const {
    return ingest_items > window_items * windows() ? ingest_items
                                                   : window_items * windows();
  }
};

/// Items per Ingest call, ring batch and open-loop generator batch.
inline constexpr std::size_t kBatchItems = 4096;
/// Sliding-window roll-up width queried at every window close.
inline constexpr std::size_t kReportWindows = 4;

/// The named workload, sized for a run of `seconds`, or its shrunk
/// smoke-test form. Returns false for an unknown name.
bool LookupWorkload(const std::string& name, int seconds, bool smoke,
                    WorkloadSpec* out);

/// Exact statistics of one slice of P.
struct Truth {
  double f1 = 0.0;
  double f2 = 0.0;
  double f0 = 0.0;
  double entropy = 0.0;  ///< bits
  /// Flows with f >= alpha F1 (Definition 4: must be reported).
  std::vector<item_t> heavy;
  /// Flows with f >= (1 - eps) alpha F1 (anything else reported is a false
  /// positive).
  std::vector<item_t> allowed;
};

struct Input {
  std::vector<item_t> sampled;  ///< L
  std::uint64_t original_items = 0;  ///< |P|
  std::uint64_t digest = 0;          ///< fold of L and |P|
  Truth ingest;                      ///< P behind L[0, ingest_items)
  /// Entry w: P behind the last kReportWindows windows ending at window w.
  std::vector<Truth> windows;
  /// The generator's tables and count arrays. Kept alive, unused, so the
  /// resident set read after BuildInput includes them: rss_mb subtracts
  /// that reading from the run's peak.
  std::shared_ptr<const void> generator_storage;
};

/// Draws P from `seed`, samples L with the config's p and computes the
/// truths.
Input BuildInput(const WorkloadSpec& spec, const MonitorConfig& config,
                 std::uint64_t seed);

}  // namespace substream::e2e

#endif  // SUBSTREAM_BENCH_E2E_WORKLOAD_H_
