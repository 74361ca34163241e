/// Shard-group invariants: the NUMA-aware group layout is placement
/// machinery ONLY — it must never change what the pipeline computes. The
/// layouts are forced through SKETCH_FORCE_NUMA_GROUPS, the same override
/// the emulated-groups CI leg sets. Pins:
///  - a forced 1-group and a forced N-group pipeline over the same input
///    produce byte-identical CollectWindow() monitors and EQ-comparable
///    Report()s;
///  - group layout never changes shard routing;
///  - Stats() carries the group count and per-group ring high-water marks;
///  - both layouts match the monolithic single-threaded Monitor.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/monitor.h"
#include "core/sharded_monitor.h"
#include "pipeline_test_util.h"
#include "util/numa.h"

namespace substream {
namespace {

using pipeline_test::Bytes;
using pipeline_test::kSeed;
using pipeline_test::SampledStream;
using pipeline_test::TestConfig;

constexpr std::size_t kShards = 4;
constexpr const char* kForceGroupsEnv = "SKETCH_FORCE_NUMA_GROUPS";

/// Sets SKETCH_FORCE_NUMA_GROUPS for the guard's lifetime and restores the
/// ambient value afterwards, so later tests in this process see the
/// environment they started with.
class ForcedGroups {
 public:
  explicit ForcedGroups(std::size_t groups) {
    const char* prior = std::getenv(kForceGroupsEnv);
    had_prior_ = prior != nullptr;
    if (had_prior_) prior_ = prior;
    setenv(kForceGroupsEnv, std::to_string(groups).c_str(), 1);
  }
  ~ForcedGroups() {
    if (had_prior_) {
      setenv(kForceGroupsEnv, prior_.c_str(), 1);
    } else {
      unsetenv(kForceGroupsEnv);
    }
  }
  ForcedGroups(const ForcedGroups&) = delete;
  ForcedGroups& operator=(const ForcedGroups&) = delete;

 private:
  bool had_prior_ = false;
  std::string prior_;
};

ShardedMonitorOptions GroupedOptions() {
  ShardedMonitorOptions options;
  options.shards = kShards;
  options.ring_capacity = 8;
  options.batch_items = 256;
  // Emulated groups on a (possibly) single-node CI host: pinning every
  // "group" to the same node is legal but pointless, and keeping the
  // affinity mask untouched makes the test immune to restricted cpusets.
  options.pin_workers = false;
  return options;
}

/// A 4-shard pipeline built while `requested` groups are forced. The
/// forced split clamps to the online CPUs and the pipeline to its shard
/// count, so a 1-2 CPU runner resolves fewer groups than requested.
std::unique_ptr<ShardedMonitor> GroupedPipeline(std::size_t requested) {
  ForcedGroups forced(requested);
  auto pipeline =
      std::make_unique<ShardedMonitor>(TestConfig(), kSeed, GroupedOptions());
  EXPECT_EQ(pipeline->groups(),
            std::min({requested, numa::DetectTopology().groups(), kShards}));
  return pipeline;
}

TEST(ShardedGroupsTest, OneGroupVsManyGroupsByteIdentical) {
  const Stream s = SampledStream(60000, 17);

  const std::unique_ptr<ShardedMonitor> flat = GroupedPipeline(1);
  const std::unique_ptr<ShardedMonitor> grouped = GroupedPipeline(4);
  ASSERT_EQ(flat->groups(), 1u);

  flat->Ingest(s);
  grouped->Ingest(s);

  // Open-epoch reports agree field by field (Report is scratch-merged).
  const MonitorReport a = flat->Report();
  const MonitorReport b = grouped->Report();
  EXPECT_EQ(a.sampled_length, b.sampled_length);
  EXPECT_EQ(*a.distinct_items, *b.distinct_items);
  EXPECT_EQ(*a.second_moment, *b.second_moment);
  EXPECT_EQ(a.entropy->entropy, b.entropy->entropy);
  ASSERT_EQ(a.heavy_hitters->size(), b.heavy_hitters->size());
  for (std::size_t i = 0; i < a.heavy_hitters->size(); ++i) {
    EXPECT_EQ((*a.heavy_hitters)[i].item, (*b.heavy_hitters)[i].item);
    EXPECT_EQ((*a.heavy_hitters)[i].estimated_frequency,
              (*b.heavy_hitters)[i].estimated_frequency);
  }

  // Collected windows are byte-identical — the strongest form (every
  // counter, candidate pool, float row norm and RNG state).
  flat->Rotate();
  grouped->Rotate();
  auto wf = flat->CollectWindow(0);
  auto wg = grouped->CollectWindow(0);
  ASSERT_TRUE(wf.has_value());
  ASSERT_TRUE(wg.has_value());
  EXPECT_EQ(Bytes(*wf), Bytes(*wg))
      << "1-group vs " << grouped->groups() << "-group merged window differs";

  // And both agree with the monolithic reference monitor on the linear
  // report surface (full byte identity with an unsharded monitor is not a
  // goal — partitioning legitimately reorders per-shard RNG consumption).
  Monitor reference(TestConfig(), kSeed);
  reference.UpdateBatch(s.data(), s.size());
  const MonitorReport r = reference.Report();
  const MonitorReport w = wf->Report();
  EXPECT_EQ(r.sampled_length, w.sampled_length);
  EXPECT_EQ(*r.second_moment, *w.second_moment);
}

TEST(ShardedGroupsTest, RepeatedGroupedReportsAreStable) {
  const Stream s = SampledStream(30000, 23);
  const std::unique_ptr<ShardedMonitor> grouped = GroupedPipeline(2);
  grouped->Ingest(s);
  const MonitorReport first = grouped->Report();
  const MonitorReport second = grouped->Report();
  EXPECT_EQ(first.sampled_length, second.sampled_length);
  EXPECT_EQ(*first.second_moment, *second.second_moment);
  // Report must not consume anything: windows rotate and collect intact.
  grouped->Rotate();
  auto window = grouped->CollectWindow(0);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->Report().sampled_length, first.sampled_length);
}

TEST(ShardedGroupsTest, RoutingIndependentOfGroupLayout) {
  // ShardOf depends only on the shard count — the documented guarantee
  // that makes the 1-vs-N identity possible at all.
  for (item_t item = 0; item < 512; ++item) {
    const std::size_t shard = ShardedMonitor::ShardOf(item, 4);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, ShardedMonitor::ShardOf(item, 4));
  }
}

TEST(ShardedGroupsTest, StatsCarryGroupLayout) {
  const Stream s = SampledStream(20000, 29);
  const std::unique_ptr<ShardedMonitor> grouped = GroupedPipeline(2);
  grouped->Ingest(s);
  grouped->Drain();
  const ShardedMonitorStats stats = grouped->Stats();
  EXPECT_EQ(stats.groups, grouped->groups());
  ASSERT_EQ(stats.group_ring_hwm.size(), grouped->groups());
  // Every shard got data (6k sampled items over 4 shards), so every group
  // pushed batches and recorded an occupancy mark.
  std::uint64_t marks = 0;
  for (std::uint64_t hwm : stats.group_ring_hwm) marks += hwm;
  EXPECT_GE(marks, 1u);
  EXPECT_EQ(stats.items_consumed, stats.items_ingested);
}

TEST(ShardedGroupsTest, GroupsClampToShardCount) {
  // More groups than shards degrades to at most one group per shard (the
  // helper checks the resolved count), and the pipeline still works end
  // to end.
  const std::unique_ptr<ShardedMonitor> pipeline = GroupedPipeline(16);
  EXPECT_LE(pipeline->groups(), kShards);
  const Stream s = SampledStream(5000, 31);
  pipeline->Ingest(s);
  const MonitorReport report = pipeline->Report();
  EXPECT_EQ(report.sampled_length, static_cast<count_t>(s.size()));
}

TEST(ShardedGroupsTest, AmbientLayoutFollowsDetectedTopology) {
  // Without a forced override in scope the pipeline resolves against the
  // ambient DetectTopology() (the emulated-groups CI leg drives >1 here).
  ShardedMonitor pipeline(TestConfig(), kSeed, GroupedOptions());
  EXPECT_EQ(pipeline.groups(),
            std::min(numa::DetectTopology().groups(), kShards));
  EXPECT_GE(pipeline.groups(), 1u);
}

}  // namespace
}  // namespace substream
