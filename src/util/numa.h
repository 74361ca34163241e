#ifndef SUBSTREAM_UTIL_NUMA_H_
#define SUBSTREAM_UTIL_NUMA_H_

#include <cstddef>
#include <string>
#include <vector>

/// \file numa.h
/// Minimal NUMA topology detection and thread pinning — no libnuma.
///
/// ShardedMonitor uses this to split shard workers into per-node groups so
/// each worker's Monitor, counter tables and ring buffers are first-touch
/// allocated on the node that consumes them. Detection is strictly
/// best-effort: on single-node hosts, containers without /sys, or any parse
/// failure the result degrades to one group spanning every CPU, which is
/// exactly the pre-group behaviour.
///
/// Resolution order:
///  1. `SKETCH_FORCE_NUMA_GROUPS=<g>` — splits the online CPUs round-robin
///     into `g` emulated groups. CI and the shard-group tests use this to
///     exercise grouped worker pinning and per-group stats on single-socket
///     runners; it is also the only way to choose a layout other than the
///     detected one.
///  2. `/sys/devices/system/node/node<k>/cpulist` — real node topology.
///  3. Single group holding every online CPU.

namespace substream {
namespace numa {

/// One group per NUMA node (or emulated group); `cpus[g]` lists the CPU ids
/// belonging to group `g`. Groups are never empty and there is always at
/// least one group.
struct Topology {
  std::vector<std::vector<int>> cpus;
  /// True when the layout came from the SKETCH_FORCE_NUMA_GROUPS override.
  bool forced = false;
  /// True when the layout came from /sys node directories (>= 2 nodes).
  bool from_sysfs = false;

  std::size_t groups() const { return cpus.size(); }
};

/// Detects the node topology per the resolution order above. Never fails:
/// the fallback is a single group of all online CPUs (or CPU 0 if even the
/// online count is unavailable).
Topology DetectTopology();

/// Parses a kernel cpulist string ("0-3,8,10-11") into CPU ids. Returns an
/// empty vector on malformed input. Exposed for tests.
std::vector<int> ParseCpuList(const std::string& text);

/// Best-effort pin of the calling thread to `cpus` via
/// pthread_setaffinity_np. Returns false (and changes nothing) when the set
/// is empty or the syscall is refused — workers run unpinned in that case.
bool PinThreadToCpus(const std::vector<int>& cpus);

/// Human-readable "groups x cpus" layout summary, e.g. "2 groups [8 cpus,
/// 8 cpus] (sysfs)" — examples print this at startup.
std::string Describe(const Topology& topo);

}  // namespace numa
}  // namespace substream

#endif  // SUBSTREAM_UTIL_NUMA_H_
