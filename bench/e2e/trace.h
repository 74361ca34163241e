#ifndef SUBSTREAM_BENCH_E2E_TRACE_H_
#define SUBSTREAM_BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file trace.h
/// In-memory span recorder for the benchmark's traced run. Spans are
/// recorded by the benchmark around its calls into the library's public
/// API — {name, start, end, parent, items} — and written to trace.json when
/// the run ends; trace_report.py turns them into per-layer self time and
/// the layer metrics. A disabled tracer records nothing and never reads
/// the clock, so the untraced run pays nothing for the probes.

namespace substream::e2e {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_ && !paused_; }

  /// Suspends span recording (the untraced pass the overhead is measured
  /// against). Spans already open still close.
  void set_paused(bool paused) { paused_ = paused; }

  /// Opens a span under the innermost open one; returns its id, or -1
  /// when not recording. `name` must outlive the tracer.
  int Begin(const char* name, std::uint64_t items = 0) {
    if (!enabled()) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, items});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// A named scalar the layer metrics need that no span carries (ring
  /// high-water marks, byte counts, accuracy).
  void Counter(const std::string& name, double value) {
    if (enabled_) counters_[name] = value;
  }

  /// Writes {"meta", "counters", "spans"} as JSON; `meta` values are
  /// written as strings.
  bool Write(const std::string& path,
             const std::vector<std::pair<std::string, std::string>>& meta)
      const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"meta\": {");
    const char* sep = "";
    for (const auto& [key, value] : meta) {
      std::fprintf(f, "%s\"%s\": \"%s\"", sep, key.c_str(), value.c_str());
      sep = ", ";
    }
    std::fprintf(f, "},\n\"counters\": {");
    sep = "";
    for (const auto& [name, value] : counters_) {
      std::fprintf(f, "%s\n  \"%s\": %.17g", sep, name.c_str(), value);
      sep = ",";
    }
    std::fprintf(f, "},\n\"spans\": [");
    sep = "";
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"items\": %llu}",
                   sep, s.name, static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.items));
      sep = ",";
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;
    std::uint64_t items;
  };

  bool enabled_;
  bool paused_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t items = 0)
      : tracer_(tracer), id_(tracer.Begin(name, items)) {}
  ~Span() { tracer_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace substream::e2e

#endif  // SUBSTREAM_BENCH_E2E_TRACE_H_
