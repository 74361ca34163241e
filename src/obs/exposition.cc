#include "obs/exposition.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace substream {
namespace obs {

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendI64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

// %.17g round-trips doubles exactly through parse-back; JSON forbids bare
// inf/nan so clamp those to 0.
void AppendF64(std::string& out, double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) {
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

// Highest bucket index with a nonzero count (so expositions stop at the
// observed range instead of emitting 44 bounds per histogram); -1 if empty.
int HighestNonZeroBucket(const HistogramSample& h) {
  for (int i = static_cast<int>(kHistogramBuckets) - 1; i >= 0; --i) {
    if (h.buckets[static_cast<unsigned>(i)] != 0) return i;
  }
  return -1;
}

double RatePerSec(std::uint64_t cur, std::uint64_t prev_value,
                  std::uint64_t dt_ns) {
  if (dt_ns == 0 || cur < prev_value) return 0.0;
  return static_cast<double>(cur - prev_value) * 1e9 /
         static_cast<double>(dt_ns);
}

template <typename Sample>
const Sample* FindByName(const std::vector<Sample>& samples,
                         const std::string& name) {
  for (const Sample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const CounterSample& c : snap.counters) {
    if (!c.help.empty()) {
      out += "# HELP " + c.name + " " + c.help + "\n";
    }
    out += "# TYPE " + c.name + " counter\n";
    out += c.name + " ";
    AppendU64(out, c.value);
    out += "\n";
  }
  for (const GaugeSample& g : snap.gauges) {
    if (!g.help.empty()) {
      out += "# HELP " + g.name + " " + g.help + "\n";
    }
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " ";
    AppendI64(out, g.value);
    out += "\n";
  }
  for (const HistogramSample& h : snap.histograms) {
    if (!h.help.empty()) {
      out += "# HELP " + h.name + " " + h.help + "\n";
    }
    out += "# TYPE " + h.name + " histogram\n";
    const int top = HighestNonZeroBucket(h);
    std::uint64_t cumulative = 0;
    for (int i = 0; i <= top && i + 1 < static_cast<int>(kHistogramBuckets);
         ++i) {
      cumulative += h.buckets[static_cast<unsigned>(i)];
      out += h.name + "_bucket{le=\"";
      AppendU64(out, BucketUpperBoundNs(static_cast<unsigned>(i)));
      out += "\"} ";
      AppendU64(out, cumulative);
      out += "\n";
    }
    out += h.name + "_bucket{le=\"+Inf\"} ";
    AppendU64(out, h.count);
    out += "\n";
    out += h.name + "_sum ";
    AppendU64(out, h.sum_ns);
    out += "\n";
    out += h.name + "_count ";
    AppendU64(out, h.count);
    out += "\n";
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snap, const MetricsSnapshot* prev) {
  const bool with_rates =
      prev != nullptr && snap.wall_ns > prev->wall_ns;
  const std::uint64_t dt_ns = with_rates ? snap.wall_ns - prev->wall_ns : 0;

  std::string out;
  out.reserve(4096);
  out += "{\"wall_ns\":";
  AppendU64(out, snap.wall_ns);
  if (with_rates) {
    out += ",\"interval_ns\":";
    AppendU64(out, dt_ns);
  }
  out += ",\"counters\":[";
  bool first = true;
  for (const CounterSample& c : snap.counters) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(out, c.name);
    out += "\",\"value\":";
    AppendU64(out, c.value);
    if (with_rates) {
      const CounterSample* p = FindByName(prev->counters, c.name);
      out += ",\"rate_per_sec\":";
      AppendF64(out, RatePerSec(c.value, p ? p->value : 0, dt_ns));
    }
    out += "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const GaugeSample& g : snap.gauges) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(out, g.name);
    out += "\",\"value\":";
    AppendI64(out, g.value);
    out += "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const HistogramSample& h : snap.histograms) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(out, h.name);
    out += "\",\"count\":";
    AppendU64(out, h.count);
    out += ",\"sum_ns\":";
    AppendU64(out, h.sum_ns);
    if (h.count > 0) {
      out += ",\"mean_ns\":";
      AppendF64(out, static_cast<double>(h.sum_ns) /
                         static_cast<double>(h.count));
    }
    if (with_rates) {
      const HistogramSample* p = FindByName(prev->histograms, h.name);
      out += ",\"rate_per_sec\":";
      AppendF64(out, RatePerSec(h.count, p ? p->count : 0, dt_ns));
    }
    // Sparse buckets: [log2_index, count] pairs, nonzero only.
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      out += "[";
      AppendU64(out, i);
      out += ",";
      AppendU64(out, h.buckets[i]);
      out += "]";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ToJson(const HealthReport& report) {
  std::string out;
  out.reserve(1024);
  out += "{\"sampled_length\":";
  AppendU64(out, report.sampled_length);
  out += ",\"sampling_p\":";
  AppendF64(out, report.sampling_p);
  out += ",\"summaries\":[";
  bool first = true;
  for (const SummaryHealth& s : report.summaries) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(out, s.name);
    out += "\",\"kind\":\"";
    AppendEscaped(out, s.kind);
    out += "\",\"depth\":";
    AppendU64(out, s.depth);
    out += ",\"width\":";
    AppendU64(out, s.width);
    out += ",\"cells\":";
    AppendU64(out, s.cells);
    out += ",\"nonzero_cells\":";
    AppendU64(out, s.nonzero_cells);
    out += ",\"spilled_cells\":";
    AppendU64(out, s.spilled_cells);
    out += ",\"fill_ratio\":";
    AppendF64(out, s.fill_ratio);
    out += ",\"spill_fraction\":";
    AppendF64(out, s.spill_fraction);
    out += ",\"epsilon\":";
    AppendF64(out, s.epsilon);
    out += ",\"delta\":";
    AppendF64(out, s.delta);
    out += ",\"space_bytes\":";
    AppendU64(out, s.space_bytes);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace substream
