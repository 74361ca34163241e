#ifndef SUBSTREAM_BENCH_BENCH_UTIL_H_
#define SUBSTREAM_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

/// \file bench_util.h
/// Shared plumbing for the experiment harnesses (the `exp_*` binaries):
/// fixed-width table printing and wall-clock timing. Each experiment binary
/// prints the table(s) that reproduce one theorem's observable content.

namespace substream::bench {

/// Minimal aligned-column table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    PrintRule(widths);
    PrintRow(headers_, widths);
    PrintRule(widths);
    for (const auto& row : rows_) PrintRow(row, widths);
    PrintRule(widths);
  }

 private:
  static void PrintRow(const std::vector<std::string>& cells,
                       const std::vector<std::size_t>& widths) {
    std::printf("|");
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  }

  static void PrintRule(const std::vector<std::size_t>& widths) {
    std::printf("+");
    for (std::size_t w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

inline std::string FmtF(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

inline std::string FmtE(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3e", value);
  return buffer;
}

inline std::string FmtI(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  return buffer;
}

inline std::string FmtPct(double fraction) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", 100.0 * fraction);
  return buffer;
}

/// Compiler tag for benchmark JSON rows ("gcc-12.2" / "clang-15.0"), so
/// BENCH_*.json artifacts from different hosts are comparable at a glance.
inline std::string CompilerTag() {
  char buffer[32];
#if defined(__clang__)
  std::snprintf(buffer, sizeof(buffer), "clang-%d.%d", __clang_major__,
                __clang_minor__);
#elif defined(__GNUC__)
  std::snprintf(buffer, sizeof(buffer), "gcc-%d.%d", __GNUC__,
                __GNUC_MINOR__);
#else
  std::snprintf(buffer, sizeof(buffer), "unknown");
#endif
  return buffer;
}

/// Build-type tag for benchmark JSON rows. NDEBUG is what actually divides
/// the perf regimes (assertions + -O level), so it is the honest signal
/// even when CMAKE_BUILD_TYPE strings vary.
inline const char* BuildTag() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// JSON fragment (no braces, no trailing comma) tagging a row with the
/// dispatch level it ran under plus compiler and build type:
///   "isa":"avx2","compiler":"gcc-12.2","build":"release"
inline std::string RowTags(const char* isa) {
  std::string tags = "\"isa\":\"";
  tags += isa;
  tags += "\",\"compiler\":\"";
  tags += CompilerTag();
  tags += "\",\"build\":\"";
  tags += BuildTag();
  tags += "\"";
  return tags;
}

/// Wall-clock stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace substream::bench

#endif  // SUBSTREAM_BENCH_BENCH_UTIL_H_
