#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"
#include "util/math.h"

namespace substream {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::Mean() const { return count_ ? mean_ : 0.0; }

double RunningStats::Variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

double RunningStats::Min() const { return min_; }

double RunningStats::Max() const { return max_; }

namespace {

/// Compare-exchange: afterwards a <= b. On x86-64, GCC -O2 compiles the
/// std::min/std::max pair to one MINSD and one MAXSD, with no branch; the
/// data-dependent branches of nth_element mispredict constantly on sketch
/// row estimates.
inline void Order(double& a, double& b) {
  const double lo = std::min(a, b);
  b = std::max(a, b);
  a = lo;
}

// Median selection networks for the odd row counts the sketches use
// (Devillard, "Fast median search", opt_med5 / opt_med7): 7 and 13
// compare-exchanges. Equal inputs may come back with a different sign of
// zero, which compares equal, so the result is value-identical to
// nth_element's.

double Median5(const double* v) {
  double a = v[0], b = v[1], c = v[2], d = v[3], e = v[4];
  Order(a, b);
  Order(d, e);
  Order(a, d);
  Order(b, e);
  Order(b, c);
  Order(c, d);
  Order(b, c);
  return c;
}

double Median7(const double* v) {
  double p0 = v[0], p1 = v[1], p2 = v[2], p3 = v[3], p4 = v[4], p5 = v[5],
         p6 = v[6];
  Order(p0, p5);
  Order(p0, p3);
  Order(p1, p6);
  Order(p2, p4);
  Order(p0, p1);
  Order(p3, p5);
  Order(p2, p6);
  Order(p2, p3);
  Order(p3, p6);
  Order(p4, p5);
  Order(p1, p4);
  Order(p1, p3);
  Order(p3, p4);
  return p3;
}

}  // namespace

double MedianInPlace(double* values, std::size_t n) {
  SUBSTREAM_CHECK(n > 0);
  if (n == 5) return Median5(values);
  if (n == 7) return Median7(values);
  const std::size_t mid = n / 2;
  std::nth_element(values, values + mid, values + n);
  double hi = values[mid];
  if (n % 2 == 1) return hi;
  std::nth_element(values, values + mid - 1, values + mid);
  return 0.5 * (values[mid - 1] + hi);
}

double Median(std::vector<double> values) {
  return MedianInPlace(values.data(), values.size());
}

double Quantile(std::vector<double> values, double q) {
  SUBSTREAM_CHECK(!values.empty());
  SUBSTREAM_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double MedianOfMeans(const std::vector<double>& values, std::size_t groups) {
  SUBSTREAM_CHECK(!values.empty());
  SUBSTREAM_CHECK(groups >= 1);
  groups = std::min(groups, values.size());
  const std::size_t per_group = values.size() / groups;
  std::vector<double> means;
  means.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    double sum = 0.0;
    for (std::size_t i = g * per_group; i < (g + 1) * per_group; ++i) {
      sum += values[i];
    }
    means.push_back(sum / static_cast<double>(per_group));
  }
  return Median(std::move(means));
}

double FractionWithinFactor(const std::vector<double>& values, double truth,
                            double alpha) {
  if (values.empty()) return 0.0;
  std::size_t good = 0;
  for (double v : values) {
    if (WithinFactor(v, truth, alpha)) ++good;
  }
  return static_cast<double>(good) / static_cast<double>(values.size());
}

}  // namespace substream
