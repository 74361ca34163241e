#ifndef SUBSTREAM_UTIL_STATS_H_
#define SUBSTREAM_UTIL_STATS_H_

#include <cstddef>
#include <vector>

/// \file stats.h
/// Running statistics used by experiment harnesses and by median-of-means
/// amplification inside estimators.

namespace substream {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void Add(double x);

  std::size_t Count() const { return count_; }
  double Mean() const;
  /// Unbiased sample variance (0 if fewer than 2 observations).
  double Variance() const;
  double StdDev() const;
  double Min() const;
  double Max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Median of a sample (copies + nth_element; callers pass small vectors).
double Median(std::vector<double> values);

/// Median computed in place over `values[0..n)` — may reorder the buffer.
/// Same order statistics as Median() (average of the two middle elements
/// for even n), but allocation-free: the sketch readout hot paths call it
/// per item with stack buffers. n = 5 and n = 7 (the sketch row counts)
/// run a branch-free min/max selection network; other n use nth_element.
double MedianInPlace(double* values, std::size_t n);

/// q-quantile in [0,1] using linear interpolation between order statistics.
double Quantile(std::vector<double> values, double q);

/// Median-of-means: partitions `values` into `groups` contiguous groups,
/// averages each, returns the median of the group means. This is the
/// standard amplification converting a bounded-variance estimator into a
/// (1+eps, delta) estimator.
double MedianOfMeans(const std::vector<double>& values, std::size_t groups);

/// Fraction of values within multiplicative factor `alpha` of `truth`.
double FractionWithinFactor(const std::vector<double>& values, double truth,
                            double alpha);

}  // namespace substream

#endif  // SUBSTREAM_UTIL_STATS_H_
