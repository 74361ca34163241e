/// E5 (Proposition 1 + Lemma 10 + Theorem 5): above the validity threshold
/// H(f) = omega(p^{-1/2} n^{-1/6}), the entropy of the sampled stream is a
/// constant-factor approximation of H(f):
///   H(f)/2 - o(1) <= H_pn(g) <= O(H(f)).
///
/// Prints, per (skew, p): true entropy H(f), the estimator's H(g) and
/// H_pn(g), the ratio H(g)/H(f), the validity threshold, and the
/// reliability flag. Expectation: ratio within a small constant band
/// everywhere the threshold is cleared, tightening as p -> 1.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/entropy_estimator.h"
#include "stream/exact_stats.h"
#include "stream/generators.h"
#include "stream/samplers.h"
#include "util/stats.h"

namespace substream {
namespace {

using bench::FmtF;
using bench::Table;

void RunExperiment() {
  const std::size_t n = 1 << 17;
  const item_t m = 1 << 14;
  const int kTrials = 7;
  std::printf("E5: constant-factor entropy estimation above the threshold\n");
  std::printf("    (Theorem 5; Zipf workloads, n=%zu, m=%llu, %d trials)\n\n",
              n, static_cast<unsigned long long>(m), kTrials);

  Table table({"zipf skew", "p", "H(f)", "med H(g)", "med H_pn(g)",
               "ratio H(g)/H(f)", "threshold", "reliable"});

  for (double skew : {0.6, 0.8, 1.0, 1.2, 1.5, 2.0}) {
    ZipfGenerator gen(m, skew, 21);
    Stream original = Materialize(gen, n);
    const double truth = ExactStats(original).Entropy();
    for (double p : {0.3, 0.1, 0.03}) {
      std::vector<double> h_g, h_pn;
      bool reliable = true;
      double threshold = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        EntropyParams params;
        params.p = p;
        params.n_hint = static_cast<double>(n);
        BernoulliSampler sampler(p, 500 + static_cast<std::uint64_t>(t));
        EntropyEstimator est(params);
        for (item_t a : original) {
          if (sampler.Keep()) est.Update(a);
        }
        const EntropyResult r = est.Estimate();
        h_g.push_back(r.entropy);
        h_pn.push_back(r.entropy_hpn);
        reliable = reliable && r.reliable;
        threshold = r.threshold;
      }
      table.AddRow({FmtF(skew, 1), FmtF(p, 2), FmtF(truth, 3),
                    FmtF(Median(h_g), 3), FmtF(Median(h_pn), 3),
                    FmtF(Median(h_g) / truth, 3), FmtF(threshold, 3),
                    reliable ? "yes" : "NO"});
    }
  }
  table.Print();
  std::printf(
      "\nReading: every reliable row has ratio in a narrow constant band\n"
      "(well inside the [1/2 - o(1), O(1)] envelope of Lemma 10); the\n"
      "high-skew / low-entropy rows show the ratio drifting as the\n"
      "threshold is approached — the regime Lemma 9 proves is hopeless.\n");
}

}  // namespace
}  // namespace substream

int main() {
  substream::RunExperiment();
  return 0;
}
