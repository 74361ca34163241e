/// Property test for the SIMD kernel layer (sketch/counter_kernels.h): for
/// EVERY summary class and EVERY dispatch level this host can run (forced
/// via kernels::SetActive, the same hook the SKETCH_SIMD env override
/// resolves to), ingest must leave the summary in state byte-identical to
/// the scalar reference level. Sizes are adversarial around the kernel
/// geometry: empty, single item, one below/at/above the AVX2 (4) and
/// AVX-512 (8) lane counts, one below/at/above the micro-block (64) and
/// cache-block (1024) sizes, and a large stream — so every vector main
/// loop, every scalar tail, and the block-boundary double-buffer handoffs
/// are all exercised.
///
/// Both ingest shapes are pinned per level: the batched UpdatePrehashed
/// path (the row kernels — the only consumer of the vector layer) and the
/// per-item Update path, which is deliberately scalar at every level and
/// must therefore be bit-identical to the reference REGARDLESS of the
/// forced level (this guards against a per-item path ever silently growing
/// dispatch-dependent behavior). The whole suite also runs under
/// ASan+UBSan in CI, where the stack index buffers and lane tails are the
/// interesting surface.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/entropy_estimator.h"
#include "core/f0_estimator.h"
#include "core/fk_estimator.h"
#include "core/heavy_hitters.h"
#include "core/monitor.h"
#include "serde/serde.h"
#include "sketch/ams_f2.h"
#include "sketch/counter_kernels.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "sketch/entropy_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"
#include "sketch/level_sets.h"
#include "sketch/sketch.h"
#include "sketch/space_saving.h"
#include "stream/generators.h"
#include "util/hash.h"
#include "util/simd.h"

namespace substream {
namespace {

/// Sizes straddling every kernel boundary: SIMD lane counts (4, 8),
/// the hash→replay micro-block (kernels::kMicroBlockItems = 64) and the
/// cache block (CounterTable::kBlockItems = 1024), plus a large stream
/// that runs many full blocks.
constexpr std::size_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 8192};

const Stream& TestStream() {
  static const Stream s = [] {
    ZipfGenerator g(4096, 1.2, 97);
    return Materialize(g, 8192);
  }();
  return s;
}

template <typename S>
std::vector<std::uint8_t> Bytes(const S& summary) {
  serde::Writer writer;
  summary.Serialize(writer);
  return writer.Take();
}

/// Restores the strongest dispatch level even when a test fails mid-way.
class DispatchGuard {
 public:
  ~DispatchGuard() { kernels::SetActive(simd::Best()); }
};

/// For every available level and adversarial size: per-item Update and
/// batched UpdatePrehashed under the forced level must serialize byte-equal
/// to the scalar level's per-item reference.
template <typename Factory>
void ExpectDispatchEquivalence(Factory make) {
  const Stream& s = TestStream();
  DispatchGuard guard;
  for (std::size_t n : kSizes) {
    ASSERT_LE(n, s.size());
    std::vector<std::uint64_t> hashes(n);
    PrehashColumnSoA(s.data(), n, hashes.data());

    ASSERT_TRUE(kernels::SetActive(simd::Isa::kScalar));
    auto reference = make();
    for (std::size_t i = 0; i < n; ++i) reference.Update(s[i]);
    const std::vector<std::uint8_t> want = Bytes(reference);

    for (simd::Isa isa : kernels::AvailableIsas()) {
      ASSERT_TRUE(kernels::SetActive(isa));
      SCOPED_TRACE(testing::Message()
                   << "isa=" << simd::Name(isa) << " n=" << n);

      auto per_item = make();
      for (std::size_t i = 0; i < n; ++i) per_item.Update(s[i]);
      EXPECT_EQ(Bytes(per_item), want)
          << "per-item Update state differs from scalar reference";

      auto batched = make();
      batched.UpdatePrehashed(PrehashedColumns{s.data(), hashes.data()}, n);
      EXPECT_EQ(Bytes(batched), want)
          << "UpdatePrehashed state differs from scalar reference";
    }
  }
}

/// Whole-stream variant of ExpectDispatchEquivalence for hand-built
/// streams (spill-boundary tests): per-item and batched ingest under every
/// level must serialize byte-equal to the scalar per-item reference.
template <typename Factory>
void ExpectDispatchEquivalenceOnStream(Factory make, const Stream& s) {
  DispatchGuard guard;
  std::vector<std::uint64_t> hashes(s.size());
  PrehashColumnSoA(s.data(), s.size(), hashes.data());

  ASSERT_TRUE(kernels::SetActive(simd::Isa::kScalar));
  auto reference = make();
  for (item_t x : s) reference.Update(x);
  const std::vector<std::uint8_t> want = Bytes(reference);

  for (simd::Isa isa : kernels::AvailableIsas()) {
    ASSERT_TRUE(kernels::SetActive(isa));
    SCOPED_TRACE(testing::Message()
                 << "isa=" << simd::Name(isa) << " n=" << s.size());

    auto per_item = make();
    for (item_t x : s) per_item.Update(x);
    EXPECT_EQ(Bytes(per_item), want)
        << "per-item Update state differs from scalar reference";

    auto batched = make();
    batched.UpdatePrehashed(PrehashedColumns{s.data(), hashes.data()},
                            s.size());
    EXPECT_EQ(Bytes(batched), want)
        << "UpdatePrehashed state differs from scalar reference";
  }
}

/// `reps` copies of a hot item interleaved with distinct background items,
/// so vector lanes carry mixed buckets while one bucket is driven across a
/// narrow cell's stop value.
Stream SpillBoundaryStream(std::uint64_t reps) {
  Stream s;
  s.reserve(2 * reps);
  for (std::uint64_t i = 0; i < reps; ++i) {
    s.push_back(1);
    s.push_back(2 + (i % 509));
  }
  return s;
}

TEST(SimdEquivalenceTest, DispatchLadderIsSane) {
  const auto levels = kernels::AvailableIsas();
  ASSERT_FALSE(levels.empty());
  // Scalar is always available, always first, and always settable.
  EXPECT_EQ(levels.front(), simd::Isa::kScalar);
  EXPECT_TRUE(simd::Supported(simd::Isa::kScalar));
  DispatchGuard guard;
  for (simd::Isa isa : levels) {
    EXPECT_TRUE(kernels::SetActive(isa));
    EXPECT_EQ(kernels::ActiveIsa(), isa);
    EXPECT_EQ(kernels::Dispatch().isa, isa);
  }
}

TEST(SimdEquivalenceTest, EnvOverrideParsing) {
  // The SKETCH_SIMD env override goes through ParseIsa on first dispatch;
  // pin the accepted vocabulary (and that junk is rejected, which makes
  // the runtime fall back to CPUID instead of crashing).
  simd::Isa parsed = simd::Isa::kAvx512;
  EXPECT_TRUE(simd::ParseIsa("scalar", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kScalar);
  EXPECT_TRUE(simd::ParseIsa("avx2", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kAvx2);
  EXPECT_TRUE(simd::ParseIsa("avx512", &parsed));
  EXPECT_EQ(parsed, simd::Isa::kAvx512);
  parsed = simd::Isa::kScalar;
  EXPECT_FALSE(simd::ParseIsa("AVX2", &parsed));
  EXPECT_FALSE(simd::ParseIsa("sse42", &parsed));
  EXPECT_FALSE(simd::ParseIsa("", &parsed));
  EXPECT_FALSE(simd::ParseIsa(nullptr, &parsed));
  EXPECT_EQ(parsed, simd::Isa::kScalar) << "failed parse must not write";
}

TEST(SimdEquivalenceTest, CountMinSketch) {
  ExpectDispatchEquivalence([] {
    return CountMinSketch(/*depth=*/4, /*width=*/512, /*seed=*/7);
  });
}

TEST(SimdEquivalenceTest, CountMinOddGeometries) {
  // Assorted depths and a non-power-of-two width (exercises the narrow
  // fast-range path with a "random" reduction).
  for (int depth : {1, 3, 4, 5, 8, 9}) {
    ExpectDispatchEquivalence([depth] {
      return CountMinSketch(depth, /*width=*/389, /*seed=*/101);
    });
  }
}

TEST(SimdEquivalenceTest, CountMinCellWidthMatrix) {
  // Every cell width must stay byte-identical across dispatch levels (the
  // vector index derivations and the typed scalar loops share this gate).
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32,
                       CellWidth::k64}) {
    SCOPED_TRACE(testing::Message() << "cell_bits=" << CellBits(cw));
    ExpectDispatchEquivalence([cw] {
      return CountMinSketch(/*depth=*/4, /*width=*/512, /*seed=*/7, cw);
    });
  }
}

TEST(SimdEquivalenceTest, CountSketchCellWidthMatrix) {
  // Signed variants: CountSketch's narrow cells hold signed counters and
  // its row norms accumulate in stream order, so byte-equality here also
  // pins the floating-point accumulation order across levels.
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32,
                       CellWidth::k64}) {
    SCOPED_TRACE(testing::Message() << "cell_bits=" << CellBits(cw));
    ExpectDispatchEquivalence([cw] {
      return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13, cw);
    });
  }
}

TEST(SimdEquivalenceTest, CountMinCellWidthNonPow2Width) {
  // A non-power-of-two width gives fast-range a non-trivial reduction in
  // the narrow typed loops and the vector bucket derivation.
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    ExpectDispatchEquivalence([cw] {
      return CountMinSketch(/*depth=*/3, /*width=*/389, /*seed=*/101, cw);
    });
  }
}

TEST(SimdEquivalenceTest, CountMinSpillBoundary) {
  // Drive a hot bucket exactly to, one below, and one above a narrow
  // cell's stop value. The spill cold path must fire identically from the
  // vector levels' index replay and from the scalar loops, and the
  // resulting level chain must serialize byte-equal at every dispatch
  // level. The narrow estimates must also match a 64-bit sketch of the
  // same seed exactly.
  struct Case {
    CellWidth cw;
    std::uint64_t sat;  // unit-increment stop value of the base cell
  };
  for (const Case& c : {Case{CellWidth::k8, 255},
                        Case{CellWidth::k16, 65535}}) {
    for (std::uint64_t reps : {c.sat - 1, c.sat, c.sat + 1}) {
      SCOPED_TRACE(testing::Message()
                   << "cell_bits=" << CellBits(c.cw) << " reps=" << reps);
      const Stream s = SpillBoundaryStream(reps);
      auto make = [&] {
        return CountMinSketch(/*depth=*/2, /*width=*/512, /*seed=*/7, c.cw);
      };
      ExpectDispatchEquivalenceOnStream(make, s);
      DispatchGuard guard;
      kernels::SetActive(simd::Best());
      auto narrow = make();
      CountMinSketch wide(2, 512, 7);
      FeedItems(narrow, s.data(), s.size());
      FeedItems(wide, s.data(), s.size());
      for (item_t x = 1; x < 64; ++x) {
        ASSERT_EQ(narrow.Estimate(x), wide.Estimate(x))
            << "spill promotion changed the estimate of item " << x;
      }
    }
  }
}

TEST(SimdEquivalenceTest, CountSketchSpillBoundary) {
  // Signed narrow cells: the stop value is the max-positive pattern.
  // Exercise the 8-bit boundary across all levels.
  for (std::uint64_t reps : {126ULL, 127ULL, 128ULL, 129ULL}) {
    SCOPED_TRACE(testing::Message() << "reps=" << reps);
    const Stream s = SpillBoundaryStream(reps);
    ExpectDispatchEquivalenceOnStream(
        [] {
          return CountSketch(/*depth=*/3, /*width=*/512, /*seed=*/13,
                             CellWidth::k8);
        },
        s);
  }
}

TEST(SimdEquivalenceTest, CountSketch) {
  ExpectDispatchEquivalence(
      [] { return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13); });
}

TEST(SimdEquivalenceTest, CountSketchOddGeometries) {
  // Assorted depths: the batched path's sign/bucket row kernels run per
  // row, so depth scales how often the vector main loop + tail execute.
  for (int depth : {1, 3, 4, 5, 8, 9}) {
    ExpectDispatchEquivalence([depth] {
      return CountSketch(depth, /*width=*/389, /*seed=*/103);
    });
  }
}

TEST(SimdEquivalenceTest, CountSketchFusedUpdateAndEstimate) {
  // The fused ingest+readout path must produce the same estimate sequence
  // AND the same final state at every level.
  const Stream& s = TestStream();
  DispatchGuard guard;
  ASSERT_TRUE(kernels::SetActive(simd::Isa::kScalar));
  CountSketch reference(5, 512, 13);
  std::vector<double> want_estimates;
  for (item_t x : s) {
    want_estimates.push_back(reference.UpdateAndEstimate(MakePrehashed(x), 1));
  }
  const std::vector<std::uint8_t> want = Bytes(reference);

  for (simd::Isa isa : kernels::AvailableIsas()) {
    ASSERT_TRUE(kernels::SetActive(isa));
    SCOPED_TRACE(simd::Name(isa));
    CountSketch sketch(5, 512, 13);
    for (std::size_t i = 0; i < s.size(); ++i) {
      ASSERT_EQ(sketch.UpdateAndEstimate(MakePrehashed(s[i]), 1),
                want_estimates[i])
          << "fused estimate diverges at item " << i;
    }
    EXPECT_EQ(Bytes(sketch), want);
  }
}

TEST(SimdEquivalenceTest, SignKernelOnFullRangeItems) {
  // The stream tests draw small item ids, whose upper 32 bits are zero.
  // The vector sign kernels reduce the polynomial lazily and canonicalize
  // once, so pin them against PolynomialHash::Sign on full-range 64-bit
  // items, field-boundary values included, at every level.
  std::vector<std::uint64_t> items = {0,
                                      1,
                                      PolynomialHash::kPrime - 1,
                                      PolynomialHash::kPrime,
                                      PolynomialHash::kPrime + 1,
                                      std::uint64_t{1} << 61,
                                      2 * PolynomialHash::kPrime,
                                      ~std::uint64_t{0} - 1,
                                      ~std::uint64_t{0}};
  for (std::uint64_t i = 0; items.size() < 4099; ++i) {
    items.push_back(Mix64(i));
  }
  std::vector<std::int64_t> signs(items.size());
  DispatchGuard guard;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const PolynomialHash hash(4, seed);
    for (simd::Isa isa : kernels::AvailableIsas()) {
      ASSERT_TRUE(kernels::SetActive(isa));
      kernels::Dispatch().sign_row4_cols(items.data(), items.size(),
                                         hash.coefficients().data(),
                                         signs.data());
      for (std::size_t i = 0; i < items.size(); ++i) {
        ASSERT_EQ(signs[i], hash.Sign(items[i]))
            << simd::Name(isa) << " seed " << seed << " item " << items[i];
      }
    }
  }
}

TEST(SimdEquivalenceTest, CountSketchPointEstimates) {
  // Read-only path: Estimate() is scalar at every level; its results must
  // not depend on the forced level (the state it reads was built by the
  // dispatch-dependent batched path).
  const Stream& s = TestStream();
  DispatchGuard guard;
  ASSERT_TRUE(kernels::SetActive(simd::Isa::kScalar));
  CountSketch reference(5, 512, 13);
  FeedItems(reference, s.data(), s.size());
  std::vector<double> want;
  for (item_t x = 0; x < 64; ++x) {
    want.push_back(reference.Estimate(MakePrehashed(x)));
  }
  for (simd::Isa isa : kernels::AvailableIsas()) {
    ASSERT_TRUE(kernels::SetActive(isa));
    SCOPED_TRACE(simd::Name(isa));
    CountSketch sketch(5, 512, 13);
    FeedItems(sketch, s.data(), s.size());
    for (item_t x = 0; x < 64; ++x) {
      EXPECT_EQ(sketch.Estimate(MakePrehashed(x)),
                want[static_cast<std::size_t>(x)]);
    }
  }
}

TEST(SimdEquivalenceTest, CountMinHeavyHitters) {
  ExpectDispatchEquivalence(
      [] { return CountMinHeavyHitters(0.02, 0.25, 0.05, 11); });
}

TEST(SimdEquivalenceTest, CountSketchHeavyHitters) {
  ExpectDispatchEquivalence(
      [] { return CountSketchHeavyHitters(0.05, 0.25, 0.05, 17); });
}

TEST(SimdEquivalenceTest, HyperLogLog) {
  ExpectDispatchEquivalence([] { return HyperLogLog(12, 19); });
}

TEST(SimdEquivalenceTest, KmvSketch) {
  ExpectDispatchEquivalence([] { return KmvSketch(256, 23); });
}

TEST(SimdEquivalenceTest, EntropyMleEstimator) {
  ExpectDispatchEquivalence([] { return EntropyMleEstimator(); });
}

TEST(SimdEquivalenceTest, AmsF2Sketch) {
  ExpectDispatchEquivalence(
      [] { return AmsF2Sketch::WithGeometry(5, 32, 31); });
}

TEST(SimdEquivalenceTest, SpaceSaving) {
  ExpectDispatchEquivalence([] { return SpaceSaving(64); });
}

TEST(SimdEquivalenceTest, IndykWoodruffEstimator) {
  // Level sets: a stack of per-depth CountSketches with narrow widths —
  // many small batched row passes, so kernel tails get heavy use here.
  ExpectDispatchEquivalence([] {
    LevelSetParams params;
    params.eps_prime = 0.25;
    params.max_depth = 10;
    params.cs_depth = 5;
    params.cs_width = 256;
    return IndykWoodruffEstimator(params, 37);
  });
}

TEST(SimdEquivalenceTest, ExactLevelSets) {
  ExpectDispatchEquivalence([] { return ExactLevelSets(0.25, 0.5); });
}

TEST(SimdEquivalenceTest, F0EstimatorAllBackends) {
  for (F0Backend backend :
       {F0Backend::kKmv, F0Backend::kHyperLogLog, F0Backend::kExact}) {
    ExpectDispatchEquivalence([backend] {
      F0Params params;
      params.p = 0.5;
      params.backend = backend;
      params.kmv_k = 256;
      params.hll_precision = 12;
      return F0Estimator(params, 41);
    });
  }
}

TEST(SimdEquivalenceTest, FkEstimatorSketchBackend) {
  ExpectDispatchEquivalence([] {
    FkParams params;
    params.k = 2;
    params.p = 0.5;
    params.universe = 4096;
    params.epsilon = 0.25;
    params.max_width = 512;
    return FkEstimator(params, 43);
  });
}

TEST(SimdEquivalenceTest, EntropyEstimator) {
  ExpectDispatchEquivalence([] {
    EntropyParams params;
    params.p = 0.5;
    return EntropyEstimator(params);
  });
}

TEST(SimdEquivalenceTest, F1HeavyHitterEstimator) {
  ExpectDispatchEquivalence([] {
    HeavyHitterParams params;
    params.alpha = 0.02;
    params.p = 0.5;
    return F1HeavyHitterEstimator(params, 53);
  });
}

TEST(SimdEquivalenceTest, F2HeavyHitterEstimator) {
  ExpectDispatchEquivalence([] {
    HeavyHitterParams params;
    params.alpha = 0.1;
    params.p = 0.5;
    return F2HeavyHitterEstimator(params, 59);
  });
}

TEST(SimdEquivalenceTest, MonitorFullPipeline) {
  ExpectDispatchEquivalence([] {
    MonitorConfig config;
    config.p = 0.25;
    config.universe = 1 << 14;
    config.hh_alpha = 0.02;
    config.max_f2_width = 1 << 10;
    return Monitor(config, 61);
  });
}

TEST(SimdEquivalenceTest, MonitorCompactCells) {
  // The facade's cell-width knob threads down to the F2 CountSketch and
  // the heavy-hitter CountMin; the full pipeline must stay
  // dispatch-invariant with compact cells.
  ExpectDispatchEquivalence([] {
    MonitorConfig config;
    config.p = 0.25;
    config.universe = 1 << 14;
    config.hh_alpha = 0.02;
    config.max_f2_width = 1 << 10;
    config.cell_width = CellWidth::k32;
    return Monitor(config, 61);
  });
}

}  // namespace
}  // namespace substream
