/// Byte-equality of the column ingest path of the level sets against the
/// per-item reference. IndykWoodruffEstimator::UpdatePrehashed(cols, n,
/// weight) reorders work depth-major inside each chunk and runs one column
/// CountSketch::UpdateAndEstimate per depth; neither may change a single
/// serialized byte (counters, row norms, exact maps, candidate pools), at
/// any cell width, weight, chunk boundary or dispatch level.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "serde/serde.h"
#include "sketch/counter_kernels.h"
#include "sketch/countsketch.h"
#include "sketch/level_sets.h"
#include "sketch/sketch.h"
#include "stream/generators.h"
#include "util/hash.h"
#include "util/simd.h"

namespace substream {
namespace {

/// Around the micro-block (64) and chunk (1024) boundaries, plus several
/// chunks with a ragged tail.
constexpr std::size_t kSizes[] = {1, 63, 64, 65, 1023, 1024, 1025, 4097};
constexpr count_t kWeights[] = {1, 8, 64};
constexpr CellWidth kCellWidths[] = {CellWidth::k8, CellWidth::k16,
                                     CellWidth::k32, CellWidth::k64};

const Stream& TestStream() {
  static const Stream s = [] {
    ZipfGenerator g(4096, 1.1, 61);
    return Materialize(g, 4097);
  }();
  return s;
}

template <typename S>
std::vector<std::uint8_t> Bytes(const S& summary) {
  serde::Writer writer;
  summary.Serialize(writer);
  return writer.Take();
}

class DispatchGuard {
 public:
  ~DispatchGuard() { kernels::SetActive(simd::Best()); }
};

/// Per-item Update(ph, weight) at the scalar level is the reference; the
/// column path at every available level must serialize byte-equal, fed
/// whole and split at a ragged point.
void ExpectColumnMatchesPerItem(const LevelSetParams& params, count_t weight) {
  const Stream& s = TestStream();
  std::vector<std::uint64_t> hashes(s.size());
  PrehashColumnSoA(s.data(), s.size(), hashes.data());
  DispatchGuard guard;
  for (std::size_t n : kSizes) {
    ASSERT_TRUE(kernels::SetActive(simd::Isa::kScalar));
    IndykWoodruffEstimator reference(params, 41);
    for (std::size_t i = 0; i < n; ++i) {
      reference.Update(MakePrehashed(s[i]), weight);
    }
    const std::vector<std::uint8_t> want = Bytes(reference);

    for (simd::Isa isa : kernels::AvailableIsas()) {
      ASSERT_TRUE(kernels::SetActive(isa));
      SCOPED_TRACE(testing::Message() << "isa=" << simd::Name(isa)
                                      << " n=" << n << " weight=" << weight);
      IndykWoodruffEstimator whole(params, 41);
      whole.UpdatePrehashed(PrehashedColumns{s.data(), hashes.data()}, n,
                            weight);
      EXPECT_EQ(Bytes(whole), want) << "column path differs from per-item";

      const std::size_t cut = n / 3;
      IndykWoodruffEstimator split(params, 41);
      split.UpdatePrehashed(PrehashedColumns{s.data(), hashes.data()}, cut,
                            weight);
      split.UpdatePrehashed(
          PrehashedColumns{s.data() + cut, hashes.data() + cut}, n - cut,
          weight);
      EXPECT_EQ(Bytes(split), want) << "split column feed differs";
    }
  }
}

LevelSetParams SmallParams(CellWidth cell_width, std::uint64_t cs_width) {
  LevelSetParams params;
  params.max_depth = 10;
  params.cs_depth = 5;
  params.cs_width = cs_width;
  params.cell_width = cell_width;
  return params;
}

TEST(LevelSetsColumnTest, CellWidthsAndWeights) {
  // 256 is a power of two, 300 is not (fast-range bucket reduction).
  for (CellWidth cw : kCellWidths) {
    for (std::uint64_t width : {256u, 300u}) {
      for (count_t weight : kWeights) {
        SCOPED_TRACE(testing::Message()
                     << "cell_bits=" << CellBits(cw) << " width=" << width);
        ExpectColumnMatchesPerItem(SmallParams(cw, width), weight);
      }
    }
  }
}

TEST(LevelSetsColumnTest, DepthClampingAtSmallMaxDepth) {
  // max_depth 2: every item of depth >= 2 lands in the last slot.
  for (count_t weight : kWeights) {
    LevelSetParams params = SmallParams(CellWidth::k64, 256);
    params.max_depth = 2;
    ExpectColumnMatchesPerItem(params, weight);
  }
}

TEST(LevelSetsColumnTest, ExactMapOverflowsMidChunk) {
  // A 40-item exact capacity overflows inside the first chunk at depth 0
  // (the Zipf stream has hundreds of distinct items per 1024) and later
  // at deeper depths; the drop must land on the same item as per-item.
  for (count_t weight : kWeights) {
    LevelSetParams params = SmallParams(CellWidth::k16, 256);
    params.exact_capacity = 40;
    params.candidate_capacity = 16;  // forces evictions too
    ExpectColumnMatchesPerItem(params, weight);
  }
}

TEST(LevelSetsColumnTest, SevenRowsMatch) {
  // The default-config row count (median network n = 7).
  LevelSetParams params = SmallParams(CellWidth::k64, 512);
  params.cs_depth = 7;
  ExpectColumnMatchesPerItem(params, 1);
}

TEST(LevelSetsColumnTest, ChunkedEntryPointsMatch) {
  // Raw items chunked through FeedItems, and one multi-chunk weighted
  // column batch, both against the per-item reference.
  const Stream& s = TestStream();
  const LevelSetParams params = SmallParams(CellWidth::k32, 256);
  IndykWoodruffEstimator reference(params, 43);
  for (item_t x : s) reference.Update(x);

  IndykWoodruffEstimator chunked(params, 43);
  FeedItems(chunked, s.data(), s.size());
  EXPECT_EQ(Bytes(chunked), Bytes(reference));

  std::vector<std::uint64_t> hashes(s.size());
  PrehashColumnSoA(s.data(), s.size(), hashes.data());
  IndykWoodruffEstimator weighted(params, 43);
  IndykWoodruffEstimator weighted_ref(params, 43);
  weighted.UpdatePrehashed(PrehashedColumns{s.data(), hashes.data()},
                           s.size(), 8);
  for (item_t x : s) weighted_ref.Update(MakePrehashed(x), 8);
  EXPECT_EQ(Bytes(weighted), Bytes(weighted_ref));
}

TEST(CountSketchColumnTest, EstimatesAndStateMatchPerItem) {
  // The column fused add + estimate must return, per item, exactly what
  // per-item UpdateAndEstimate followed by EstimateF2 returns, and leave
  // byte-identical state at every cell width, spilling narrow cells
  // included.
  const Stream& s = TestStream();
  std::vector<std::uint64_t> hashes(s.size());
  PrehashColumnSoA(s.data(), s.size(), hashes.data());
  DispatchGuard guard;
  for (CellWidth cw : kCellWidths) {
    for (count_t weight : kWeights) {
      const auto count = static_cast<std::int64_t>(weight);
      ASSERT_TRUE(kernels::SetActive(simd::Isa::kScalar));
      CountSketch reference(7, 300, 29, cw);
      std::vector<double> want_est, want_f2;
      for (item_t x : s) {
        want_est.push_back(
            reference.UpdateAndEstimate(MakePrehashed(x), count));
        want_f2.push_back(reference.EstimateF2());
      }
      const std::vector<std::uint8_t> want = Bytes(reference);
      for (simd::Isa isa : kernels::AvailableIsas()) {
        ASSERT_TRUE(kernels::SetActive(isa));
        SCOPED_TRACE(testing::Message()
                     << "isa=" << simd::Name(isa)
                     << " cell_bits=" << CellBits(cw)
                     << " weight=" << weight);
        CountSketch sketch(7, 300, 29, cw);
        std::vector<double> est(s.size()), f2(s.size());
        sketch.UpdateAndEstimate(PrehashedColumns{s.data(), hashes.data()},
                                 s.size(), count, est.data(), f2.data());
        EXPECT_EQ(est, want_est);
        EXPECT_EQ(f2, want_f2);
        EXPECT_EQ(Bytes(sketch), want);
      }
    }
  }
}

}  // namespace
}  // namespace substream
