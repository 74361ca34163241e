/// Golden-bytes wire-compatibility tests for the counter-table wire format.
///
/// Format v3 added compact cells: every counter-table record carries a
/// cell-width byte and a reserved flags byte (always 0) after the seed,
/// and a varint count of overflow-spill levels after the base cells. v2
/// records (fixed 64-bit cells, no cell-width header) still decode —
/// kMinDecodableVersion is 2 — and map onto the 64-bit-cell
/// configuration, so pre-upgrade checkpoints keep restoring.
/// v1 records (pre-refactor polynomial bucket placement) stay rejected:
/// their counter placement is meaningless under the prehash-remix
/// derivations. Format v4 added the Monitor-level raw_updates field for
/// sampled ingest; counter-table layouts are unchanged, so these goldens
/// differ from their v3 ancestors only in the version byte. The tests pin
/// the exact v4 encoding of small fixed-seed sketches, plus one v2 byte
/// string decoded for backward compatibility,
/// so an accidental re-ordering, header change or silent format-version
/// drift fail loudly instead of corrupting cross-version Collector merges.
///
/// If a change is intentional (layout OR hash semantics), bump
/// serde::kFormatVersion and regenerate the constants below.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serde/serde.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"

namespace substream {
namespace {

/// CountMin(2, 8, 5) with u8 cells after 300x item 1 and 1x item 2:
/// header carries cell_width=k8/flags=0, the saturated base cells read 0,
/// and one u16 overflow level holds the spilled 300s.
constexpr const char* kCompactSpillGolden =
    "010402080005000000000000000000ad02000000002c00000100000000002c0001"
    "01000000008002000000000000000080020000";

std::vector<std::uint8_t> HexToBytes(const std::string& hex) {
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  auto nibble = [](char c) -> std::uint8_t {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

template <typename S>
std::string HexRecord(const S& summary) {
  serde::Writer writer;
  summary.Serialize(writer);
  std::string hex;
  hex.reserve(2 * writer.size());
  for (std::uint8_t b : writer.bytes()) {
    static const char* kDigits = "0123456789abcdef";
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

TEST(WireFormatTest, CountMinGoldenBytes) {
  CountMinSketch cm(2, 8, 5);
  for (item_t x : {1ULL, 2ULL, 3ULL, 1ULL, 2ULL, 1ULL}) cm.Update(x);
  EXPECT_EQ(HexRecord(cm),
            "010402080005000000000000000300060000000103000002000000000004"
            "000200");
}

TEST(WireFormatTest, CountSketchGoldenBytes) {
  CountSketch cs(3, 8, 6);
  for (item_t x : {10ULL, 11ULL, 12ULL, 10ULL, 11ULL, 10ULL}) cs.Update(x);
  EXPECT_EQ(HexRecord(cs),
            "03040308060000000000000003000c0000000000002c4000000000000020"
            "400000000000002c400300000000050001030000000400000000000204000000"
            "0500");
}

TEST(WireFormatTest, KmvGoldenBytes) {
  KmvSketch kmv(4, 7);
  for (item_t x : {100ULL, 101ULL, 102ULL, 103ULL, 104ULL, 100ULL}) {
    kmv.Update(x);
  }
  EXPECT_EQ(HexRecord(kmv),
            "0704040700000000000000047be0612813a19c49a7d49f31a9fc3261931de209"
            "dc1e08aa9a47619abc2259c2");
}

TEST(WireFormatTest, HyperLogLogGoldenBytes) {
  HyperLogLog hll(4, 8);
  for (item_t x : {200ULL, 201ULL, 202ULL}) hll.Update(x);
  EXPECT_EQ(HexRecord(hll),
            "060404080000000000000000000000010000000000000500000000");
}

TEST(WireFormatTest, TypeTagValuesArePinned) {
  // Every record starts with its tag byte, and the golden cases above pin
  // only a few tags. Pin them all, so deleting or inserting an enumerator
  // can never shift a tag. 8 and 11 are retired and must stay unused.
  auto tag = [](serde::TypeTag t) { return static_cast<int>(t); };
  EXPECT_EQ(tag(serde::TypeTag::kCountMinSketch), 1);
  EXPECT_EQ(tag(serde::TypeTag::kCountMinHeavyHitters), 2);
  EXPECT_EQ(tag(serde::TypeTag::kCountSketch), 3);
  EXPECT_EQ(tag(serde::TypeTag::kCountSketchHeavyHitters), 4);
  EXPECT_EQ(tag(serde::TypeTag::kAmsF2Sketch), 5);
  EXPECT_EQ(tag(serde::TypeTag::kHyperLogLog), 6);
  EXPECT_EQ(tag(serde::TypeTag::kKmvSketch), 7);
  EXPECT_EQ(tag(serde::TypeTag::kSpaceSaving), 9);
  EXPECT_EQ(tag(serde::TypeTag::kEntropyMleEstimator), 10);
  EXPECT_EQ(tag(serde::TypeTag::kIndykWoodruffEstimator), 12);
  EXPECT_EQ(tag(serde::TypeTag::kExactLevelSets), 13);
  EXPECT_EQ(tag(serde::TypeTag::kF0Estimator), 14);
  EXPECT_EQ(tag(serde::TypeTag::kFkEstimator), 15);
  EXPECT_EQ(tag(serde::TypeTag::kEntropyEstimator), 16);
  EXPECT_EQ(tag(serde::TypeTag::kF1HeavyHitterEstimator), 17);
  EXPECT_EQ(tag(serde::TypeTag::kF2HeavyHitterEstimator), 18);
  EXPECT_EQ(tag(serde::TypeTag::kMonitor), 19);
  EXPECT_EQ(tag(serde::TypeTag::kWindowedMonitor), 20);
}

TEST(WireFormatTest, CompactCellSpillGoldenBytes) {
  // A u8-cell CountMin whose hot item crosses the 8-bit saturation point:
  // the record must carry cell_width=k8, a non-zero upper-level count, and
  // the spilled 16-bit level — pinned byte-for-byte so the level-chain
  // framing cannot drift silently.
  CountMinSketch cm(2, 8, 5, CellWidth::k8);
  for (int i = 0; i < 300; ++i) cm.Update(1);
  cm.Update(2);
  EXPECT_EQ(HexRecord(cm), kCompactSpillGolden);
  // And the pinned bytes decode to the live state.
  serde::Writer writer;
  cm.Serialize(writer);
  serde::Reader reader(writer.bytes());
  auto decoded = CountMinSketch::Deserialize(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->Estimate(1), 300u);
  EXPECT_EQ(HexRecord(*decoded), HexRecord(cm));
}

TEST(WireFormatTest, V2RecordDecodesAsWide64) {
  // The exact v2 golden bytes this suite pinned before the compact-cell
  // format change (CountMin(2, 8, 5) fed {1,2,3,1,2,1}). A v3
  // decoder must keep accepting them — kMinDecodableVersion == 2 — and
  // materialize the historical layout: 64-bit cells, no overflow levels.
  const auto bytes = HexToBytes(
      "010202080005000000000000000600000001030000020000000000040002");
  serde::Reader reader(bytes);
  auto decoded = CountMinSketch::Deserialize(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->cell_width(), CellWidth::k64);
  // Estimates agree with a live sketch fed the same stream.
  CountMinSketch live(2, 8, 5);
  for (item_t x : {1ULL, 2ULL, 3ULL, 1ULL, 2ULL, 1ULL}) live.Update(x);
  for (item_t x = 0; x < 8; ++x) {
    EXPECT_EQ(decoded->Estimate(x), live.Estimate(x));
  }
  // Re-serializing writes the current (v3) format.
  serde::Writer writer;
  decoded->Serialize(writer);
  EXPECT_EQ(writer.bytes()[1], serde::kFormatVersion);
}

TEST(WireFormatTest, PreRefactorVersionIsRejected) {
  // A v1 record (pre-refactor polynomial bucket placement) must fail to
  // decode: its counters are meaningless under the v2 prehash derivations,
  // and a silent decode would corrupt Collector merges and restored
  // checkpoints.
  CountMinSketch cm(2, 8, 5);
  for (item_t x : {1ULL, 2ULL, 3ULL}) cm.Update(x);
  serde::Writer writer;
  cm.Serialize(writer);
  std::vector<std::uint8_t> bytes = writer.Take();
  ASSERT_EQ(bytes[1], serde::kFormatVersion);
  bytes[1] = 1;  // rewrite the envelope to the pre-refactor version
  serde::Reader reader(bytes);
  EXPECT_FALSE(CountMinSketch::Deserialize(reader).has_value());
}

TEST(WireFormatTest, DecodedGoldenRecordMatchesLive) {
  // Round-trip through the golden path: decode must reproduce the live
  // sketch bit-for-bit (re-serialization is byte-identical) and agree on
  // estimates.
  CountMinSketch cm(2, 8, 5);
  for (item_t x : {1ULL, 2ULL, 3ULL, 1ULL, 2ULL, 1ULL}) cm.Update(x);
  serde::Writer writer;
  cm.Serialize(writer);
  serde::Reader reader(writer.bytes());
  auto decoded = CountMinSketch::Deserialize(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(HexRecord(*decoded), HexRecord(cm));
  for (item_t x = 0; x < 8; ++x) {
    EXPECT_EQ(decoded->Estimate(x), cm.Estimate(x));
  }
}

}  // namespace
}  // namespace substream
