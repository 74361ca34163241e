/// Decoder robustness: Deserialize of truncated or corrupted buffers must
/// return std::nullopt — never crash, abort, or exhibit UB. Every decoder
/// is fed (a) every strict prefix of a valid encoding, (b) hundreds of
/// randomly byte-flipped copies, and (c) empty/garbage buffers. The ASan+
/// UBSan CI job runs this file with sanitizers enabled, so an out-of-bounds
/// read or a corrupted-length allocation fails the build.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/entropy_estimator.h"
#include "core/f0_estimator.h"
#include "core/fk_estimator.h"
#include "core/heavy_hitters.h"
#include "core/monitor.h"
#include "serde/serde.h"
#include "sketch/ams_f2.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "sketch/entropy_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"
#include "sketch/level_sets.h"
#include "sketch/space_saving.h"
#include "stream/generators.h"
#include "util/random.h"

namespace substream {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Decoder under test: returns true when the buffer decoded successfully.
using Decoder = std::function<bool(const Bytes&)>;

template <typename S>
Decoder MakeDecoder() {
  return [](const Bytes& bytes) {
    serde::Reader reader(bytes);
    return S::Deserialize(reader).has_value();
  };
}

template <typename S>
Bytes Encode(const S& summary) {
  serde::Writer writer;
  summary.Serialize(writer);
  return writer.Take();
}

/// (a) Strict prefixes must fail cleanly: varint continuation bits,
/// fixed-width remaining-byte checks and element-count checks make a
/// truncated record undecodable, not silently short.
///
/// Exhaustive for small encodings. For multi-megabyte records (wide
/// CountSketch tables) every attempt past the header still sizes the full
/// geometry before detecting truncation, so decoding all n prefixes is
/// O(n^2) wall-clock for no extra coverage — the truncation check is the
/// same remaining-bytes comparison at every payload offset. Instead: every
/// length through the header and early state, a strided sample across the
/// payload, and every length in the final bytes (where the last field and
/// the end-of-record boundary live).
void ExpectPrefixesRejected(const Decoder& decode, const Bytes& valid) {
  constexpr std::size_t kExhaustive = 1024;
  constexpr std::size_t kSampled = 192;
  constexpr std::size_t kTail = 64;
  const std::size_t n = valid.size();
  std::vector<std::size_t> lengths;
  if (n <= kExhaustive + kSampled + kTail) {
    for (std::size_t len = 0; len < n; ++len) lengths.push_back(len);
  } else {
    for (std::size_t len = 0; len < kExhaustive; ++len) lengths.push_back(len);
    const std::size_t span = n - kExhaustive - kTail;
    for (std::size_t i = 0; i < kSampled; ++i) {
      lengths.push_back(kExhaustive + span * i / kSampled);
    }
    for (std::size_t len = n - kTail; len < n; ++len) lengths.push_back(len);
  }
  for (std::size_t len : lengths) {
    Bytes prefix(valid.begin(), valid.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode(prefix)) << "prefix of length " << len << " of "
                                 << valid.size() << " decoded";
  }
}

/// (b) Random byte flips must never crash. Flipped payload bytes may still
/// decode (counter values are not checksummed at this layer — the
/// checkpoint container adds the CRC); header or length flips must be
/// caught by validation. Either way: no abort, no UB.
void FuzzByteFlips(const Decoder& decode, const Bytes& valid,
                   std::uint64_t seed, int iterations = 300) {
  Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    Bytes corrupt = valid;
    const std::size_t flips = 1 + rng.NextBounded(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.NextBounded(corrupt.size());
      corrupt[pos] ^= static_cast<std::uint8_t>(1 + rng.NextBounded(255));
    }
    (void)decode(corrupt);  // must not crash; result is irrelevant
  }
  // (c) Degenerate buffers.
  EXPECT_FALSE(decode(Bytes{}));
  EXPECT_FALSE(decode(Bytes{0xff}));
  EXPECT_FALSE(decode(Bytes(64, 0xff)));
  EXPECT_FALSE(decode(Bytes(64, 0x00)));
}

void RunAll(const Decoder& decode, const Bytes& valid, std::uint64_t seed) {
  ASSERT_FALSE(valid.empty());
  ExpectPrefixesRejected(decode, valid);
  FuzzByteFlips(decode, valid, seed);
}

Stream SmallStream() {
  ZipfGenerator generator(512, 1.2, 404);
  return Materialize(generator, 4000);
}

template <typename S>
void FeedAll(S& summary) {
  for (item_t a : SmallStream()) summary.Update(a);
}

TEST(SerdeCorruptTest, CountMinSketch) {
  CountMinSketch sketch(4, 64, 3);
  FeedAll(sketch);
  RunAll(MakeDecoder<CountMinSketch>(), Encode(sketch), 1);
}

TEST(SerdeCorruptTest, CountMinHeavyHitters) {
  CountMinHeavyHitters tracker(0.05, 0.25, 0.1, 3);
  FeedAll(tracker);
  RunAll(MakeDecoder<CountMinHeavyHitters>(), Encode(tracker), 2);
}

TEST(SerdeCorruptTest, CountSketch) {
  CountSketch sketch(3, 64, 5);
  FeedAll(sketch);
  RunAll(MakeDecoder<CountSketch>(), Encode(sketch), 3);
}

TEST(SerdeCorruptTest, CountSketchHeavyHitters) {
  CountSketchHeavyHitters tracker(0.1, 0.25, 0.1, 5);
  FeedAll(tracker);
  RunAll(MakeDecoder<CountSketchHeavyHitters>(), Encode(tracker), 4);
}

TEST(SerdeCorruptTest, AmsF2Sketch) {
  AmsF2Sketch sketch = AmsF2Sketch::WithGeometry(5, 16, 7);
  FeedAll(sketch);
  RunAll(MakeDecoder<AmsF2Sketch>(), Encode(sketch), 5);
}

TEST(SerdeCorruptTest, HyperLogLog) {
  HyperLogLog sketch(8, 9);
  FeedAll(sketch);
  RunAll(MakeDecoder<HyperLogLog>(), Encode(sketch), 6);
}

TEST(SerdeCorruptTest, KmvSketch) {
  KmvSketch sketch(64, 11);
  FeedAll(sketch);
  RunAll(MakeDecoder<KmvSketch>(), Encode(sketch), 7);
}

TEST(SerdeCorruptTest, SpaceSaving) {
  SpaceSaving summary(32);
  FeedAll(summary);
  RunAll(MakeDecoder<SpaceSaving>(), Encode(summary), 9);
}

TEST(SerdeCorruptTest, EntropyMleEstimator) {
  EntropyMleEstimator estimator;
  FeedAll(estimator);
  RunAll(MakeDecoder<EntropyMleEstimator>(), Encode(estimator), 10);
}

TEST(SerdeCorruptTest, IndykWoodruffEstimator) {
  LevelSetParams params;
  params.cs_width = 32;
  params.cs_depth = 3;
  params.max_depth = 6;
  IndykWoodruffEstimator estimator(params, 15);
  FeedAll(estimator);
  RunAll(MakeDecoder<IndykWoodruffEstimator>(), Encode(estimator), 12);
}

TEST(SerdeCorruptTest, ExactLevelSets) {
  ExactLevelSets levels(0.25, 0.5);
  FeedAll(levels);
  RunAll(MakeDecoder<ExactLevelSets>(), Encode(levels), 13);
}

// Exact count maps hold counts >= 1 whose sum is the recorded total (the
// encoder never writes anything else, and merges rely on both). A record
// that breaks either must not decode.
TEST(SerdeCorruptTest, EntropyMleCountsMustSumToTotal) {
  EntropyMleEstimator estimator;
  estimator.Update(7, 5);
  Bytes bytes = Encode(estimator);
  // tag, version, total 5, one entry: item 7, count 5.
  ASSERT_EQ(bytes.size(), 6u);
  ASSERT_EQ(bytes[2], 5);
  ASSERT_EQ(bytes[5], 5);
  EXPECT_TRUE(MakeDecoder<EntropyMleEstimator>()(bytes));
  bytes[2] = 1;  // total 1 disagrees with the count of 5
  EXPECT_FALSE(MakeDecoder<EntropyMleEstimator>()(bytes));
  bytes[2] = 0;
  bytes[5] = 0;  // total 0 matches, but a zero count is not an entry
  EXPECT_FALSE(MakeDecoder<EntropyMleEstimator>()(bytes));
}

TEST(SerdeCorruptTest, ExactLevelSetCountsMustSumToTotal) {
  ExactLevelSets levels(0.25, 0.5);
  levels.Update(7, 5);
  Bytes bytes = Encode(levels);
  // tag, version, eps', eta (two f64), total 5, one entry: item 7, count 5.
  ASSERT_EQ(bytes.size(), 22u);
  ASSERT_EQ(bytes[18], 5);
  ASSERT_EQ(bytes[21], 5);
  EXPECT_TRUE(MakeDecoder<ExactLevelSets>()(bytes));
  bytes[18] = 1;
  EXPECT_FALSE(MakeDecoder<ExactLevelSets>()(bytes));
  bytes[18] = 0;
  bytes[21] = 0;
  EXPECT_FALSE(MakeDecoder<ExactLevelSets>()(bytes));
}

TEST(SerdeCorruptTest, LevelSetExactSlotRejectsZeroCounts) {
  LevelSetParams params;
  params.cs_width = 8;
  params.cs_depth = 1;
  params.max_depth = 0;
  IndykWoodruffEstimator estimator(params, 15);
  estimator.Update(7);
  Bytes bytes = Encode(estimator);
  // The record ends with the one slot's exact map {7: 1}, then its valid
  // flag.
  ASSERT_GE(bytes.size(), 4u);
  const std::size_t n = bytes.size();
  ASSERT_EQ(Bytes(bytes.begin() + static_cast<std::ptrdiff_t>(n - 4),
                  bytes.end()),
            (Bytes{1, 7, 1, 1}));
  EXPECT_TRUE(MakeDecoder<IndykWoodruffEstimator>()(bytes));
  bytes[n - 2] = 0;
  EXPECT_FALSE(MakeDecoder<IndykWoodruffEstimator>()(bytes));
}

// A full candidate pool evicts its weakest entry; with capacity 0 it is
// full and empty at once, so the decoders reject that capacity (the
// constructors never produce it).
TEST(SerdeCorruptTest, ZeroCandidateCapacityIsRejected) {
  // tag, version, f64 phi, then the capacity as a one-byte varint (phi 0.5
  // gives 8/phi + 16 = 32 and 8/phi^2 + 16 = 48).
  Bytes cm = Encode(CountMinHeavyHitters(0.5, 0.2, 0.1, 3));
  Bytes cs = Encode(CountSketchHeavyHitters(0.5, 0.2, 0.1, 3));
  ASSERT_EQ(cm[10], 32);
  ASSERT_EQ(cs[10], 48);
  cm[10] = 0;
  cs[10] = 0;
  EXPECT_FALSE(MakeDecoder<CountMinHeavyHitters>()(cm));
  EXPECT_FALSE(MakeDecoder<CountSketchHeavyHitters>()(cs));
}

// The counter-table flags byte after the cell-width byte is reserved: the
// writers emit 0 and the decoders reject every other value.
TEST(SerdeCorruptTest, NonzeroStorageFlagsAreRejected) {
  CountMinSketch cm_sketch(2, 8, 5, CellWidth::k8);
  for (int i = 0; i < 300; ++i) cm_sketch.Update(1);
  CountSketch cs_sketch(3, 64, 5);
  FeedAll(cs_sketch);
  Bytes cm = Encode(cm_sketch);
  Bytes cs = Encode(cs_sketch);
  // CountMin: tag, version, depth, width, retired conservative flag, u64
  // seed, then cell width (k8 = 0) and flags. CountSketch has no
  // conservative flag and a 64-bit base (k64 = 3).
  constexpr std::size_t kCmFlags = 14;
  constexpr std::size_t kCsFlags = 13;
  ASSERT_EQ(cm[kCmFlags - 1], 0);
  ASSERT_EQ(cm[kCmFlags], 0);
  ASSERT_EQ(cs[kCsFlags - 1], 3);
  ASSERT_EQ(cs[kCsFlags], 0);
  EXPECT_TRUE(MakeDecoder<CountMinSketch>()(cm));
  EXPECT_TRUE(MakeDecoder<CountSketch>()(cs));
  for (std::uint8_t flags : {1, 2, 3, 4}) {
    SCOPED_TRACE(static_cast<int>(flags));
    cm[kCmFlags] = flags;
    cs[kCsFlags] = flags;
    EXPECT_FALSE(MakeDecoder<CountMinSketch>()(cm));
    EXPECT_FALSE(MakeDecoder<CountSketch>()(cs));
  }
}

// Retired fields keep their place in the record but carry one value each:
// the EntropyEstimator's backend byte (0, the plug-in map) and its two AMS
// accuracy targets (0.2 and 0.05), and CountMin's conservative-update flag
// (0). A record holding anything else there came from a retired mode and
// must not decode.
TEST(SerdeCorruptTest, EntropyEstimatorRetiredFieldsAreRejected) {
  EntropyParams params;
  params.p = 0.5;
  EntropyEstimator estimator(params);
  FeedAll(estimator);
  const Bytes valid = Encode(estimator);
  // tag, version, f64 p, f64 n_hint, then the backend byte and the two
  // retired f64s.
  constexpr std::size_t kBackend = 18;
  constexpr std::size_t kEpsilon = kBackend + 1;
  constexpr std::size_t kDelta = kEpsilon + 8;
  ASSERT_EQ(valid[kBackend], 0);
  {
    serde::Reader reader(valid.data() + kEpsilon, 16);
    ASSERT_EQ(reader.F64(), 0.2);
    ASSERT_EQ(reader.F64(), 0.05);
  }
  EXPECT_TRUE(MakeDecoder<EntropyEstimator>()(valid));
  for (std::uint8_t backend : {1, 2}) {
    SCOPED_TRACE(static_cast<int>(backend));
    Bytes bytes = valid;
    bytes[kBackend] = backend;
    EXPECT_FALSE(MakeDecoder<EntropyEstimator>()(bytes));
  }
  for (std::size_t offset : {kEpsilon, kDelta}) {
    SCOPED_TRACE(offset);
    Bytes bytes = valid;
    bytes[offset] ^= 1;
    EXPECT_FALSE(MakeDecoder<EntropyEstimator>()(bytes));
  }
}

TEST(SerdeCorruptTest, CountMinConservativeFlagIsRejected) {
  CountMinSketch sketch(2, 8, 5);
  FeedAll(sketch);
  Bytes bytes = Encode(sketch);
  // tag, version, depth, width, then the conservative flag.
  constexpr std::size_t kConservative = 4;
  ASSERT_EQ(bytes[kConservative], 0);
  EXPECT_TRUE(MakeDecoder<CountMinSketch>()(bytes));
  bytes[kConservative] = 1;
  EXPECT_FALSE(MakeDecoder<CountMinSketch>()(bytes));
}

TEST(SerdeCorruptTest, F0Estimator) {
  for (F0Backend backend :
       {F0Backend::kKmv, F0Backend::kHyperLogLog, F0Backend::kExact}) {
    SCOPED_TRACE(static_cast<int>(backend));
    F0Params params;
    params.p = 0.5;
    params.backend = backend;
    params.kmv_k = 32;
    params.hll_precision = 8;
    F0Estimator estimator(params, 17);
    FeedAll(estimator);
    RunAll(MakeDecoder<F0Estimator>(), Encode(estimator),
           20 + static_cast<std::uint64_t>(backend));
  }
}

TEST(SerdeCorruptTest, FkEstimator) {
  FkParams params;
  params.k = 2;
  params.p = 0.5;
  params.universe = 512;
  params.max_width = 32;
  FkEstimator estimator(params, 19);
  FeedAll(estimator);
  RunAll(MakeDecoder<FkEstimator>(), Encode(estimator), 14);
}

TEST(SerdeCorruptTest, EntropyEstimator) {
  EntropyParams params;
  params.p = 0.5;
  EntropyEstimator estimator(params);
  FeedAll(estimator);
  RunAll(MakeDecoder<EntropyEstimator>(), Encode(estimator), 15);
}

TEST(SerdeCorruptTest, F1HeavyHitterEstimator) {
  HeavyHitterParams params;
  params.alpha = 0.05;
  params.p = 0.5;
  F1HeavyHitterEstimator estimator(params, 23);
  FeedAll(estimator);
  RunAll(MakeDecoder<F1HeavyHitterEstimator>(), Encode(estimator), 16);
}

TEST(SerdeCorruptTest, F2HeavyHitterEstimator) {
  // Loose accuracy knobs: corrupt-handling is geometry-independent, and
  // tight ones make the nested CountSketch table megabytes wide (the
  // roundtrip test keeps production-sized geometry).
  HeavyHitterParams params;
  params.alpha = 0.2;
  params.epsilon = 0.4;
  params.delta = 0.25;
  params.p = 0.5;
  F2HeavyHitterEstimator estimator(params, 25);
  FeedAll(estimator);
  RunAll(MakeDecoder<F2HeavyHitterEstimator>(), Encode(estimator), 17);
}

TEST(SerdeCorruptTest, Monitor) {
  MonitorConfig config;
  config.p = 0.5;
  config.universe = 512;
  config.hh_alpha = 0.2;  // loose: see F2HeavyHitterEstimator above
  config.max_f2_width = 64;
  Monitor monitor(config, 27);
  FeedAll(monitor);
  RunAll(MakeDecoder<Monitor>(), Encode(monitor), 18);
}

TEST(SerdeCorruptTest, MonitorWithRetiredFkF2RecordIsRejected) {
  // A Monitor's nested F2 record used to be an FkEstimator (level sets);
  // it is now a CountSketch. The nested type tag tells the two layouts
  // apart, so a record carrying the retired one decodes to nullopt.
  MonitorConfig config;
  config.p = 0.5;
  config.enable_f0 = false;
  config.enable_entropy = false;
  config.enable_heavy_hitters = false;
  Monitor monitor(config, 27);
  FeedAll(monitor);
  const Bytes live = Encode(monitor);

  // The monitor header, field by field as Monitor::Serialize writes it.
  const MonitorConfig& c = monitor.config();
  const MonitorReport report = monitor.Report();
  serde::Writer header;
  header.Record(serde::TypeTag::kMonitor);
  header.F64(c.p);
  header.Varint(c.universe);
  header.F64(c.n_hint);
  header.Bool(c.enable_f0);
  header.Bool(c.enable_f2);
  header.Bool(c.enable_entropy);
  header.Bool(c.enable_heavy_hitters);
  header.F64(c.hh_alpha);
  header.F64(c.hh_epsilon);
  header.F64(c.epsilon);
  header.F64(c.delta);
  header.Varint(c.max_f2_width);
  header.U8(static_cast<std::uint8_t>(c.cell_width));
  header.U64(monitor.seed());
  header.Varint(report.sampled_length);
  header.Varint(report.raw_updates);
  Bytes retired = header.Take();
  ASSERT_LT(retired.size(), live.size());
  ASSERT_TRUE(std::equal(retired.begin(), retired.end(), live.begin()))
      << "the hand-written header no longer matches Monitor::Serialize";
  EXPECT_EQ(live[retired.size()],
            static_cast<std::uint8_t>(serde::TypeTag::kCountSketch));

  FkParams params;
  params.k = 2;
  params.p = c.p;
  params.epsilon = c.epsilon;
  params.delta = c.delta;
  params.universe = c.universe;
  params.max_width = c.max_f2_width;
  FkEstimator level_sets(params, monitor.seed());
  FeedAll(level_sets);
  const Bytes nested = Encode(level_sets);
  retired.insert(retired.end(), nested.begin(), nested.end());
  EXPECT_FALSE(MakeDecoder<Monitor>()(retired));
  EXPECT_TRUE(MakeDecoder<Monitor>()(live));
}

TEST(SerdeCorruptTest, WrongTypeTagIsRejected) {
  // A valid CountMin record must not decode as any other type.
  CountMinSketch sketch(3, 32, 1);
  FeedAll(sketch);
  const Bytes bytes = Encode(sketch);
  EXPECT_FALSE(MakeDecoder<CountSketch>()(bytes));
  EXPECT_FALSE(MakeDecoder<HyperLogLog>()(bytes));
  EXPECT_FALSE(MakeDecoder<Monitor>()(bytes));
}

TEST(SerdeCorruptTest, UnknownFormatVersionIsRejected) {
  CountMinSketch sketch(3, 32, 1);
  FeedAll(sketch);
  Bytes bytes = Encode(sketch);
  bytes[1] = serde::kFormatVersion + 1;  // byte 1 is the version
  EXPECT_FALSE(MakeDecoder<CountMinSketch>()(bytes));
}

TEST(SerdeCorruptTest, NonCanonicalVarintsAreRejected) {
  // Each value has exactly one encoding: zero-padded LEB128 like 0x80 0x00
  // (a long-winded 0) must fail, so framing and byte-equality logic can
  // rely on canonical bytes.
  {
    const Bytes padded_zero{0x80, 0x00};
    serde::Reader reader(padded_zero);
    (void)reader.Varint();
    EXPECT_FALSE(reader.ok());
  }
  {
    const Bytes padded_small{0xfa, 0x80, 0x00};
    serde::Reader reader(padded_small);
    (void)reader.Varint();
    EXPECT_FALSE(reader.ok());
  }
  {  // A plain zero is canonical.
    const Bytes zero{0x00};
    serde::Reader reader(zero);
    EXPECT_EQ(reader.Varint(), 0u);
    EXPECT_TRUE(reader.ok());
  }
  {  // All 64 bits set: ten bytes, final byte 0x01, still canonical.
    Bytes encoded(10, 0xff);
    encoded[9] = 0x01;
    serde::Reader reader(encoded);
    EXPECT_EQ(reader.Varint(), ~0ull);
    EXPECT_TRUE(reader.ok());
  }
}

TEST(SerdeCorruptTest, HugeClaimedLengthsAreBounded) {
  // A record whose length fields claim astronomically more elements than
  // the buffer holds must be rejected before any allocation is sized.
  serde::Writer writer;
  writer.Record(serde::TypeTag::kCountMinSketch);
  writer.Varint(64);                  // depth
  writer.Varint(1ULL << 47);          // width: huge but under the cap
  writer.Bool(false);
  writer.U64(1);                      // seed
  writer.Varint(0);                   // total
  serde::Reader reader(writer.bytes());
  EXPECT_FALSE(CountMinSketch::Deserialize(reader).has_value());
  EXPECT_FALSE(reader.ok());
}

}  // namespace
}  // namespace substream
