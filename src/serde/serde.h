#ifndef SUBSTREAM_SERDE_SERDE_H_
#define SUBSTREAM_SERDE_SERDE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/common.h"

/// \file serde.h
/// Compact, versioned binary wire format for mergeable summaries.
///
/// Every sketch in `src/sketch/` and every estimator in `src/core/`
/// (including `Monitor` itself) implements
///
///   void Serialize(serde::Writer& out) const;
///   static std::optional<S> Deserialize(serde::Reader& in);
///
/// as part of the mergeable-summary contract (sketch/sketch.h). The wire
/// format is what lets the merge property cross process and machine
/// boundaries: a router serializes its window summary, ships the bytes, and
/// a collector deserializes and Merge()s them as if the streams had been
/// concatenated locally.
///
/// ## Wire layout
///
/// Everything is little-endian. Each record is
///
///   u8 type tag | u8 format version | geometry/seed header | state
///
/// The header carries exactly the fields that Merge() preconditions check
/// (geometry, seeds, parameters), so an incompatible pairing is caught
/// loudly — either at decode time (wrong tag/version, malformed payload)
/// or at merge time (the existing SUBSTREAM_CHECK preconditions).
///
/// Primitive encodings:
///  - fixed `u32`/`u64`: little-endian, used for seeds, hash values and
///    PRNG state (full-entropy words that varints would inflate);
///  - `varint`: LEB128, at most 10 bytes, canonicity of the final byte
///    enforced on read — used for lengths, counts and counters, which are
///    overwhelmingly small in practice;
///  - `svarint`: zigzag + varint for signed counters;
///  - `f64`: IEEE-754 bit pattern as a fixed u64.
///
/// ## Decode safety
///
/// Deserialize never aborts and never exhibits UB on truncated or
/// corrupted input: the Reader carries a sticky failure flag, every
/// wire-supplied length is checked against the bytes actually remaining
/// (`Reader::CanHold`) *before* any allocation is sized from it, and every
/// geometry/parameter field is validated against the same ranges the
/// constructors enforce before any constructor runs. A failed decode
/// returns std::nullopt.

namespace substream {
namespace serde {

/// Format version of every record envelope. Bump when any encoding changes
/// — including *semantic* changes that keep the byte layout but alter how
/// decoded state is interpreted; decoders reject versions they do not know.
///
/// v1: polynomial bucket hashing, tabulation HLL hash, KMV values over
///     [0, 2^61 - 1).
/// v2: one-hash-per-item pipeline — buckets derive from the shared prehash
///     (RemixHash + FastRange64, CounterTable row seeds DeriveSeed(seed,
///     2r)), HLL uses the remixed prehash, KMV values span the full 64-bit
///     range. Byte layout is unchanged from v1, but counters placed by a
///     v1 writer are meaningless under v2 derivations (and vice versa), so
///     v1 records must be rejected loudly instead of decoded into silently
///     corrupt estimates and merges.
/// v3: compact counter cells — counter-table records carry a cell-width
///     byte, a reserved storage-flags byte (always 0; readers reject any
///     other value) and the lazily-allocated overflow-spill levels; core
///     estimator records carry their cell-width knob. Hash semantics are
///     unchanged from v2, so v2 records stay decodable: readers accept
///     both versions (Reader::record_version()) and interpret v2 records
///     as 64-bit-cell tables with no extra fields. v1 is still rejected.
/// v4: overload-graceful sampled ingest — Monitor records carry the raw
///     (post-admission) update count behind the weighted sampled_length,
///     so merged collections report an honest effective sample rate and
///     widened (eps, delta). Counter layouts and hash semantics are
///     unchanged; v2/v3 records stay decodable (raw_updates defaults to
///     sampled_length: every pre-v4 update carried weight 1).
inline constexpr std::uint8_t kFormatVersion = 4;

/// Oldest record version current readers still accept.
inline constexpr std::uint8_t kMinDecodableVersion = 2;

/// One tag per serializable summary type. Values are wire-stable: never
/// reorder or reuse, only append.
enum class TypeTag : std::uint8_t {
  kCountMinSketch = 1,
  kCountMinHeavyHitters = 2,
  kCountSketch = 3,
  kCountSketchHeavyHitters = 4,
  kAmsF2Sketch = 5,
  kHyperLogLog = 6,
  kKmvSketch = 7,
  // 8 is retired: older readers decode it as Misra–Gries. Never reuse it.
  kSpaceSaving = 9,
  kEntropyMleEstimator = 10,
  // 11 is retired: older readers decode it as the AMS entropy sketch.
  // Never reuse it.
  kIndykWoodruffEstimator = 12,
  kExactLevelSets = 13,
  kF0Estimator = 14,
  kFkEstimator = 15,
  kEntropyEstimator = 16,
  kF1HeavyHitterEstimator = 17,
  kF2HeavyHitterEstimator = 18,
  kMonitor = 19,
  kWindowedMonitor = 20,
};

/// Growable byte sink all Serialize() methods write into.
class Writer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Varint(std::uint64_t v);
  void Svarint(std::int64_t v);
  void Raw(const void* data, std::size_t n);

  /// Record envelope: type tag + format version.
  void Record(TypeTag tag) {
    U8(static_cast<std::uint8_t>(tag));
    U8(kFormatVersion);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounded byte source all Deserialize() methods read from. Reads past the
/// end (or malformed primitives) set a sticky failure flag and return zero
/// values; decoders check ok() before trusting anything derived from the
/// input.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : cursor_(data), end_(data + size) {}
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  void Fail() { ok_ = false; }
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - cursor_);
  }

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  double F64();
  /// Strict: any byte other than 0 or 1 fails the reader.
  bool Bool();
  std::uint64_t Varint();
  std::int64_t Svarint();
  bool Raw(void* out, std::size_t n);

  /// Consumes and checks the record envelope; fails on tag mismatch or a
  /// version outside [kMinDecodableVersion, kFormatVersion]. On success the
  /// record's version is available via record_version() until the next
  /// ExpectRecord, so decoders can skip fields older writers never emitted.
  bool ExpectRecord(TypeTag tag);

  /// Version byte of the record most recently accepted by ExpectRecord.
  std::uint8_t record_version() const { return record_version_; }

  /// True when `count` elements of at least `min_bytes_each` bytes each can
  /// still be present in the remaining input; fails the reader otherwise.
  /// MUST be called before sizing any allocation from a wire-supplied
  /// length, so corrupted lengths cannot trigger allocation bombs.
  bool CanHold(std::uint64_t count, std::size_t min_bytes_each);

 private:
  const std::uint8_t* cursor_;
  const std::uint8_t* end_;
  bool ok_ = true;
  std::uint8_t record_version_ = kFormatVersion;
};

// ---------------------------------------------------------------------------
// Composite helpers shared by the decoders.
// ---------------------------------------------------------------------------

/// varint count, then (varint item, varint count) pairs.
void WriteCountMap(Writer& out,
                   const std::unordered_map<item_t, count_t>& map);
bool ReadCountMap(Reader& in, std::unordered_map<item_t, count_t>* out);

/// varint count, then (varint item, f64 value) pairs.
void WriteDoubleMap(Writer& out,
                    const std::unordered_map<item_t, double>& map);
bool ReadDoubleMap(Reader& in, std::unordered_map<item_t, double>* out);

/// Parameter validators mirroring the constructor SUBSTREAM_CHECKs, usable
/// on untrusted wire values (reject NaN/inf instead of aborting).
bool ValidProbability(double p);        ///< finite, in (0, 1]
bool ValidOpenUnit(double v);           ///< finite, in (0, 1)
bool ValidPositive(double v);           ///< finite, > 0

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected); used by the
/// checkpoint file header to detect torn or corrupted files.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t n);

}  // namespace serde
}  // namespace substream

#endif  // SUBSTREAM_SERDE_SERDE_H_
