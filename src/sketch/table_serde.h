#ifndef SUBSTREAM_SKETCH_TABLE_SERDE_H_
#define SUBSTREAM_SKETCH_TABLE_SERDE_H_

#include <cstdint>
#include <type_traits>

#include "serde/serde.h"
#include "sketch/cell_width.h"
#include "sketch/counter_table.h"

/// \file table_serde.h
/// Shared wire encoding of CounterTable storage (v3 records).
///
/// A v3 counter-table record carries, after its sketch-specific header:
///
///   u8 cell_width | u8 flags | ...sketch fields... |
///   n base-level cells | varint upper_level_count |
///   per allocated overflow level (narrowest first): n cells
///
/// Cells are varints of the raw zero-extended bit pattern for unsigned
/// counters and svarints of the sign-extended value for signed counters —
/// for the default 64-bit base this is byte-identical to the historical
/// flat cell encoding, so v3 only appends fields. The flags byte is
/// reserved: writers emit 0 and readers reject anything else. v2 records
/// have none of these fields and decode as 64-bit-cell tables.
///
/// Serializing *physical* levels rather than logical sums keeps the
/// cross-dispatch byte-equality pin meaningful: spills happen in stream
/// order on every path, so equal streams yield equal level state.

namespace substream {
namespace table_serde {

/// Appends the cell-width byte and the reserved (zero) flags byte.
inline void WriteCellWidth(serde::Writer& out, CellWidth cell_width) {
  out.U8(static_cast<std::uint8_t>(cell_width));
  out.U8(0);
}

/// Decodes the cell-width + flags bytes into `cell_width`; false on an
/// unknown width or a nonzero flags byte. Call only on v3 records.
inline bool ReadCellWidth(serde::Reader& in, CellWidth* cell_width) {
  const std::uint8_t cw = in.U8();
  const std::uint8_t flags = in.U8();
  if (!in.ok() || cw > static_cast<std::uint8_t>(CellWidth::k64) ||
      flags != 0) {
    in.Fail();
    return false;
  }
  *cell_width = static_cast<CellWidth>(cw);
  return true;
}

namespace internal {

/// True when the wire value is representable in a `w` cell of `table`'s
/// signedness; rejects patterns SetLevelCell would otherwise truncate.
template <typename CounterT>
bool CellValueInRange(std::uint64_t pattern, std::int64_t value,
                      CellWidth w) {
  if (w == CellWidth::k64) return true;
  const int b = CellBits(w);
  if constexpr (std::is_signed_v<CounterT>) {
    const std::int64_t maxv = (std::int64_t{1} << (b - 1)) - 1;
    return value >= -maxv - 1 && value <= maxv;
  } else {
    return pattern <= (std::uint64_t{1} << b) - 1;
  }
}

template <typename CounterT>
void WriteLevel(serde::Writer& out, const CounterTable<CounterT>& table,
                CellWidth w) {
  const std::size_t n = table.NumCells();
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (std::is_signed_v<CounterT>) {
      out.Svarint(table.LevelCellS(w, i));
    } else {
      out.Varint(table.LevelCellU(w, i));
    }
  }
}

template <typename CounterT>
bool ReadLevel(serde::Reader& in, CounterTable<CounterT>* table,
               CellWidth w) {
  const std::size_t n = table->NumCells();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t pattern;
    std::int64_t value = 0;
    if constexpr (std::is_signed_v<CounterT>) {
      value = in.Svarint();
      pattern = static_cast<std::uint64_t>(value);
    } else {
      pattern = in.Varint();
    }
    if (!CellValueInRange<CounterT>(pattern, value, w)) {
      in.Fail();
      return false;
    }
    table->SetLevelCell(w, i, pattern);
  }
  return in.ok();
}

}  // namespace internal

/// Appends the base level, the overflow-level count, and every allocated
/// overflow level.
template <typename CounterT>
void WriteLevels(serde::Writer& out, const CounterTable<CounterT>& table) {
  const CellWidth base = table.cell_width();
  internal::WriteLevel(out, table, base);
  const int upper = table.UpperLevelCount();
  out.Varint(static_cast<std::uint64_t>(upper));
  for (int j = 1; j <= upper; ++j) {
    internal::WriteLevel(out, table,
                         static_cast<CellWidth>(static_cast<int>(base) + j));
  }
}

/// Reads levels into a freshly-constructed `table` whose geometry and
/// cell width already match the record header. v2 records (no level framing)
/// are a bare 64-bit base level: pass `v2 = true`.
template <typename CounterT>
bool ReadLevels(serde::Reader& in, CounterTable<CounterT>* table, bool v2) {
  const CellWidth base = table->cell_width();
  if (!internal::ReadLevel(in, table, base)) return false;
  if (v2) return in.ok();
  const std::uint64_t upper = in.Varint();
  const std::uint64_t max_upper = static_cast<std::uint64_t>(
      static_cast<int>(CellWidth::k64) - static_cast<int>(base));
  if (!in.ok() || upper > max_upper) {
    in.Fail();
    return false;
  }
  for (std::uint64_t j = 1; j <= upper; ++j) {
    if (!in.CanHold(table->NumCells(), 1)) return false;
    const CellWidth w = static_cast<CellWidth>(
        static_cast<int>(base) + static_cast<int>(j));
    table->EnsureLevelAllocated(w);
    if (!internal::ReadLevel(in, table, w)) return false;
  }
  return in.ok();
}

}  // namespace table_serde
}  // namespace substream

#endif  // SUBSTREAM_SKETCH_TABLE_SERDE_H_
