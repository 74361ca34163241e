#ifndef SUBSTREAM_SKETCH_CELL_WIDTH_H_
#define SUBSTREAM_SKETCH_CELL_WIDTH_H_

#include <cstdint>

/// \file cell_width.h
/// The one storage knob of the shared CounterTable (counter_table.h): its
/// physical cell width. It lives in its own include-light header so
/// core-layer configuration structs (MonitorConfig, FkParams,
/// LevelSetParams, HeavyHitterParams) can carry a cell-width choice
/// without pulling in the sketch layer.
///
/// Most sketch deployments never need 64-bit headroom per counter: a
/// 32-bit (or narrower) cell quadruples (or more) the number of counters
/// per cache line and per vector register. The CounterTable keeps the
/// 64-bit *logical* interface regardless of the physical width; a narrow
/// cell that would overflow spills into a lazily-allocated next-wider
/// overflow level, so estimates stay bit-identical to the 64-bit
/// reference.

namespace substream {

/// Physical bits per counter cell of a CounterTable's base level.
/// Values are wire-stable (serialized as a u8): never reorder.
enum class CellWidth : std::uint8_t {
  k8 = 0,
  k16 = 1,
  k32 = 2,
  k64 = 3,
};

/// Bits of a cell at `width`.
inline constexpr int CellBits(CellWidth width) {
  return 8 << static_cast<int>(width);
}

/// Bytes of a cell at `width`.
inline constexpr std::size_t CellBytes(CellWidth width) {
  return static_cast<std::size_t>(1) << static_cast<int>(width);
}

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_CELL_WIDTH_H_
