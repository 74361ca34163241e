#ifndef SUBSTREAM_SKETCH_COUNTER_KERNELS_H_
#define SUBSTREAM_SKETCH_COUNTER_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.h"
#include "util/simd.h"

/// \file counter_kernels.h
/// Runtime-dispatched SIMD kernels for the counter-array hot loops.
///
/// The one-hash-per-item pipeline (PR 3) left two scalar inner loops as the
/// remaining ingest cost: the remix + fast-range bucket derivation of
/// CounterTable::AddPrehashed, and the per-row 4-wise polynomial sign
/// evaluation of CountSketch. Both are pure integer math over a contiguous
/// prehashed column — exactly the shape a vector unit wants — so this layer
/// provides AVX2 and AVX-512 implementations selected once at runtime
/// (kernels::Dispatch), with the scalar loop kept as the portable reference.
///
/// Kernels compute *derivations* (bucket indices, signs) into small
/// stack-resident buffers; the counter increments stay scalar, reading
/// those buffers in stream order. That keeps the kernels gather/scatter-free
/// and conflict-safe: two lanes hashing to the same bucket can never lose
/// an increment, and order-sensitive state (the CountSketch row norms, the
/// narrow-cell spill promotions) sees exactly the scalar update sequence.
/// All kernel arithmetic is exact integer math, so every dispatch level
/// yields bit-identical sketch state (simd_equivalence_test pins
/// serialized-byte equality per level).
///
/// Inputs are the bare columns of a PrehashedColumns batch: bucket passes
/// read the hash column, the sign pass reads the item column, and every
/// vector level takes one unit-stride load per lane set.
///
/// Only the BATCHED ingest paths dispatch here. Per-item operations keep
/// their scalar loops at every level: a per-item panel (lanes across rows)
/// must return its lanes through a wide store the caller immediately
/// re-reads narrowly — one failed store-to-load forward per row, measured
/// as a 4x per-item CountSketch regression on AVX2 at depth 5 — and at
/// real depths (4-7) the vectors barely fill anyway. Micro-block row
/// passes amortize the same stores across 64 items and double-buffer past
/// the forwarding window.
///
/// Every kernel returns with the AVX upper register state clean: callers
/// are compiled without -mavx, and their legacy-SSE double math would pay
/// a transition penalty per instruction otherwise (kernel_upper_state_test
/// checks XINUSE after each kernel at every level).
///
/// Dispatch level resolution, in priority order:
///  1. kernels::SetActive(isa) — tests and benches flip levels in-process.
///  2. SKETCH_SIMD environment variable (scalar | avx2 | avx512), checked
///     on first use; an unsupported or unparsable value falls through with
///     a one-line stderr warning.
///  3. CPUID: the strongest level the host supports.

namespace substream {
namespace kernels {

/// Items per hash→replay micro-block of the vector ingest paths. Small
/// enough that one micro-block's SIMD derivations plus the next one's
/// scalar increment replay fit the out-of-order window together, so the
/// vector units compute block k+1's indices while the load/store units
/// drain block k — the phases overlap instead of serializing (a 1024-item
/// phase pair is far larger than any reorder buffer).
inline constexpr std::size_t kMicroBlockItems = 64;

/// Function-pointer table for one dispatch level. All functions are pure
/// (no hidden state) and safe to call concurrently.
struct KernelTable {
  simd::Isa isa;

  /// Row pass over a hash column: out_idx[i] =
  /// FastRange64(RemixHash(hashes[i], row_seed), width).
  void (*bucket_row_cols)(const std::uint64_t* hashes, std::size_t n,
                          std::uint64_t row_seed, std::uint64_t width,
                          std::uint64_t* out_idx);

  /// 4-wise-independent sign row pass over an item column: out_sign[i] in
  /// {-1, +1} equals PolynomialHash{coeffs}.Sign(items[i]) for a degree-3
  /// polynomial over GF(2^61 - 1) with coefficients c[0..3] (constant term
  /// first, as PolynomialHash stores them).
  void (*sign_row4_cols)(const std::uint64_t* items, std::size_t n,
                         const std::uint64_t c[4], std::int64_t* out_sign);
};

/// The active kernel table. First call resolves the level (env override,
/// then CPUID); subsequent calls are one atomic load.
const KernelTable& Dispatch();

/// Level of the active table.
simd::Isa ActiveIsa();

/// Forces a dispatch level; returns false (and leaves dispatch untouched)
/// when this build or host cannot run it. Test/bench hook — call it only
/// while no ingest is in flight.
bool SetActive(simd::Isa isa);

/// Supported levels on this host, weakest first (always contains scalar).
std::vector<simd::Isa> AvailableIsas();

/// The double-buffered micro-block software pipeline shared by the vector
/// ingest paths (CounterTable::AddPrehashed, CountSketch::UpdatePrehashed).
/// `derive(p, mm, slot)` fills buffer slot 0/1 with the kernel derivations
/// for `mm` items starting at `p`; `replay(slot, mm)` consumes it. The
/// derivation of micro-block j+1 is issued BEFORE the replay of micro-block
/// j, so the vector units compute ahead while the load/store units drain —
/// and the replay only ever reads a buffer whose wide stores were issued a
/// full micro-block earlier, past the store-to-load forwarding window.
/// Callers own the two buffer slots; per-item order within replay is the
/// stream order, so counters stay bit-identical to the fused scalar loop.
/// `block` is any cursor supporting `block + offset` — a raw
/// `std::uint64_t*` column, or a `std::size_t` base offset when the derive
/// stage reads several parallel columns at once.
template <typename Cursor, typename Derive, typename Replay>
inline void MicroBlockPipeline(Cursor block, std::size_t m,
                               Derive&& derive, Replay&& replay) {
  std::size_t cur_m = m < kMicroBlockItems ? m : kMicroBlockItems;
  if (cur_m == 0) return;
  derive(block, cur_m, 0);
  int t = 0;
  for (std::size_t j = 0; j < m;) {
    const std::size_t next = j + cur_m;
    std::size_t next_m = 0;
    if (next < m) {
      next_m = m - next < kMicroBlockItems ? m - next : kMicroBlockItems;
      derive(block + next, next_m, t ^ 1);
    }
    replay(t, cur_m);
    j = next;
    cur_m = next_m;
    t ^= 1;
  }
}

}  // namespace kernels
}  // namespace substream

#endif  // SUBSTREAM_SKETCH_COUNTER_KERNELS_H_
