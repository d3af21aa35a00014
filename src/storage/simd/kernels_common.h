// Scalar reference implementations of every kernel in SimdKernels, shared as
// helpers with internal linkage: the scalar dispatch table points straight
// at them, and the SSE4.2/AVX2 translation units reuse them for tails and
// for the widths / shapes they do not vectorize. Semantics here are
// authoritative — the SIMD variants must match them bit for bit
// (tests/simd_kernels_test.cc).

#ifndef GBKMV_STORAGE_SIMD_KERNELS_COMMON_H_
#define GBKMV_STORAGE_SIMD_KERNELS_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gbkmv::simd_internal {

// Internal linkage: each kernel translation unit keeps its own copy, compiled
// with that unit's ISA flags. A shared inline (weak) definition would let
// the linker pick, say, the -mavx2 copy for the scalar table.
namespace {

// Galloping threshold shared by every dispatch level: when one side is this
// many times longer, per-element binary search beats any merge. Keeping the
// constant identical everywhere means all levels take the same path shape,
// which keeps the required == 0 (exact) results trivially comparable.
inline constexpr size_t kGallopRatio = 64;

// Merge-intersect a (the shorter span) into b with the miss-budget abandon:
// count + remaining(a) < required  ⇔  misses_on_a > na - required, which
// costs one increment + compare on the miss branch only. `i`/`j` are resume
// cursors so SIMD blocks can hand their tail here; `count` likewise resumes.
// Returns the final count, or 0 the moment `required` becomes unreachable
// (required == 0 never abandons).
inline uint32_t MergeTail(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t required, size_t i, size_t j,
                          uint32_t count) {
  while (i < na && j < nb) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x < y) {
      ++i;
      if (required != 0 && count + (na - i) < required) return 0;
    } else if (y < x) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return (required != 0 && count < required) ? 0 : count;
}

// Per-element binary probe of the (much) longer side, with the same abandon
// rule. `a` must be the shorter span.
inline uint32_t GallopIntersect(const uint32_t* a, size_t na, const uint32_t* b,
                                size_t nb, uint32_t required) {
  uint32_t count = 0;
  size_t j = 0;
  for (size_t i = 0; i < na; ++i) {
    if (required != 0 && count + (na - i) < required) return 0;
    // Branchless lower_bound over the remaining suffix of b.
    const uint32_t x = a[i];
    size_t lo = j, len = nb - j;
    while (len > 0) {
      const size_t half = len / 2;
      if (b[lo + half] < x) {
        lo += half + 1;
        len -= half + 1;
      } else {
        len = half;
      }
    }
    j = lo;
    if (j < nb && b[j] == x) {
      ++count;
      ++j;
    }
  }
  return (required != 0 && count < required) ? 0 : count;
}

inline uint32_t ScalarIntersectBounded(const uint32_t* a, size_t na,
                                       const uint32_t* b, size_t nb,
                                       uint32_t required) {
  if (na > nb) {
    const uint32_t* ts = a;
    a = b;
    b = ts;
    const size_t tn = na;
    na = nb;
    nb = tn;
  }
  if (required != 0 && na < required) return 0;
  if (na == 0) return 0;
  if (nb > kGallopRatio * na) return GallopIntersect(a, na, b, nb, required);
  return MergeTail(a, na, b, nb, required, 0, 0, 0);
}

inline void ScalarAccumulateU16(uint16_t* counts, const uint32_t* ids,
                                size_t n) {
  // The counter table can exceed L1 for large datasets; a short prefetch
  // distance hides most of the latency without hurting the in-cache case.
  constexpr size_t kAhead = 16;
  size_t k = 0;
  for (; k + kAhead < n; ++k) {
    __builtin_prefetch(&counts[ids[k + kAhead]], 1, 3);
    ++counts[ids[k]];
  }
  for (; k < n; ++k) ++counts[ids[k]];
}

inline size_t ScalarEmitGeU16(const uint16_t* counts, size_t n, uint16_t theta,
                              uint32_t* out) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    if (counts[i] >= theta) out[m++] = static_cast<uint32_t>(i);
  }
  return m;
}

inline size_t ScalarCountNonZeroU16(const uint16_t* counts, size_t n) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) m += counts[i] != 0;
  return m;
}

// Bit extraction via an unaligned 64-bit window: width <= 32 and a shift of
// at most 7 always fit in the 8 loaded bytes. The caller guarantees the full
// (zero-padded) block payload plus slack is readable.
inline void ScalarDecodeDeltas(const uint8_t* packed, uint32_t width,
                               uint32_t base, uint32_t count, uint32_t* out) {
  uint32_t value = base;
  if (width == 0) {
    for (uint32_t k = 0; k < count; ++k) out[k] = ++value;
    return;
  }
  const uint64_t mask =
      width == 32 ? 0xffffffffull : ((uint64_t{1} << width) - 1);
  uint64_t bitpos = 0;
  for (uint32_t k = 0; k < count; ++k, bitpos += width) {
    uint64_t word;
    std::memcpy(&word, packed + (bitpos >> 3), sizeof word);
    const uint32_t delta =
        static_cast<uint32_t>((word >> (bitpos & 7)) & mask);
    value += delta + 1;
    out[k] = value;
  }
}

}  // namespace
}  // namespace gbkmv::simd_internal

#endif  // GBKMV_STORAGE_SIMD_KERNELS_COMMON_H_
