// The vector tiers' block kernels, written once: apply_child,
// block_epilogue and root_sites as templates over the vector width kW, in
// the generic vector type of pmatrix.hpp. kernels_avx2.cpp instantiates
// them at 4 doubles and kernels_avx512.cpp at 8, each under its own ISA
// flags; the scalar oracle (kernels_scalar.cpp) does not include them.
//
// Bit-determinism (DESIGN.md §14): every arithmetic statement below is the
// scalar oracle's statement, widened to kW pattern lanes. Multiplies and
// adds stay separate operations in the oracle's left-to-right association,
// the per-lane order over states and children is unchanged, and the TUs
// compile with -ffp-contract=off so the compiler cannot fuse them into
// FMAs. The only out-of-order reduction is the block max, which is
// order-insensitive for non-NaN partials. Leaf columns are selects and
// loads of the px[s] the oracle reads, never arithmetic.
//
// The generic vector type cannot spell an indexed load, so `column`, the
// generic-ns leaf gather, holds the only intrinsics of the vector tiers.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "phylo/kernels/kernels.hpp"
#include "phylo/kernels/pmatrix.hpp"

namespace lattice::phylo::kernels {
namespace {

constexpr std::size_t kB = kPatternBlock;

// The assign flavor writes the first child's factor, the mul flavor
// multiplies the second one in.
template <std::size_t kW, bool kAssign>
inline void emit(double* at, Vec<kW> value) {
  store<kW>(at, kAssign ? value : load<kW>(at) * value);
}

/// px[idx] in every lane that holds a state and 1.0 in missing-data lanes
/// (index kMissing), mirroring the scalar `s == kMissing ? 1.0 : px[s]`:
/// a masked hardware gather, so missing lanes are never dereferenced.
template <std::size_t kW>
inline Vec<kW> column(const double* px, IndexVec<kW> idx) {
  const IndexVec<kW> valid = idx >= 0;
#if defined(__AVX512F__)
  if constexpr (kW == 8) {
    return _mm512_mask_i64gather_pd(
        _mm512_set1_pd(1.0),
        _mm512_test_epi64_mask(__m512i(valid), __m512i(valid)),
        __m512i(idx), px, 8);
  } else
#endif
  {
    static_assert(kW == 4, "a masked gather exists for 4 or 8 doubles");
    return _mm256_mask_i64gather_pd(_mm256_set1_pd(1.0), px, __m256i(idx),
                                    __m256d(valid), 8);
  }
}

template <std::size_t kW, bool kAssign>
void child_internal_4(double* __restrict dst, const double* __restrict cp,
                      const double* __restrict p) {
  for (std::size_t i = 0; i < kB; i += kW) {
    const Vec<kW> v0 = load<kW>(cp + i);
    const Vec<kW> v1 = load<kW>(cp + kB + i);
    const Vec<kW> v2 = load<kW>(cp + 2 * kB + i);
    const Vec<kW> v3 = load<kW>(cp + 3 * kB + i);
    for (std::size_t x = 0; x < 4; ++x) {
      const double* px = p + 4 * x;
      // ((p0*v0 + p1*v1) + p2*v2) + p3*v3 — the scalar association.
      emit<kW, kAssign>(dst + x * kB + i,
                        px[0] * v0 + px[1] * v1 + px[2] * v2 + px[3] * v3);
    }
  }
}

template <std::size_t kW, bool kAssign>
void child_internal_generic(double* __restrict dst,
                            const double* __restrict cp,
                            const double* __restrict p, std::size_t ns) {
  for (std::size_t x = 0; x < ns; ++x) {
    // acc starts at 0.0 exactly like the scalar oracle's acc[] array.
    Vec<kW> acc[kB / kW] = {};
    const double* px = p + x * ns;
    for (std::size_t y = 0; y < ns; ++y) {
      for (std::size_t i = 0; i < kB; i += kW) {
        acc[i / kW] += px[y] * load<kW>(cp + y * kB + i);
      }
    }
    for (std::size_t i = 0; i < kB; i += kW) {
      emit<kW, kAssign>(dst + x * kB + i, acc[i / kW]);
    }
  }
}

template <std::size_t kW, bool kAssign>
void child_leaf(double* __restrict dst, const State* __restrict states,
                const double* __restrict p, std::size_t ns) {
  constexpr std::size_t kGroups = kB / kW;
  // Decode the tip states once, eight at a time, into per-group column
  // indexes. Two 8-lane steps, int16 -> int32 -> int64, compile to sign
  // extensions; GCC 12 scalarizes one step, and kW-wide steps at kW = 4.
  using V8 = VecOf<8>;
  IndexVec<kW> idx[kGroups];
  for (std::size_t i = 0; i < kB; i += 8) {
    V8::states s;
    __builtin_memcpy(&s, states + i, sizeof(s));
    const V8::index wide = __builtin_convertvector(
        __builtin_convertvector(s, V8::index32), V8::index);
    __builtin_memcpy(&idx[i / kW], &wide, sizeof(wide));
  }
  if (ns == 4) {
    // 4-state fast path: the P row, repeated to fill a register, turns
    // px[s] into an in-register shuffle instead of a gather, and a select
    // restores 1.0 for missing data (a shuffle takes its indexes modulo
    // kW, so kMissing picks px[3], which the select discards). Both are
    // pure selects of the px[s] the scalar oracle loads.
    const Vec<kW> ones = Vec<kW>{} + 1.0;
    for (std::size_t x = 0; x < 4; ++x) {
      Vec<kW> row;
      for (std::size_t i = 0; i < kW; ++i) row[i] = p[x * 4 + i % 4];
      for (std::size_t g = 0; g < kGroups; ++g) {
        emit<kW, kAssign>(dst + x * kB + g * kW,
                          idx[g] >= 0 ? __builtin_shuffle(row, idx[g]) : ones);
      }
    }
    return;
  }
  for (std::size_t x = 0; x < ns; ++x) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      emit<kW, kAssign>(dst + x * kB + g * kW, column<kW>(p + x * ns, idx[g]));
    }
  }
}

template <std::size_t kW, bool kAssign>
void apply_child(double* dst, const double* child_partial,
                 const State* child_states, const double* p,
                 std::size_t ns) {
  if (child_states != nullptr) {
    child_leaf<kW, kAssign>(dst, child_states, p, ns);
  } else if (ns == 4) {
    child_internal_4<kW, kAssign>(dst, child_partial, p);
  } else {
    child_internal_generic<kW, kAssign>(dst, child_partial, p, ns);
  }
}

template <std::size_t kW>
void block_epilogue(double* block, double* sb, const double* sl,
                    const double* sr, std::size_t ns, std::size_t lanes) {
  constexpr std::size_t kGroups = kB / kW;
  for (std::size_t i = 0; i < kB; i += kW) {
    const Vec<kW> a = sl ? load<kW>(sl + i) : Vec<kW>{};
    const Vec<kW> b = sr ? load<kW>(sr + i) : Vec<kW>{};
    store<kW>(sb + i, a + b);
  }
  // Block max over the first `lanes` lanes only: the lane mask, built
  // from an iota compare, reads every later lane as 0.0, the scan's own
  // floor, so pad lanes can never trigger a rescale. One running max per
  // lane group, folded together and then across lanes; max is
  // order-insensitive, so this matches the scalar scan bit for bit.
  IndexVec<kW> live[kGroups];
  Vec<kW> vmax[kGroups];
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t i = 0; i < kW; ++i) live[g][i] = g * kW + i;
    live[g] = live[g] < static_cast<std::int64_t>(lanes);
    vmax[g] = Vec<kW>{};
  }
  // A do-while over the ns >= 1 rows: given a zero-trip path, GCC 12 keeps
  // vmax in memory behind a string store that outcosts a 4-state scan.
  std::size_t x = 0;
  do {
    for (std::size_t g = 0; g < kGroups; ++g) {
      const Vec<kW> v =
          live[g] ? load<kW>(block + x * kB + g * kW) : Vec<kW>{};
      vmax[g] = v > vmax[g] ? v : vmax[g];
    }
  } while (++x < ns);
  Vec<kW> m = vmax[0];
  for (std::size_t g = 1; g < kGroups; ++g) m = vmax[g] > m ? vmax[g] : m;
  double block_max = 0.0;
  for (std::size_t i = 0; i < kW; ++i) block_max = std::max(block_max, m[i]);
  if (block_max > 0.0 && block_max < kScaleThreshold) {
    const double inv = 1.0 / block_max;
    for (std::size_t i = 0; i < ns * kB; i += kW) {
      store<kW>(block + i, load<kW>(block + i) * inv);
    }
    const double log_max = std::log(block_max);
    for (std::size_t i = 0; i < kB; i += kW) {
      store<kW>(sb + i, load<kW>(sb + i) + log_max);
    }
  }
}

template <std::size_t kW>
void root_sites(const double* block, const double* freqs, std::size_t ns,
                double* site) {
  Vec<kW> acc[kB / kW];
  for (Vec<kW>& a : acc) a = Vec<kW>{};
  // A do-while over the ns >= 1 states, as in block_epilogue. The zero
  // start stays: starting from the first row would turn -0.0 sums to 0.0.
  std::size_t x = 0;
  do {
    for (std::size_t i = 0; i < kB; i += kW) {
      acc[i / kW] += freqs[x] * load<kW>(block + x * kB + i);
    }
  } while (++x < ns);
  for (std::size_t i = 0; i < kB; i += kW) store<kW>(site + i, acc[i / kW]);
}

/// The KernelOps table of a vector tier with kW doubles per vector.
template <std::size_t kW>
constexpr KernelOps vector_ops(const char* name) {
  return {name, apply_child<kW, true>, apply_child<kW, false>,
          block_epilogue<kW>, root_sites<kW>,
          reconstruct_pmatrix_blocked<kW>};
}

}  // namespace
}  // namespace lattice::phylo::kernels
