// AVX-512 tier: 8-double lane groups over the 32-pattern SoA block.
//
// Same bit-determinism discipline as the AVX2 tier (see kernels_avx2.cpp
// and kernels.hpp): separate mul/add intrinsics in the scalar
// association, no FMA, -ffp-contract=off, masked ops for missing data
// and pattern tails. Requires only the F + DQ foundation subsets; leaf
// columns use 64-bit-index masked gathers so the int16 tip states widen
// without AVX512BW/VL.
#include "phylo/kernels/registry.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "phylo/kernels/pmatrix.hpp"

namespace lattice::phylo::kernels {
namespace {

constexpr std::size_t kB = kPatternBlock;
constexpr std::size_t kW = 8;             // doubles per __m512d
constexpr std::size_t kGroups = kB / kW;  // lane groups per block row

template <bool kAssign>
inline void emit(double* row, std::size_t g, __m512d value) {
  if constexpr (kAssign) {
    _mm512_storeu_pd(row + g * kW, value);
  } else {
    _mm512_storeu_pd(row + g * kW,
                     _mm512_mul_pd(_mm512_loadu_pd(row + g * kW), value));
  }
}

template <bool kAssign>
void child_internal_4(double* dst, const double* cp, const double* p) {
  const double* c0 = cp;
  const double* c1 = cp + kB;
  const double* c2 = cp + 2 * kB;
  const double* c3 = cp + 3 * kB;
  __m512d q[16];
  for (std::size_t e = 0; e < 16; ++e) q[e] = _mm512_set1_pd(p[e]);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const __m512d v0 = _mm512_loadu_pd(c0 + g * kW);
    const __m512d v1 = _mm512_loadu_pd(c1 + g * kW);
    const __m512d v2 = _mm512_loadu_pd(c2 + g * kW);
    const __m512d v3 = _mm512_loadu_pd(c3 + g * kW);
    // a = ((p0*v0 + p1*v1) + p2*v2) + p3*v3 — the scalar association.
    const __m512d a0 = _mm512_add_pd(
        _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(q[0], v0),
                                    _mm512_mul_pd(q[1], v1)),
                      _mm512_mul_pd(q[2], v2)),
        _mm512_mul_pd(q[3], v3));
    const __m512d a1 = _mm512_add_pd(
        _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(q[4], v0),
                                    _mm512_mul_pd(q[5], v1)),
                      _mm512_mul_pd(q[6], v2)),
        _mm512_mul_pd(q[7], v3));
    const __m512d a2 = _mm512_add_pd(
        _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(q[8], v0),
                                    _mm512_mul_pd(q[9], v1)),
                      _mm512_mul_pd(q[10], v2)),
        _mm512_mul_pd(q[11], v3));
    const __m512d a3 = _mm512_add_pd(
        _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(q[12], v0),
                                    _mm512_mul_pd(q[13], v1)),
                      _mm512_mul_pd(q[14], v2)),
        _mm512_mul_pd(q[15], v3));
    emit<kAssign>(dst, g, a0);
    emit<kAssign>(dst + kB, g, a1);
    emit<kAssign>(dst + 2 * kB, g, a2);
    emit<kAssign>(dst + 3 * kB, g, a3);
  }
}

template <bool kAssign>
void child_internal_generic(double* dst, const double* cp, const double* p,
                            std::size_t ns) {
  for (std::size_t x = 0; x < ns; ++x) {
    __m512d acc[kGroups];
    for (std::size_t g = 0; g < kGroups; ++g) acc[g] = _mm512_setzero_pd();
    const double* px = p + x * ns;
    for (std::size_t y = 0; y < ns; ++y) {
      const __m512d pxy = _mm512_set1_pd(px[y]);
      const double* cpy = cp + y * kB;
      for (std::size_t g = 0; g < kGroups; ++g) {
        acc[g] = _mm512_add_pd(
            acc[g], _mm512_mul_pd(pxy, _mm512_loadu_pd(cpy + g * kW)));
      }
    }
    double* row = dst + x * kB;
    for (std::size_t g = 0; g < kGroups; ++g) emit<kAssign>(row, g, acc[g]);
  }
}

template <bool kAssign>
void child_leaf(double* dst, const State* states, const double* p,
                std::size_t ns) {
  const __m512d ones = _mm512_set1_pd(1.0);
  // Decode tip states once per block: 8 x int16 -> 64-bit gather indexes
  // plus a validity mask; missing-data lanes are masked off the gather
  // and keep the 1.0 source.
  __m512i idx[kGroups];
  __mmask8 valid[kGroups];
  const __m512i minus1 = _mm512_set1_epi64(-1);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const __m128i s16 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(states + g * kW));
    idx[g] = _mm512_cvtepi16_epi64(s16);
    valid[g] = _mm512_cmpgt_epi64_mask(idx[g], minus1);
  }
  if (ns == 4) {
    // 4-state fast path: the whole P row fits a register, so px[s]
    // becomes an in-register permute instead of a hardware gather — a
    // pure select, bit-identical to the scalar load. permutexvar reads
    // only the low 3 index bits, so the missing-data lanes (index -1)
    // select garbage that the merge mask immediately discards for 1.0.
    for (std::size_t x = 0; x < 4; ++x) {
      const __m512d pxv =
          _mm512_broadcast_f64x4(_mm256_loadu_pd(p + x * 4));
      double* row = dst + x * kB;
      for (std::size_t g = 0; g < kGroups; ++g) {
        const __m512d f =
            _mm512_mask_permutexvar_pd(ones, valid[g], idx[g], pxv);
        emit<kAssign>(row, g, f);
      }
    }
    return;
  }
  for (std::size_t x = 0; x < ns; ++x) {
    const double* px = p + x * ns;
    double* row = dst + x * kB;
    for (std::size_t g = 0; g < kGroups; ++g) {
      const __m512d f =
          _mm512_mask_i64gather_pd(ones, valid[g], idx[g], px, 8);
      emit<kAssign>(row, g, f);
    }
  }
}

template <bool kAssign>
void apply_child(double* dst, const double* child_partial,
                 const State* child_states, const double* p,
                 std::size_t ns) {
  if (child_states != nullptr) {
    child_leaf<kAssign>(dst, child_states, p, ns);
  } else if (ns == 4) {
    child_internal_4<kAssign>(dst, child_partial, p);
  } else {
    child_internal_generic<kAssign>(dst, child_partial, p, ns);
  }
}

void block_epilogue(double* block, double* sb, const double* sl,
                    const double* sr, std::size_t ns, std::size_t lanes) {
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t g = 0; g < kGroups; ++g) {
    const __m512d a = sl ? _mm512_loadu_pd(sl + g * kW) : zero;
    const __m512d b = sr ? _mm512_loadu_pd(sr + g * kW) : zero;
    _mm512_storeu_pd(sb + g * kW, _mm512_add_pd(a, b));
  }
  // Masked loads zero the pad lanes, which can never exceed the running
  // max's 0.0 floor — pads are structurally excluded from the rescale
  // decision. Max is order-insensitive, so reduce_max matches the scalar
  // scan bit for bit.
  __m512d vmax = zero;
  for (std::size_t x = 0; x < ns; ++x) {
    const double* row = block + x * kB;
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::size_t lo = g * kW;
      const std::size_t take =
          lanes > lo ? std::min<std::size_t>(kW, lanes - lo) : 0;
      const __mmask8 m = static_cast<__mmask8>((1u << take) - 1u);
      vmax = _mm512_max_pd(vmax, _mm512_maskz_loadu_pd(m, row + lo));
    }
  }
  const double block_max = _mm512_reduce_max_pd(vmax);
  if (block_max > 0.0 && block_max < kScaleThreshold) {
    const double inv = 1.0 / block_max;
    const __m512d vinv = _mm512_set1_pd(inv);
    const std::size_t len = ns * kB;
    for (std::size_t i = 0; i < len; i += kW) {
      _mm512_storeu_pd(block + i,
                       _mm512_mul_pd(_mm512_loadu_pd(block + i), vinv));
    }
    const double log_max = std::log(block_max);
    const __m512d vlog = _mm512_set1_pd(log_max);
    for (std::size_t g = 0; g < kGroups; ++g) {
      _mm512_storeu_pd(sb + g * kW,
                       _mm512_add_pd(_mm512_loadu_pd(sb + g * kW), vlog));
    }
  }
}

void root_sites(const double* block, const double* freqs, std::size_t ns,
                double* site) {
  __m512d acc[kGroups];
  for (std::size_t g = 0; g < kGroups; ++g) acc[g] = _mm512_setzero_pd();
  for (std::size_t x = 0; x < ns; ++x) {
    const __m512d fx = _mm512_set1_pd(freqs[x]);
    const double* row = block + x * kB;
    for (std::size_t g = 0; g < kGroups; ++g) {
      acc[g] = _mm512_add_pd(acc[g],
                             _mm512_mul_pd(fx, _mm512_loadu_pd(row + g * kW)));
    }
  }
  for (std::size_t g = 0; g < kGroups; ++g) {
    _mm512_storeu_pd(site + g * kW, acc[g]);
  }
}

const KernelOps kAvx512Ops = {
    "avx512",       apply_child<true>, apply_child<false>,
    block_epilogue, root_sites,        reconstruct_pmatrix_blocked<kW>,
};

}  // namespace

const KernelOps* avx512_ops() { return &kAvx512Ops; }

}  // namespace lattice::phylo::kernels

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace lattice::phylo::kernels {
const KernelOps* avx512_ops() { return nullptr; }
}  // namespace lattice::phylo::kernels

#endif
