// AVX2 tier: 4-double lane groups over the 32-pattern SoA block.
//
// Bit-determinism: every arithmetic statement below is the scalar
// oracle's statement, widened. Multiplies and adds stay separate
// intrinsics in the scalar left-to-right association (never FMA — see
// kernels.hpp), the per-lane accumulation order over states/children is
// unchanged, and the TU compiles with -ffp-contract=off so the compiler
// cannot fuse them behind our back. The only out-of-order reduction is
// the block max, which is order-insensitive for non-NaN partials. Leaf
// columns use masked gathers: masked-off (missing-data) lanes are never
// dereferenced, mirroring the scalar `s == kMissing ? 1.0 : px[s]`.
//
// This TU is compiled with -mavx2 only when the toolchain has it; without
// the ISA the stub at the bottom reports the tier absent.
#include "phylo/kernels/registry.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "phylo/kernels/pmatrix.hpp"

namespace lattice::phylo::kernels {
namespace {

constexpr std::size_t kB = kPatternBlock;
constexpr std::size_t kW = 4;             // doubles per __m256d
constexpr std::size_t kGroups = kB / kW;  // lane groups per block row

template <bool kAssign>
inline void emit(double* row, std::size_t g, __m256d value) {
  if constexpr (kAssign) {
    _mm256_storeu_pd(row + g * kW, value);
  } else {
    _mm256_storeu_pd(row + g * kW,
                     _mm256_mul_pd(_mm256_loadu_pd(row + g * kW), value));
  }
}

template <bool kAssign>
void child_internal_4(double* dst, const double* cp, const double* p) {
  const double* c0 = cp;
  const double* c1 = cp + kB;
  const double* c2 = cp + 2 * kB;
  const double* c3 = cp + 3 * kB;
  // 16 broadcast transition entries; the compiler allocates/spills.
  __m256d q[16];
  for (std::size_t e = 0; e < 16; ++e) q[e] = _mm256_set1_pd(p[e]);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const __m256d v0 = _mm256_loadu_pd(c0 + g * kW);
    const __m256d v1 = _mm256_loadu_pd(c1 + g * kW);
    const __m256d v2 = _mm256_loadu_pd(c2 + g * kW);
    const __m256d v3 = _mm256_loadu_pd(c3 + g * kW);
    // a = ((p0*v0 + p1*v1) + p2*v2) + p3*v3 — the scalar association.
    const __m256d a0 = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(q[0], v0),
                                    _mm256_mul_pd(q[1], v1)),
                      _mm256_mul_pd(q[2], v2)),
        _mm256_mul_pd(q[3], v3));
    const __m256d a1 = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(q[4], v0),
                                    _mm256_mul_pd(q[5], v1)),
                      _mm256_mul_pd(q[6], v2)),
        _mm256_mul_pd(q[7], v3));
    const __m256d a2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(q[8], v0),
                                    _mm256_mul_pd(q[9], v1)),
                      _mm256_mul_pd(q[10], v2)),
        _mm256_mul_pd(q[11], v3));
    const __m256d a3 = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(q[12], v0),
                                    _mm256_mul_pd(q[13], v1)),
                      _mm256_mul_pd(q[14], v2)),
        _mm256_mul_pd(q[15], v3));
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
    // acc starts at 0.0 exactly like the scalar oracle's acc[] array.
    __m256d acc[kGroups];
    for (std::size_t g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_pd();
    const double* px = p + x * ns;
    for (std::size_t y = 0; y < ns; ++y) {
      const __m256d pxy = _mm256_set1_pd(px[y]);
      const double* cpy = cp + y * kB;
      for (std::size_t g = 0; g < kGroups; ++g) {
        acc[g] = _mm256_add_pd(
            acc[g], _mm256_mul_pd(pxy, _mm256_loadu_pd(cpy + g * kW)));
      }
    }
    double* row = dst + x * kB;
    for (std::size_t g = 0; g < kGroups; ++g) emit<kAssign>(row, g, acc[g]);
  }
}

template <bool kAssign>
void child_leaf(double* dst, const State* states, const double* p,
                std::size_t ns) {
  const __m256d ones = _mm256_set1_pd(1.0);
  // Decode the block's tip states once: 4 x int16 -> int32 gather indexes
  // plus a validity mask (missing data = all-zeros mask lane, so the
  // gather never touches memory for it and the lane keeps 1.0).
  __m128i idx[kGroups];
  __m256d mask[kGroups];
  const __m128i minus1 = _mm_set1_epi32(-1);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const __m128i s16 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(states + g * kW));
    const __m128i s32 = _mm_cvtepi16_epi32(s16);
    idx[g] = s32;
    mask[g] = _mm256_castsi256_pd(
        _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(s32, minus1)));
  }
  if (ns == 4) {
    // 4-state fast path: px[s] as in-register selects instead of a
    // hardware gather. permutevar_pd picks within each 128-bit half by
    // index bit 1 (hence the <<1), the s>=2 blend picks the half, and
    // the validity blend restores 1.0 for missing data. Every step is a
    // pure select of the same px[s] double the scalar oracle loads.
    __m256i ctrl[kGroups];
    __m256d hi_sel[kGroups];
    const __m256i one64 = _mm256_set1_epi64x(1);
    for (std::size_t g = 0; g < kGroups; ++g) {
      const __m256i s64 = _mm256_cvtepi32_epi64(idx[g]);
      ctrl[g] = _mm256_slli_epi64(s64, 1);
      hi_sel[g] = _mm256_castsi256_pd(_mm256_cmpgt_epi64(s64, one64));
    }
    for (std::size_t x = 0; x < 4; ++x) {
      const double* px = p + x * 4;
      const __m256d lo2 =
          _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(px));
      const __m256d hi2 =
          _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(px + 2));
      double* row = dst + x * kB;
      for (std::size_t g = 0; g < kGroups; ++g) {
        const __m256d pick =
            _mm256_blendv_pd(_mm256_permutevar_pd(lo2, ctrl[g]),
                             _mm256_permutevar_pd(hi2, ctrl[g]), hi_sel[g]);
        const __m256d f = _mm256_blendv_pd(ones, pick, mask[g]);
        emit<kAssign>(row, g, f);
      }
    }
    return;
  }
  for (std::size_t x = 0; x < ns; ++x) {
    const double* px = p + x * ns;
    double* row = dst + x * kB;
    for (std::size_t g = 0; g < kGroups; ++g) {
      const __m256d f = _mm256_mask_i32gather_pd(ones, px, idx[g], mask[g], 8);
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
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t g = 0; g < kGroups; ++g) {
    const __m256d a = sl ? _mm256_loadu_pd(sl + g * kW) : zero;
    const __m256d b = sr ? _mm256_loadu_pd(sr + g * kW) : zero;
    _mm256_storeu_pd(sb + g * kW, _mm256_add_pd(a, b));
  }
  // Block max over valid lanes only; max is order-insensitive, so the
  // vector-then-horizontal reduction matches the scalar scan exactly.
  const std::size_t full = lanes / kW;
  const std::size_t rem = lanes % kW;
  __m256d vmax = zero;
  for (std::size_t x = 0; x < ns; ++x) {
    const double* row = block + x * kB;
    for (std::size_t g = 0; g < full; ++g) {
      vmax = _mm256_max_pd(vmax, _mm256_loadu_pd(row + g * kW));
    }
  }
  double lanes_max[kW];
  _mm256_storeu_pd(lanes_max, vmax);
  double block_max =
      std::max(std::max(lanes_max[0], lanes_max[1]),
               std::max(lanes_max[2], lanes_max[3]));
  if (rem != 0) {
    for (std::size_t x = 0; x < ns; ++x) {
      const double* row = block + x * kB;
      for (std::size_t i = full * kW; i < lanes; ++i) {
        block_max = std::max(block_max, row[i]);
      }
    }
  }
  if (block_max > 0.0 && block_max < kScaleThreshold) {
    const double inv = 1.0 / block_max;
    const __m256d vinv = _mm256_set1_pd(inv);
    const std::size_t len = ns * kB;
    for (std::size_t i = 0; i < len; i += kW) {
      _mm256_storeu_pd(block + i,
                       _mm256_mul_pd(_mm256_loadu_pd(block + i), vinv));
    }
    const double log_max = std::log(block_max);
    const __m256d vlog = _mm256_set1_pd(log_max);
    for (std::size_t g = 0; g < kGroups; ++g) {
      _mm256_storeu_pd(sb + g * kW,
                       _mm256_add_pd(_mm256_loadu_pd(sb + g * kW), vlog));
    }
  }
}

void root_sites(const double* block, const double* freqs, std::size_t ns,
                double* site) {
  __m256d acc[kGroups];
  for (std::size_t g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_pd();
  for (std::size_t x = 0; x < ns; ++x) {
    const __m256d fx = _mm256_set1_pd(freqs[x]);
    const double* row = block + x * kB;
    for (std::size_t g = 0; g < kGroups; ++g) {
      acc[g] = _mm256_add_pd(acc[g],
                             _mm256_mul_pd(fx, _mm256_loadu_pd(row + g * kW)));
    }
  }
  for (std::size_t g = 0; g < kGroups; ++g) {
    _mm256_storeu_pd(site + g * kW, acc[g]);
  }
}

const KernelOps kAvx2Ops = {
    "avx2",         apply_child<true>, apply_child<false>,
    block_epilogue, root_sites,        reconstruct_pmatrix_blocked<kW>,
};

}  // namespace

const KernelOps* avx2_ops() { return &kAvx2Ops; }

}  // namespace lattice::phylo::kernels

#else  // !__AVX2__

namespace lattice::phylo::kernels {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace lattice::phylo::kernels

#endif
