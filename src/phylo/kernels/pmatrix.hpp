// Blocked P(t) reconstruction, written once and compiled into every tier
// TU, and the generic vector type it shares with the vector tiers' block
// kernels (block_kernels.hpp). Each TU includes this header and
// instantiates the template with its own vector width, so the scalar
// (SSE2), AVX2 and AVX-512 TUs each get a copy vectorized for their own
// ISA flags; no intrinsic is named. The unnamed namespace gives every TU a
// private copy — an inline function with external linkage would let the
// linker pick one tier's code for all of them.
//
// Bit-determinism (DESIGN.md §14): every output element is
//   ((0 + l[i][0] * s[0][j]) + l[i][1] * s[1][j]) + ... + l[i][n-1] * s[n-1][j]
// — a multiply then an add per term, over ascending k — exactly the sum the
// old per-row scalar loop formed. Blocking only changes which independent
// (i, j) sums run side by side in vector lanes; the TUs compile with
// -ffp-contract=off so no mul+add pair is fused into an FMA. The old loop
// skipped terms whose left entry is exactly zero; adding the skipped
// product (a signed zero for finite `s`) to a sum that started at +0.0 can
// never change it, so the skip is gone without moving a bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "phylo/datatype.hpp"
#include "phylo/kernels/kernels.hpp"

namespace lattice::phylo::kernels {
namespace {

/// `kW` lanes of doubles, of int64 (gather indexes, and the lane masks
/// that vector compares produce), of int32 and of tip states, in the
/// compiler's generic vector type. Member typedefs, because GCC drops a
/// dependent vector_size attribute on an alias template.
template <std::size_t kW>
struct VecOf {
  typedef double type __attribute__((vector_size(kW * 8)));
  typedef std::int64_t index __attribute__((vector_size(kW * 8)));
  typedef std::int32_t index32 __attribute__((vector_size(kW * 4)));
  typedef State states __attribute__((vector_size(kW * sizeof(State))));
};
template <std::size_t kW>
using Vec = typename VecOf<kW>::type;
template <std::size_t kW>
using IndexVec = typename VecOf<kW>::index;

template <std::size_t kW>
inline Vec<kW> load(const double* p) {
  Vec<kW> v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

template <std::size_t kW>
inline void store(double* p, Vec<kW> v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

/// out (n x n, row-major) = left · diag(exp_lt) · right, where left and
/// right are row-major n x n and n <= kMaxPmatrixStates. Register-blocked:
/// each step keeps a 4-row x 2-vector tile of `out` in eight accumulators
/// while k runs, so every loaded `scaled` vector feeds four rows.
template <std::size_t kW>
void reconstruct_pmatrix_tiles(const double* __restrict left,
                               const double* __restrict right,
                               const double* __restrict exp_lt,
                               std::size_t n, double* __restrict out) {
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kCols = 2 * kW;
  constexpr std::size_t kMaxPadded =
      (kMaxPmatrixStates + kCols - 1) / kCols * kCols;
  // scaled = diag(exp_lt) · right, its rows padded with zeros to a whole
  // number of column tiles so the inner loop never has a column tail.
  // Only the first n * np entries are written and read; zeroing all 32 KB
  // per call would cost a 4-state matrix more than its product does.
  const std::size_t np = (n + kCols - 1) / kCols * kCols;
  alignas(64) double scaled[kMaxPmatrixStates * kMaxPadded];
  for (std::size_t k = 0; k < n; ++k) {
    const double e = exp_lt[k];
    double* __restrict row = scaled + k * np;
    for (std::size_t j = 0; j < n; ++j) row[j] = e * right[k * n + j];
    for (std::size_t j = n; j < np; ++j) row[j] = 0.0;
  }
  for (std::size_t i0 = 0; i0 < n; i0 += kRows) {
    // A short last row tile recomputes row n-1 in its spare rows and
    // stores only the real ones, so `left` needs no padding.
    const double* l[kRows];
    for (std::size_t r = 0; r < kRows; ++r) {
      l[r] = left + std::min(i0 + r, n - 1) * n;
    }
    const std::size_t rows = std::min(kRows, n - i0);
    for (std::size_t j0 = 0; j0 < np; j0 += kCols) {
      Vec<kW> acc[kRows][2];
      for (std::size_t r = 0; r < kRows; ++r) {
        acc[r][0] = acc[r][1] = Vec<kW>{};
      }
      // A do-while over the n >= 1 rows of `scaled`: given a zero-trip
      // path, GCC 12 zeroes acc with a string store and keeps it in
      // memory instead of registers.
      std::size_t k = 0;
      do {
        const Vec<kW> s0 = load<kW>(scaled + k * np + j0);
        const Vec<kW> s1 = load<kW>(scaled + k * np + j0 + kW);
        for (std::size_t r = 0; r < kRows; ++r) {
          const double lk = l[r][k];  // broadcast by the vector ops
          acc[r][0] += lk * s0;
          acc[r][1] += lk * s1;
        }
      } while (++k < n);
      const std::size_t cols = std::min(kCols, n - j0);
      for (std::size_t r = 0; r < rows; ++r) {
        double tile[kCols];
        store<kW>(tile, acc[r][0]);
        store<kW>(tile + kW, acc[r][1]);
        for (std::size_t c = 0; c < cols; ++c) {
          out[(i0 + r) * n + j0 + c] = tile[c];
        }
      }
    }
  }
}

/// The KernelOps entry for a tier with kW-double vectors. Small state
/// counts step down to narrower vectors: a 4-state matrix in 16-column
/// AVX-512 tiles would be three-quarters padding. Tile shape never moves a
/// bit — each element's sum is the same on every path.
template <std::size_t kW>
void reconstruct_pmatrix_blocked(const double* left, const double* right,
                                 const double* exp_lt, std::size_t n,
                                 double* out) {
  if constexpr (kW > 2) {
    if (n <= kW) {
      reconstruct_pmatrix_blocked<kW / 2>(left, right, exp_lt, n, out);
      return;
    }
  }
  reconstruct_pmatrix_tiles<kW>(left, right, exp_lt, n, out);
}

}  // namespace
}  // namespace lattice::phylo::kernels
