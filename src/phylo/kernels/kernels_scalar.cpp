// Portable scalar tier — the oracle. This is, line for line, the kernel
// code the engine ran before vectorization (moved out of likelihood.cpp),
// kept as the reference every vector tier must match bit for bit. It
// compiles for the baseline target (x86-64 SSE2: no FMA hardware, so
// mul+add stay two IEEE roundings) with -ffp-contract=off for belt and
// braces; the auto-vectorizer is free to widen it, which is safe because
// lane-parallel code with unchanged per-lane operation order cannot
// change a single bit.
#include <algorithm>
#include <cmath>
#include <cstddef>

#include "phylo/kernels/pmatrix.hpp"
#include "phylo/kernels/registry.hpp"

namespace lattice::phylo::kernels {
namespace {

constexpr std::size_t kB = kPatternBlock;

// One child-edge contribution to a block of a parent partial. `dst` holds
// n_states rows of kB doubles; `cp` is the child's block in the same
// layout; `p` is the row-major n_states x n_states transition matrix.
// kAssign writes the first child's factor, the second multiplies in.
template <bool kAssign>
void child_internal_generic(double* __restrict dst,
                            const double* __restrict cp,
                            const double* __restrict p, std::size_t ns) {
  double acc[kB];
  for (std::size_t x = 0; x < ns; ++x) {
    for (std::size_t i = 0; i < kB; ++i) acc[i] = 0.0;
    const double* px = p + x * ns;
    for (std::size_t y = 0; y < ns; ++y) {
      const double pxy = px[y];
      const double* __restrict cpy = cp + y * kB;
      for (std::size_t i = 0; i < kB; ++i) acc[i] += pxy * cpy[i];
    }
    double* __restrict row = dst + x * kB;
    for (std::size_t i = 0; i < kB; ++i) {
      if constexpr (kAssign) {
        row[i] = acc[i];
      } else {
        row[i] *= acc[i];
      }
    }
  }
}

// Specialized fully unrolled 4-state (DNA) path: the compiler sees four
// contiguous input rows and four constants per output row and vectorizes
// the pattern loop.
template <bool kAssign>
void child_internal_4(double* __restrict dst, const double* __restrict cp,
                      const double* __restrict p) {
  const double* __restrict c0 = cp;
  const double* __restrict c1 = cp + kB;
  const double* __restrict c2 = cp + 2 * kB;
  const double* __restrict c3 = cp + 3 * kB;
  double* __restrict r0 = dst;
  double* __restrict r1 = dst + kB;
  double* __restrict r2 = dst + 2 * kB;
  double* __restrict r3 = dst + 3 * kB;
  for (std::size_t i = 0; i < kB; ++i) {
    const double v0 = c0[i];
    const double v1 = c1[i];
    const double v2 = c2[i];
    const double v3 = c3[i];
    const double a0 = p[0] * v0 + p[1] * v1 + p[2] * v2 + p[3] * v3;
    const double a1 = p[4] * v0 + p[5] * v1 + p[6] * v2 + p[7] * v3;
    const double a2 = p[8] * v0 + p[9] * v1 + p[10] * v2 + p[11] * v3;
    const double a3 = p[12] * v0 + p[13] * v1 + p[14] * v2 + p[15] * v3;
    if constexpr (kAssign) {
      r0[i] = a0;
      r1[i] = a1;
      r2[i] = a2;
      r3[i] = a3;
    } else {
      r0[i] *= a0;
      r1[i] *= a1;
      r2[i] *= a2;
      r3[i] *= a3;
    }
  }
}

// Leaf contribution: column of P for the observed state, or 1 for missing
// data.
template <bool kAssign>
void child_leaf(double* __restrict dst, const State* __restrict states,
                const double* __restrict p, std::size_t ns) {
  for (std::size_t x = 0; x < ns; ++x) {
    const double* px = p + x * ns;
    double* __restrict row = dst + x * kB;
    for (std::size_t i = 0; i < kB; ++i) {
      const State s = states[i];
      const double f = s == kMissing ? 1.0 : px[static_cast<std::size_t>(s)];
      if constexpr (kAssign) {
        row[i] = f;
      } else {
        row[i] *= f;
      }
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

// Cumulative subtree scale plus this node's own per-block rescale. The
// max scan covers only the first `lanes` patterns: pad lanes replicate
// real data today, but excluding them makes "pads can never trigger a
// spurious rescale" structural rather than incidental. The rescale
// itself still covers the whole block so pads keep tracking real lanes.
void block_epilogue(double* block, double* sb, const double* sl,
                    const double* sr, std::size_t ns, std::size_t lanes) {
  for (std::size_t i = 0; i < kB; ++i) {
    sb[i] = (sl ? sl[i] : 0.0) + (sr ? sr[i] : 0.0);
  }
  double block_max = 0.0;
  for (std::size_t x = 0; x < ns; ++x) {
    const double* row = block + x * kB;
    for (std::size_t i = 0; i < lanes; ++i) {
      block_max = std::max(block_max, row[i]);
    }
  }
  if (block_max > 0.0 && block_max < kScaleThreshold) {
    const double inv = 1.0 / block_max;
    const std::size_t len = ns * kB;
    for (std::size_t i = 0; i < len; ++i) block[i] *= inv;
    const double log_max = std::log(block_max);
    for (std::size_t i = 0; i < kB; ++i) sb[i] += log_max;
  }
}

// site[lane] = sum_x freqs[x] * block[x*kB + lane], ascending x — the
// association the serial root mixing loop has always used.
void root_sites(const double* block, const double* freqs, std::size_t ns,
                double* site) {
  for (std::size_t i = 0; i < kB; ++i) site[i] = 0.0;
  for (std::size_t x = 0; x < ns; ++x) {
    const double fx = freqs[x];
    const double* __restrict row = block + x * kB;
    for (std::size_t i = 0; i < kB; ++i) site[i] += fx * row[i];
  }
}

// The shared blocked P(t) kernel at baseline x86-64's 2-double SSE2
// width; its oracle is the old loop in tests/pmatrix_reference.hpp.
const KernelOps kScalarOps = {
    "scalar",       apply_child<true>, apply_child<false>,
    block_epilogue, root_sites,        reconstruct_pmatrix_blocked<2>,
};

}  // namespace

const KernelOps* scalar_ops() { return &kScalarOps; }

}  // namespace lattice::phylo::kernels
