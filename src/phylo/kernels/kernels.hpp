// Vectorized Felsenstein-pruning inner kernels with runtime ISA dispatch.
//
// Three tiers of the same five entry points — portable scalar (the oracle:
// exactly the code the engine ran before vectorization), AVX2 (4
// doubles/lane-group) and AVX-512 (8 doubles/lane-group), the two vector
// tiers being one source (block_kernels.hpp) at two widths — are selected
// once at startup by a CPUID probe, overridable with the LATTICE_FORCE_ISA
// environment variable (`scalar` | `avx2` | `avx512`) so determinism lanes
// can pin a tier.
//
// Bit-determinism contract (DESIGN.md §14): every tier produces
// bit-identical doubles, not merely close ones. The vector kernels keep
// each multiply and add separate, in the scalar code's exact left-to-right
// association — never FMA, whose single rounding would diverge from the
// baseline-x86-64 scalar oracle (which has no FMA hardware to contract
// onto) — and the kernel TUs compile with -ffp-contract=off so the
// compiler cannot fuse what the source keeps separate. Reductions that
// feed results (root site products) run in the scalar order per lane;
// the only out-of-order reduction is the per-block max, which is
// order-insensitive for the non-NaN, non-negative partials it scans.
//
// The SoA block layout is the contract with the engine: a block is
// n_states contiguous state-major rows of kPatternBlock doubles, and
// kPatternBlock (32) is a multiple of every vector width, so tail
// handling exists only at the *pattern* level (the `lanes` argument),
// never at the vector level. All double buffers handed to these kernels
// are 64-byte aligned (util::aligned_vector).
#pragma once

#include <cstddef>
#include <string_view>

#include "phylo/datatype.hpp"

namespace lattice::phylo::kernels {

/// Patterns per SoA block (mirrored by LikelihoodEngine::kPatternBlock).
inline constexpr std::size_t kPatternBlock = 32;

/// Rescale when the largest partial in a block falls below this; keeps
/// products of many small branch probabilities out of the denormal range.
inline constexpr double kScaleThreshold = 1e-100;

/// Largest state count reconstruct_pmatrix accepts (codons have 61).
inline constexpr std::size_t kMaxPmatrixStates = 64;

enum class IsaTier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// One tier's kernel table. `dst` is always a parent block: n_states
/// contiguous rows of kPatternBlock doubles.
struct KernelOps {
  const char* name;  // "scalar" | "avx2" | "avx512"

  /// One child-edge contribution to a parent block. Exactly one of
  /// `child_partial` (internal child: same block layout) and
  /// `child_states` (leaf child: kPatternBlock tip states, kMissing
  /// matching every state) is non-null; `p` is the row-major
  /// n_states x n_states transition matrix. The assign flavor writes the
  /// first child's factor, the mul flavor multiplies the second one in.
  void (*apply_child_assign)(double* dst, const double* child_partial,
                             const State* child_states, const double* p,
                             std::size_t ns);
  void (*apply_child_mul)(double* dst, const double* child_partial,
                          const State* child_states, const double* p,
                          std::size_t ns);

  /// Post-children epilogue for one block: fold the children's cumulative
  /// log-scales into `sb` (sl/sr may be null — leaf children carry no
  /// scale), take the block max over the first `lanes` patterns only (pad
  /// lanes can never trigger a rescale), and when the whole block has
  /// drifted below kScaleThreshold rescale all n_states rows and add
  /// log(max) to every lane of `sb`.
  void (*block_epilogue)(double* block, double* sb, const double* sl,
                         const double* sr, std::size_t ns,
                         std::size_t lanes);

  /// Root-reduction inner products for one block:
  ///   site[lane] = sum_x freqs[x] * block[x * kPatternBlock + lane]
  /// accumulated in ascending-x order (the scalar association), so the
  /// serial pattern-order mixing loop above sees identical bits.
  void (*root_sites)(const double* block, const double* freqs,
                     std::size_t ns, double* site);

  /// Transition-matrix reconstruction from a compiled model's
  /// eigensystem: out = left · diag(exp_lt) · right, all row-major
  /// n x n with n <= kMaxPmatrixStates, and exp_lt[k] = exp(lambda_k t).
  /// Each element is summed over ascending k as a multiply then an add —
  /// the association of the scalar loop it replaced — so every tier
  /// writes the same bits (src/phylo/kernels/pmatrix.hpp).
  void (*reconstruct_pmatrix)(const double* left, const double* right,
                              const double* exp_lt, std::size_t n,
                              double* out);
};

/// True when this build has the tier's kernels compiled in *and* the CPU
/// reports the ISA. kScalar is always supported.
bool tier_supported(IsaTier tier);

/// Highest supported tier on this host.
IsaTier best_supported_tier();

/// Strict parse of a LATTICE_FORCE_ISA value ("scalar" | "avx2" |
/// "avx512"); throws std::invalid_argument on anything else so a typo'd
/// determinism lane fails loudly instead of silently running native.
IsaTier parse_tier(std::string_view name);

const char* tier_name(IsaTier tier);

/// The tier every engine uses by default: best supported, unless
/// LATTICE_FORCE_ISA pins one (an unsupported forced tier clamps down to
/// the best the host has — pinning `avx512` on an AVX2 box must not
/// crash the lane). Resolved once, on first use.
IsaTier active_tier();

/// Kernel table for a tier, clamped to the nearest supported one.
const KernelOps& ops_for(IsaTier tier);

/// ops_for(active_tier()).
const KernelOps& active_ops();

}  // namespace lattice::phylo::kernels
