// AVX-512 tier: the shared block kernels (block_kernels.hpp) at 8 doubles
// per vector. Requires only the F + DQ foundation subsets: leaf columns
// use 64-bit-index gathers, so the int16 tip states widen without
// AVX512BW/VL. Without the ISA this TU reports the tier absent.
#include "phylo/kernels/registry.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include "phylo/kernels/block_kernels.hpp"
#endif

namespace lattice::phylo::kernels {

const KernelOps* avx512_ops() {
#if defined(__AVX512F__) && defined(__AVX512DQ__)
  static constexpr KernelOps kOps = vector_ops<8>("avx512");
  return &kOps;
#else
  return nullptr;
#endif
}

}  // namespace lattice::phylo::kernels
