// AVX2 tier: the shared block kernels (block_kernels.hpp) at 4 doubles per
// vector. This TU is compiled with -mavx2 only when the toolchain has it;
// without the ISA it reports the tier absent.
#include "phylo/kernels/registry.hpp"

#if defined(__AVX2__)
#include "phylo/kernels/block_kernels.hpp"
#endif

namespace lattice::phylo::kernels {

const KernelOps* avx2_ops() {
#if defined(__AVX2__)
  static constexpr KernelOps kOps = vector_ops<4>("avx2");
  return &kOps;
#else
  return nullptr;
#endif
}

}  // namespace lattice::phylo::kernels
