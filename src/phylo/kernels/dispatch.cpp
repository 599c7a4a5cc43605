// Runtime ISA dispatch: probe CPUID once, honor LATTICE_FORCE_ISA, hand
// every LikelihoodEngine the same kernel table for the whole process.
// Reading an environment variable is deterministic configuration, not
// ambient state: the same (binary, environment) pair always resolves the
// same tier, and ctest runs test_ga_pinned under `LATTICE_FORCE_ISA=scalar`
// and `=avx2` to prove the tiers reach the same pinned GA bits.
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "phylo/kernels/registry.hpp"

namespace lattice::phylo::kernels {
namespace {

// __builtin_cpu_supports requires literal feature names, hence one tiny
// probe per feature instead of a parameterized helper.
bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

IsaTier resolve_active() {
  IsaTier tier = best_supported_tier();
  if (const char* forced = std::getenv("LATTICE_FORCE_ISA")) {
    const IsaTier want = parse_tier(forced);
    if (tier_supported(want)) tier = want;
    // else: keep the best supported tier — pinning a tier the host lacks
    // must degrade, not crash, a determinism lane.
  }
  return tier;
}

}  // namespace

bool tier_supported(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return true;
    case IsaTier::kAvx2:
      return avx2_ops() != nullptr && cpu_has_avx2();
    case IsaTier::kAvx512:
      return avx512_ops() != nullptr && cpu_has_avx512();
  }
  return false;
}

IsaTier best_supported_tier() {
  if (tier_supported(IsaTier::kAvx512)) return IsaTier::kAvx512;
  if (tier_supported(IsaTier::kAvx2)) return IsaTier::kAvx2;
  return IsaTier::kScalar;
}

IsaTier parse_tier(std::string_view name) {
  if (name == "scalar") return IsaTier::kScalar;
  if (name == "avx2") return IsaTier::kAvx2;
  if (name == "avx512") return IsaTier::kAvx512;
  throw std::invalid_argument(
      "LATTICE_FORCE_ISA: unknown tier '" + std::string(name) +
      "' (expected scalar | avx2 | avx512)");
}

const char* tier_name(IsaTier tier) {
  switch (tier) {
    case IsaTier::kAvx512:
      return "avx512";
    case IsaTier::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

IsaTier active_tier() {
  static const IsaTier tier = resolve_active();
  return tier;
}

const KernelOps& ops_for(IsaTier tier) {
  if (tier == IsaTier::kAvx512 && tier_supported(IsaTier::kAvx512)) {
    return *avx512_ops();
  }
  if (tier >= IsaTier::kAvx2 && tier_supported(IsaTier::kAvx2)) {
    return *avx2_ops();
  }
  return *scalar_ops();
}

const KernelOps& active_ops() { return ops_for(active_tier()); }

}  // namespace lattice::phylo::kernels
