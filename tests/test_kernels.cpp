// Tests for the ISA-dispatched likelihood kernels (src/phylo/kernels/):
// every vector tier must be BIT-identical to the scalar oracle — not just
// close — on randomized inputs covering internal/leaf children, 4-state
// and generic state counts, missing data, rescale-triggering magnitudes,
// and partial tail blocks; the dispatcher must parse/clamp tiers; and a
// whole engine evaluation must produce identical bits on every supported
// tier, twice in a row. The P(t) reconstruction entry is held to the old
// scalar triple loop (tests/pmatrix_reference.hpp) by memcmp, on random
// eigensystems and on real compiled models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "phylo/kernels/kernels.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/model.hpp"
#include "phylo/simulate.hpp"
#include "pmatrix_reference.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace lattice::phylo::kernels {
namespace {

constexpr std::size_t kB = kPatternBlock;

std::vector<IsaTier> supported_tiers() {
  std::vector<IsaTier> tiers{IsaTier::kScalar};
  if (tier_supported(IsaTier::kAvx2)) tiers.push_back(IsaTier::kAvx2);
  if (tier_supported(IsaTier::kAvx512)) tiers.push_back(IsaTier::kAvx512);
  return tiers;
}

// Random block inputs for one (ns, leaf?) kernel case. `scale_mag` pulls
// the partial magnitudes down so some cases cross kScaleThreshold and
// exercise the rescale branch.
struct BlockCase {
  std::size_t ns;
  util::aligned_vector<double> dst_init;   // pre-existing parent block
  util::aligned_vector<double> child;      // internal child partial
  std::vector<State> states;               // leaf child states
  util::aligned_vector<double> p;          // transition matrix
  util::aligned_vector<double> sl, sr;     // child cumulative scales
  util::aligned_vector<double> freqs;
};

BlockCase random_case(util::Rng& rng, std::size_t ns, double scale_mag) {
  BlockCase c;
  c.ns = ns;
  c.dst_init.resize(ns * kB);
  c.child.resize(ns * kB);
  c.states.resize(kB);
  c.p.resize(ns * ns);
  c.sl.resize(kB);
  c.sr.resize(kB);
  c.freqs.resize(ns);
  for (auto& v : c.dst_init) v = rng.uniform() * scale_mag;
  for (auto& v : c.child) v = rng.uniform() * scale_mag;
  for (auto& v : c.p) v = rng.uniform();
  for (auto& v : c.sl) v = -rng.uniform() * 100.0;
  for (auto& v : c.sr) v = -rng.uniform() * 100.0;
  for (auto& v : c.freqs) v = 0.1 + rng.uniform();
  for (std::size_t i = 0; i < kB; ++i) {
    // ~1 in 8 lanes missing data.
    c.states[i] = rng.uniform() < 0.125
                      ? kMissing
                      : static_cast<State>(rng.below(ns));
  }
  return c;
}

// Run one tier's kernels over a case; returns (block, sb, site) buffers.
struct TierResult {
  util::aligned_vector<double> block;
  util::aligned_vector<double> sb;
  util::aligned_vector<double> site;
};

TierResult run_tier(const KernelOps& ops, const BlockCase& c, bool leaf,
                    std::size_t lanes) {
  TierResult r;
  r.block = c.dst_init;
  r.sb.assign(kB, 0.0);
  r.site.assign(kB, 0.0);
  if (leaf) {
    ops.apply_child_assign(r.block.data(), nullptr, c.states.data(),
                           c.p.data(), c.ns);
    ops.apply_child_mul(r.block.data(), nullptr, c.states.data(), c.p.data(),
                        c.ns);
  } else {
    ops.apply_child_assign(r.block.data(), c.child.data(), nullptr,
                           c.p.data(), c.ns);
    ops.apply_child_mul(r.block.data(), c.child.data(), nullptr, c.p.data(),
                        c.ns);
  }
  ops.block_epilogue(r.block.data(), r.sb.data(), c.sl.data(), c.sr.data(),
                     c.ns, lanes);
  ops.root_sites(r.block.data(), c.freqs.data(), c.ns, r.site.data());
  return r;
}

void expect_bits_equal(const util::aligned_vector<double>& a,
                       const util::aligned_vector<double>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << "[" << i << "]: scalar=" << a[i] << " vector=" << b[i];
  }
}

void expect_tiers_match_scalar(const std::vector<IsaTier>& tiers,
                               const BlockCase& c, bool leaf,
                               std::size_t lanes) {
  const TierResult want =
      run_tier(ops_for(IsaTier::kScalar), c, leaf, lanes);
  for (std::size_t t = 1; t < tiers.size(); ++t) {
    SCOPED_TRACE(::testing::Message()
                 << tier_name(tiers[t]) << " ns=" << c.ns << " leaf=" << leaf
                 << " lanes=" << lanes);
    const TierResult got = run_tier(ops_for(tiers[t]), c, leaf, lanes);
    expect_bits_equal(want.block, got.block, "block");
    expect_bits_equal(want.sb, got.sb, "scale");
    expect_bits_equal(want.site, got.site, "site");
  }
}

TEST(Kernels, VectorTiersBitMatchScalarOnRandomBlocks) {
  const auto tiers = supported_tiers();
  if (tiers.size() == 1) GTEST_SKIP() << "host has no vector tier";
  util::Rng rng(20260808);
  // ns=4 hits the unrolled DNA kernels (and the vector shuffle leaf
  // path), ns=20 and 61 the generic ones; scale_mag=1e-110 forces
  // rescales. Every lane count 1..32 runs, so every tail length of the
  // epilogue's lane mask is covered at both vector widths.
  const std::size_t state_counts[] = {4, 20, 61};
  const double magnitudes[] = {1.0, 1e-110};
  for (const std::size_t ns : state_counts) {
    for (const double mag : magnitudes) {
      for (int leaf = 0; leaf < 2; ++leaf) {
        for (std::size_t lanes = 1; lanes <= kB; ++lanes) {
          expect_tiers_match_scalar(tiers, random_case(rng, ns, mag),
                                    leaf != 0, lanes);
        }
      }
    }
  }
}

TEST(Kernels, VectorTiersBitMatchScalarOnEdgeLeafStates) {
  // Leaf blocks whose every lane is missing (every gather lane masked
  // off, every shuffle lane replaced by 1.0) or holds the last state
  // (the highest index the gather and the shuffle read).
  const auto tiers = supported_tiers();
  if (tiers.size() == 1) GTEST_SKIP() << "host has no vector tier";
  util::Rng rng(20261018);
  for (const std::size_t ns : {4u, 20u, 61u}) {
    for (const State fill : {kMissing, static_cast<State>(ns - 1)}) {
      for (const double mag : {1.0, 1e-110}) {
        BlockCase c = random_case(rng, ns, mag);
        c.states.assign(kB, fill);
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{13}, kB}) {
          expect_tiers_match_scalar(tiers, c, /*leaf=*/true, lanes);
        }
      }
    }
  }
}

TEST(Kernels, RelativeAgreementIsAlsoTight) {
  // Belt and braces for readers who distrust bit-compares: relative
  // agreement within 1e-10 (trivially true given bit-identity).
  const auto tiers = supported_tiers();
  if (tiers.size() == 1) GTEST_SKIP() << "host has no vector tier";
  util::Rng rng(7);
  const BlockCase c = random_case(rng, 4, 1.0);
  const TierResult want = run_tier(ops_for(IsaTier::kScalar), c, false, kB);
  for (std::size_t t = 1; t < tiers.size(); ++t) {
    const TierResult got = run_tier(ops_for(tiers[t]), c, false, kB);
    for (std::size_t i = 0; i < want.block.size(); ++i) {
      EXPECT_NEAR(got.block[i] / want.block[i], 1.0, 1e-10);
    }
  }
}

TEST(Kernels, TailBlockPadsNeverTriggerRescale) {
  // A block whose valid lanes are healthy but whose pad lanes are tiny
  // must not rescale: the epilogue's max scan covers valid lanes only.
  for (const IsaTier tier : supported_tiers()) {
    const KernelOps& ops = ops_for(tier);
    const std::size_t ns = 4;
    const std::size_t lanes = 5;
    util::aligned_vector<double> block(ns * kB, 1e-200);
    for (std::size_t x = 0; x < ns; ++x) {
      for (std::size_t i = 0; i < lanes; ++i) block[x * kB + i] = 0.5;
    }
    util::aligned_vector<double> sb(kB, 0.0);
    ops.block_epilogue(block.data(), sb.data(), nullptr, nullptr, ns, lanes);
    EXPECT_EQ(block[0], 0.5) << tier_name(tier);
    EXPECT_EQ(sb[0], 0.0) << tier_name(tier);
    // And the converse: all-valid tiny lanes do rescale.
    util::aligned_vector<double> tiny(ns * kB, 1e-200);
    util::aligned_vector<double> sb2(kB, 0.0);
    ops.block_epilogue(tiny.data(), sb2.data(), nullptr, nullptr, ns, kB);
    EXPECT_EQ(tiny[0], 1.0) << tier_name(tier);
    EXPECT_EQ(sb2[0], std::log(1e-200)) << tier_name(tier);
  }
}

TEST(Kernels, EngineEvaluationBitIdenticalAcrossTiersTwiceOver) {
  util::Rng rng(20260808);
  ModelSpec spec;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = simulate_dataset(12, 171, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  std::vector<double> reference;
  for (const IsaTier tier : supported_tiers()) {
    for (int run = 0; run < 2; ++run) {  // twin runs: per-tier stability
      LikelihoodEngine engine(patterns);
      engine.force_isa(tier);
      EXPECT_STREQ(engine.isa_name(), tier_name(tier));
      std::vector<double> values;
      Tree tree = dataset.tree;
      values.push_back(engine.log_likelihood(tree, model));
      for (int i = 0; i < 6; ++i) {
        const int index = static_cast<int>((7 * i + 1) %
                                           static_cast<int>(tree.n_nodes()));
        if (index != tree.root()) {
          tree.set_branch_length(index,
                                 tree.branch_length(index) * 1.07 + 1e-4);
        }
        values.push_back(engine.log_likelihood(tree, model));
      }
      if (reference.empty()) {
        reference = values;
      } else {
        ASSERT_EQ(reference.size(), values.size());
        for (std::size_t i = 0; i < values.size(); ++i) {
          EXPECT_EQ(std::memcmp(&reference[i], &values[i], sizeof(double)),
                    0)
              << tier_name(tier) << " run " << run << " eval " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// P(t) reconstruction: every tier's reconstruct_pmatrix against the old
// scalar loop, bit for bit.

void expect_same_bytes(const std::vector<double>& want,
                       const std::vector<double>& got, const char* tier,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(double)), 0)
        << tier << " " << what << " [" << i << "]: reference=" << want[i]
        << " kernel=" << got[i];
  }
}

// A random eigensystem in the shape the model builds: eigenvalues <= 0,
// factors of either sign, and about one `left` entry in five an exact zero
// (the old loop skipped those terms).
struct RandomEigensystem {
  std::vector<double> eigenvalues, left, right;
};

RandomEigensystem random_eigensystem(util::Rng& rng, std::size_t n) {
  RandomEigensystem e;
  e.eigenvalues.resize(n);
  e.left.resize(n * n);
  e.right.resize(n * n);
  for (auto& v : e.eigenvalues) v = -3.0 * rng.uniform();
  e.eigenvalues[0] = 0.0;
  for (auto& v : e.left) {
    v = rng.uniform() < 0.2 ? 0.0 : 2.0 * rng.uniform() - 1.0;
  }
  for (auto& v : e.right) v = 2.0 * rng.uniform() - 1.0;
  return e;
}

TEST(PmatrixKernel, EveryTierMatchesReferenceOnRandomEigensystems) {
  util::Rng rng(20261018);
  for (const std::size_t n : {4u, 20u, 61u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const RandomEigensystem e = random_eigensystem(rng, n);
      // t = 0 (every exponential 1), ordinary t, and a large t·rate that
      // underflows all but the stationary exponential to zero.
      for (const double t : {0.0, 0.05, 0.7, 5000.0}) {
        std::vector<double> exp_lt(n);
        for (std::size_t k = 0; k < n; ++k) {
          exp_lt[k] = std::exp(e.eigenvalues[k] * t);
        }
        std::vector<double> want(n * n);
        reference::pmatrix_product(e.left, e.right, exp_lt, n, want);
        for (const IsaTier tier : supported_tiers()) {
          std::vector<double> got(n * n, -1.0);
          ops_for(tier).reconstruct_pmatrix(e.left.data(), e.right.data(),
                                            exp_lt.data(), n, got.data());
          expect_same_bytes(want, got, tier_name(tier),
                            "n=" + std::to_string(n) +
                                " t=" + std::to_string(t));
        }
      }
    }
  }
}

TEST(PmatrixKernel, EveryTierMatchesReferenceOnCompiledModels) {
  std::vector<ModelSpec> specs;
  for (const NucModel nuc : {NucModel::kJC69, NucModel::kHKY85,
                             NucModel::kGTR}) {
    ModelSpec spec;
    spec.nuc_model = nuc;
    spec.base_frequencies = {0.1, 0.2, 0.3, 0.4};
    spec.gtr_rates = {1.3, 4.1, 0.7, 1.1, 3.2, 1.0};
    specs.push_back(spec);
  }
  for (const AaModel aa : {AaModel::kPoisson, AaModel::kChemClass}) {
    ModelSpec spec;
    spec.data_type = DataType::kAminoAcid;
    spec.aa_model = aa;
    spec.kappa = 3.5;
    specs.push_back(spec);
  }
  {
    ModelSpec spec;
    spec.data_type = DataType::kCodon;
    spec.kappa = 2.7;
    spec.omega = 0.35;
    spec.base_frequencies = {0.22, 0.28, 0.31, 0.19};
    specs.push_back(spec);
  }
  for (const ModelSpec& spec : specs) {
    const SubstitutionModel model(spec);
    const auto e = model.eigensystem();
    const std::size_t nn = model.n_states() * model.n_states();
    for (const double length : {0.0, 1e-8, 0.01, 0.1, 1.0, 80.0}) {
      for (const double rate : {0.0, 0.3, 1.0, 7.5}) {
        std::vector<double> want(nn);
        reference::transition_matrix(e.eigenvalues, e.left, e.right, length,
                                     rate, want);
        for (const IsaTier tier : supported_tiers()) {
          std::vector<double> got(nn, -1.0);
          model.transition_matrix(length, rate, got, ops_for(tier));
          expect_same_bytes(want, got, tier_name(tier),
                            spec.name() + " t=" + std::to_string(length) +
                                " r=" + std::to_string(rate));
        }
      }
    }
  }
}

TEST(Kernels, ParseTierIsStrict) {
  EXPECT_EQ(parse_tier("scalar"), IsaTier::kScalar);
  EXPECT_EQ(parse_tier("avx2"), IsaTier::kAvx2);
  EXPECT_EQ(parse_tier("avx512"), IsaTier::kAvx512);
  EXPECT_THROW(parse_tier(""), std::invalid_argument);
  EXPECT_THROW(parse_tier("AVX2"), std::invalid_argument);
  EXPECT_THROW(parse_tier("sse2"), std::invalid_argument);
}

TEST(Kernels, OpsForClampsToSupportedTier) {
  // Whatever the host, asking for any tier must return a usable table
  // whose name matches a supported tier.
  for (const IsaTier want :
       {IsaTier::kScalar, IsaTier::kAvx2, IsaTier::kAvx512}) {
    const KernelOps& ops = ops_for(want);
    EXPECT_NE(ops.name, nullptr);
    EXPECT_TRUE(tier_supported(parse_tier(ops.name)));
    if (tier_supported(want)) {
      EXPECT_STREQ(ops.name, tier_name(want));
    }
  }
  EXPECT_STREQ(ops_for(IsaTier::kScalar).name, "scalar");
}

TEST(Kernels, AlignedVectorsAreCacheLineAligned) {
  for (std::size_t n : {1, 7, 64, 1000}) {
    util::aligned_vector<double> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  }
}

}  // namespace
}  // namespace lattice::phylo::kernels
