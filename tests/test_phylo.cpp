// Tests for the phylogenetics engine: alphabets and the genetic code,
// alignment parsing and pattern compression, tree structure and moves,
// eigen math, substitution models (analytic checks against closed forms),
// the pruning likelihood, optimization, simulation round trips, and the
// genetic-algorithm search with checkpoint/restore.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "phylo/alignment.hpp"
#include "phylo/datatype.hpp"
#include "phylo/garli.hpp"
#include "phylo/ga.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/linalg.hpp"
#include "phylo/model.hpp"
#include "phylo/optimize.hpp"
#include "phylo/simulate.hpp"
#include "phylo/tree.hpp"
#include "util/rng.hpp"

namespace lattice::phylo {
namespace {

std::vector<std::string> names4{"A", "B", "C", "D"};

// ---------------------------------------------------------------------------
// Alphabets / genetic code

TEST(DataTypes, StateCounts) {
  EXPECT_EQ(state_count(DataType::kNucleotide), 4u);
  EXPECT_EQ(state_count(DataType::kAminoAcid), 20u);
  EXPECT_EQ(state_count(DataType::kCodon), 61u);
}

TEST(DataTypes, NucleotideEncoding) {
  EXPECT_EQ(encode_nucleotide('A'), 0);
  EXPECT_EQ(encode_nucleotide('c'), 1);
  EXPECT_EQ(encode_nucleotide('G'), 2);
  EXPECT_EQ(encode_nucleotide('U'), 3);
  EXPECT_EQ(encode_nucleotide('-'), kMissing);
  EXPECT_EQ(encode_nucleotide('N'), kMissing);
  EXPECT_EQ(decode_nucleotide(2), 'G');
}

TEST(DataTypes, AminoAcidEncodingRoundTrip) {
  for (State s = 0; s < 20; ++s) {
    EXPECT_EQ(encode_amino_acid(decode_amino_acid(s)), s);
  }
  EXPECT_EQ(encode_amino_acid('X'), kMissing);
  EXPECT_EQ(encode_amino_acid('-'), kMissing);
}

TEST(GeneticCodeTest, SixtyOneSenseCodons) {
  const auto& code = GeneticCode::standard();
  std::set<State> states;
  int stops = 0;
  for (std::size_t packed = 0; packed < 64; ++packed) {
    if (code.codon_state[packed] == kMissing) {
      ++stops;
    } else {
      states.insert(code.codon_state[packed]);
    }
  }
  EXPECT_EQ(stops, 3);
  EXPECT_EQ(states.size(), 61u);
}

TEST(GeneticCodeTest, KnownTranslations) {
  // ATG -> Met, TGG -> Trp, GGG -> Gly; TAA/TAG/TGA are stops.
  const State atg = encode_codon('A', 'T', 'G');
  ASSERT_NE(atg, kMissing);
  EXPECT_EQ(GeneticCode::standard().codon_aa[static_cast<std::size_t>(atg)],
            encode_amino_acid('M'));
  const State tgg = encode_codon('T', 'G', 'G');
  EXPECT_EQ(GeneticCode::standard().codon_aa[static_cast<std::size_t>(tgg)],
            encode_amino_acid('W'));
  EXPECT_EQ(encode_codon('T', 'A', 'A'), kMissing);
  EXPECT_EQ(encode_codon('T', 'A', 'G'), kMissing);
  EXPECT_EQ(encode_codon('T', 'G', 'A'), kMissing);
}

TEST(GeneticCodeTest, CodonRoundTrip) {
  for (State s = 0; s < 61; ++s) {
    const std::string nucs = decode_codon(s);
    EXPECT_EQ(encode_codon(nucs[0], nucs[1], nucs[2]), s);
  }
}

TEST(GeneticCodeTest, DifferencesAndTransitions) {
  const State aaa = encode_codon('A', 'A', 'A');  // Lys
  const State aag = encode_codon('A', 'A', 'G');  // Lys
  const State aac = encode_codon('A', 'A', 'C');  // Asn
  EXPECT_EQ(codon_differences(aaa, aag), 1);
  EXPECT_TRUE(codon_single_diff_is_transition(aaa, aag));   // A<->G
  EXPECT_FALSE(codon_single_diff_is_transition(aaa, aac));  // A<->C
  EXPECT_TRUE(codon_synonymous(aaa, aag));
  EXPECT_FALSE(codon_synonymous(aaa, aac));
  EXPECT_EQ(codon_differences(aaa, encode_codon('C', 'C', 'C')), 3);
}

// ---------------------------------------------------------------------------
// Alignment

TEST(AlignmentTest, FastaParsing) {
  const auto alignment = Alignment::parse_fasta(
      ">A desc\nACGT\n>B\nAC-T\n>C\nACGA\n>D\nTCGA\n",
      DataType::kNucleotide);
  EXPECT_EQ(alignment.n_taxa(), 4u);
  EXPECT_EQ(alignment.n_sites(), 4u);
  EXPECT_EQ(alignment.taxon_name(0), "A");
  EXPECT_EQ(alignment.state(1, 2), kMissing);
  EXPECT_EQ(alignment.state(3, 0), 3);  // T
}

TEST(AlignmentTest, FastaErrors) {
  EXPECT_THROW(Alignment::parse_fasta("", DataType::kNucleotide),
               std::runtime_error);
  EXPECT_THROW(Alignment::parse_fasta("ACGT\n", DataType::kNucleotide),
               std::runtime_error);
  EXPECT_THROW(
      Alignment::parse_fasta(">A\nACGT\n>B\nAC\n", DataType::kNucleotide),
      std::runtime_error);
  EXPECT_THROW(Alignment::parse_fasta(">\nACGT\n", DataType::kNucleotide),
               std::runtime_error);
}

TEST(AlignmentTest, PhylipParsing) {
  const auto alignment = Alignment::parse_phylip(
      "4 4\nA ACGT\nB ACGT\nC AC GT\nD ACGT\n", DataType::kNucleotide);
  EXPECT_EQ(alignment.n_taxa(), 4u);
  EXPECT_EQ(alignment.n_sites(), 4u);
  EXPECT_EQ(alignment.state(2, 3), 3);
}

TEST(AlignmentTest, PhylipErrors) {
  EXPECT_THROW(Alignment::parse_phylip("x", DataType::kNucleotide),
               std::runtime_error);
  EXPECT_THROW(Alignment::parse_phylip("2 4\nA ACGT\n", DataType::kNucleotide),
               std::runtime_error);
  EXPECT_THROW(
      Alignment::parse_phylip("1 4\nA AC\n", DataType::kNucleotide),
      std::runtime_error);
}

TEST(AlignmentTest, CodonEncodingDropsStops) {
  const auto alignment = Alignment::parse_fasta(
      ">A\nATGTAA\n>B\nATGAAA\n", DataType::kCodon);
  EXPECT_EQ(alignment.n_sites(), 2u);
  EXPECT_EQ(alignment.state(0, 1), kMissing);  // TAA is a stop
  EXPECT_NE(alignment.state(1, 1), kMissing);
}

TEST(AlignmentTest, CodonLengthMustBeTriple) {
  EXPECT_THROW(Alignment::parse_fasta(">A\nACGTA\n", DataType::kCodon),
               std::runtime_error);
}

TEST(AlignmentTest, DuplicateTaxonRejected) {
  Alignment alignment(DataType::kNucleotide, 2);
  alignment.add_taxon("A", {0, 1});
  EXPECT_THROW(alignment.add_taxon("A", {0, 1}), std::invalid_argument);
}

TEST(AlignmentTest, FastaRoundTrip) {
  const auto alignment = Alignment::parse_fasta(
      ">A\nACGT\n>B\nAC-T\n", DataType::kNucleotide);
  const auto reparsed =
      Alignment::parse_fasta(alignment.to_fasta(), DataType::kNucleotide);
  EXPECT_EQ(reparsed.n_taxa(), 2u);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(reparsed.state(t, s), alignment.state(t, s));
    }
  }
}

TEST(AlignmentTest, MissingFraction) {
  const auto alignment = Alignment::parse_fasta(
      ">A\nAC-T\n>B\n----\n", DataType::kNucleotide);
  EXPECT_DOUBLE_EQ(alignment.missing_fraction(), 5.0 / 8.0);
}

TEST(AlignmentTest, BootstrapPreservesShape) {
  util::Rng rng(1);
  const auto alignment = Alignment::parse_fasta(
      ">A\nACGTACGT\n>B\nACGTTTTT\n>C\nAAAAACGT\n>D\nTTTTACGT\n",
      DataType::kNucleotide);
  const auto resampled = alignment.bootstrap_resample(rng);
  EXPECT_EQ(resampled.n_taxa(), 4u);
  EXPECT_EQ(resampled.n_sites(), 8u);
  // Every resampled column must be one of the original columns.
  for (std::size_t s = 0; s < 8; ++s) {
    bool found = false;
    for (std::size_t orig = 0; orig < 8 && !found; ++orig) {
      bool all = true;
      for (std::size_t t = 0; t < 4; ++t) {
        if (resampled.state(t, s) != alignment.state(t, orig)) all = false;
      }
      found = all;
    }
    EXPECT_TRUE(found);
  }
}

TEST(AlignmentTest, NexusSequentialParsing) {
  const auto alignment = Alignment::parse_nexus(R"(#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=3 NCHAR=8;
  FORMAT DATATYPE=DNA MISSING=? GAP=-;
  MATRIX
    alpha ACGTACGT
    beta  ACGT-CGT
    gamma AC?TACGA
  ;
END;
)");
  EXPECT_EQ(alignment.data_type(), DataType::kNucleotide);
  EXPECT_EQ(alignment.n_taxa(), 3u);
  EXPECT_EQ(alignment.n_sites(), 8u);
  EXPECT_EQ(alignment.state(1, 4), kMissing);  // gap
  EXPECT_EQ(alignment.state(2, 2), kMissing);  // '?'
  EXPECT_EQ(alignment.taxon_name(2), "gamma");
}

TEST(AlignmentTest, NexusInterleavedParsing) {
  const auto alignment = Alignment::parse_nexus(R"(#NEXUS
begin characters;
  dimensions ntax=2 nchar=8;
  format datatype=protein interleave=yes;
  matrix
    one  ACDE
    two  FGHI

    one  KLMN
    two  PQRS
  ;
end;
)");
  EXPECT_EQ(alignment.data_type(), DataType::kAminoAcid);
  EXPECT_EQ(alignment.n_taxa(), 2u);
  EXPECT_EQ(alignment.n_sites(), 8u);
  EXPECT_EQ(alignment.state(0, 4), encode_amino_acid('K'));
}

TEST(AlignmentTest, NexusCommentsAndTypeOverride) {
  // NCHAR counts raw characters; the codon override re-encodes triplets.
  const auto alignment = Alignment::parse_nexus(R"(#NEXUS
BEGIN DATA; [a comment]
  DIMENSIONS NTAX=2 NCHAR=6;
  FORMAT DATATYPE=DNA;
  MATRIX
    a ATGAAA [another comment]
    b ATGAAG
  ;
END;
)",
                                                DataType::kCodon);
  EXPECT_EQ(alignment.data_type(), DataType::kCodon);
  EXPECT_EQ(alignment.n_sites(), 2u);
  EXPECT_EQ(alignment.state(0, 0), encode_codon('A', 'T', 'G'));
}

TEST(AlignmentTest, NexusErrors) {
  EXPECT_THROW(Alignment::parse_nexus("not nexus"), std::runtime_error);
  EXPECT_THROW(Alignment::parse_nexus("#NEXUS\nBEGIN DATA;\nEND;\n"),
               std::runtime_error);
  // NTAX mismatch.
  EXPECT_THROW(Alignment::parse_nexus(R"(#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=3 NCHAR=4;
  MATRIX
    a ACGT
    b ACGT
  ;
END;
)"),
               std::runtime_error);
  // NCHAR mismatch.
  EXPECT_THROW(Alignment::parse_nexus(R"(#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=2 NCHAR=5;
  MATRIX
    a ACGT
    b ACGT
  ;
END;
)"),
               std::runtime_error);
  // Unsupported datatype keyword.
  EXPECT_THROW(Alignment::parse_nexus(R"(#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=2 NCHAR=4;
  FORMAT DATATYPE=STANDARD;
  MATRIX
    a 0101
    b 1010
  ;
END;
)"),
               std::runtime_error);
}

TEST(PatternizedTest, CompressesDuplicateColumns) {
  const auto alignment = Alignment::parse_fasta(
      ">A\nAAAC\n>B\nAAAC\n>C\nAAAG\n>D\nAAAG\n", DataType::kNucleotide);
  const PatternizedAlignment patterns(alignment);
  EXPECT_EQ(patterns.n_patterns(), 2u);
  EXPECT_EQ(patterns.n_sites(), 4u);
  double total_weight = 0.0;
  for (std::size_t p = 0; p < patterns.n_patterns(); ++p) {
    total_weight += patterns.weight(p);
  }
  EXPECT_DOUBLE_EQ(total_weight, 4.0);
}

// ---------------------------------------------------------------------------
// Tree

TEST(TreeTest, RandomTreeIsValid) {
  util::Rng rng(1);
  for (std::size_t n : {2u, 3u, 5u, 10u, 40u}) {
    const Tree tree = Tree::random(n, rng);
    EXPECT_EQ(tree.n_leaves(), n);
    EXPECT_EQ(tree.n_nodes(), 2 * n - 1);
    EXPECT_TRUE(tree.check_valid());
  }
}

TEST(TreeTest, NewickRoundTrip) {
  util::Rng rng(2);
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) names.push_back("taxon" + std::to_string(i));
  const Tree tree = Tree::random(names.size(), rng);
  const std::string newick = tree.to_newick(names);
  const Tree reparsed = Tree::parse_newick(newick, names);
  EXPECT_EQ(Tree::robinson_foulds(tree, reparsed), 0u);
  EXPECT_NEAR(tree.tree_length(), reparsed.tree_length(), 1e-6);
}

TEST(TreeTest, ParseHandlesTrifurcatingRoot) {
  const Tree tree =
      Tree::parse_newick("(A:1,B:2,(C:1,D:1):0.5);", names4);
  EXPECT_TRUE(tree.check_valid());
  EXPECT_EQ(tree.n_leaves(), 4u);
}

TEST(TreeTest, ParseErrors) {
  EXPECT_THROW(Tree::parse_newick("(A,B", names4), std::runtime_error);
  EXPECT_THROW(Tree::parse_newick("(A,B,C,Z);", names4), std::runtime_error);
  EXPECT_THROW(Tree::parse_newick("(A,B,C);", names4), std::runtime_error);
  EXPECT_THROW(Tree::parse_newick("(A,A,C,D);", names4), std::runtime_error);
}

TEST(TreeTest, PostorderVisitsChildrenFirst) {
  util::Rng rng(3);
  const Tree tree = Tree::random(20, rng);
  std::vector<bool> seen(tree.n_nodes(), false);
  for (const int index : tree.postorder()) {
    if (!tree.is_leaf(index)) {
      EXPECT_TRUE(seen[static_cast<std::size_t>(tree.node(index).left)]);
      EXPECT_TRUE(seen[static_cast<std::size_t>(tree.node(index).right)]);
    }
    seen[static_cast<std::size_t>(index)] = true;
  }
  EXPECT_EQ(tree.postorder().back(), tree.root());
}

TEST(TreeTest, NniChangesTopologyByTwo) {
  util::Rng rng(4);
  const Tree original = Tree::random(10, rng);
  const auto internals = original.internal_edge_nodes();
  ASSERT_FALSE(internals.empty());
  Tree mutated = original;
  mutated.nni(internals.front(), 0);
  EXPECT_TRUE(mutated.check_valid());
  EXPECT_EQ(Tree::robinson_foulds(original, mutated), 2u);
}

TEST(TreeTest, NniTwiceRestoresTopology) {
  util::Rng rng(5);
  const Tree original = Tree::random(8, rng);
  const auto internals = original.internal_edge_nodes();
  Tree mutated = original;
  mutated.nni(internals.front(), 1);
  mutated.nni(internals.front(), 1);
  EXPECT_EQ(Tree::robinson_foulds(original, mutated), 0u);
}

TEST(TreeTest, SprProducesValidTree) {
  util::Rng rng(6);
  int successes = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Tree tree = Tree::random(12, rng);
    const int prune = static_cast<int>(rng.below(tree.n_nodes()));
    const int graft = static_cast<int>(rng.below(tree.n_nodes()));
    if (tree.spr(prune, graft)) {
      ++successes;
      EXPECT_TRUE(tree.check_valid());
      EXPECT_EQ(tree.n_nodes(), 23u);
    }
  }
  EXPECT_GT(successes, 50);
}

TEST(TreeTest, SprRejectsDegenerateMoves) {
  util::Rng rng(7);
  Tree tree = Tree::random(6, rng);
  EXPECT_FALSE(tree.spr(tree.root(), 0));
  EXPECT_FALSE(tree.spr(0, tree.root()));
  EXPECT_FALSE(tree.spr(0, 0));
}

TEST(TreeTest, RobinsonFouldsIdenticalIsZero) {
  util::Rng rng(8);
  const Tree tree = Tree::random(15, rng);
  EXPECT_EQ(Tree::robinson_foulds(tree, tree), 0u);
}

TEST(TreeTest, RobinsonFouldsDisjointCaterpillars) {
  // Maximally different trees on 8 taxa approach the 2*(n-3) bound.
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) names.push_back("t" + std::to_string(i));
  const Tree a = Tree::parse_newick(
      "(((((((t0,t1),t2),t3),t4),t5),t6),t7);", names);
  const Tree b = Tree::parse_newick(
      "(((((((t0,t7),t3),t6),t1),t5),t2),t4);", names);
  EXPECT_GT(Tree::robinson_foulds(a, b), 6u);
}

TEST(TreeTest, BranchLengthValidation) {
  util::Rng rng(9);
  Tree tree = Tree::random(4, rng);
  EXPECT_THROW(tree.set_branch_length(0, -1.0), std::invalid_argument);
  tree.set_branch_length(0, 0.42);
  EXPECT_DOUBLE_EQ(tree.branch_length(0), 0.42);
}

TEST(TreeTest, LargeTreeSixtyFivePlusTaxaBipartitions) {
  // Exercises the multi-word bitset path in Robinson-Foulds.
  util::Rng rng(10);
  const Tree a = Tree::random(70, rng);
  Tree b = a;
  const auto internals = b.internal_edge_nodes();
  b.nni(internals[internals.size() / 2], 0);
  EXPECT_EQ(Tree::robinson_foulds(a, a), 0u);
  EXPECT_EQ(Tree::robinson_foulds(a, b), 2u);
}

// ---------------------------------------------------------------------------
// Linear algebra

TEST(Linalg, EigenOfDiagonalMatrix) {
  const std::vector<double> m{3.0, 0.0, 0.0, 1.0};
  const auto eigen = symmetric_eigen(m, 2);
  EXPECT_NEAR(eigen.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eigen.values[1], 3.0, 1e-12);
}

TEST(Linalg, EigenReconstructsMatrix) {
  util::Rng rng(11);
  const std::size_t n = 8;
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      m[i * n + j] = m[j * n + i] = rng.normal();
    }
  }
  const auto eigen = symmetric_eigen(m, n);
  // Reconstruct A = V diag(values) V^T.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += eigen.vectors[i * n + k] * eigen.values[k] *
               eigen.vectors[j * n + k];
      }
      EXPECT_NEAR(sum, m[i * n + j], 1e-9);
    }
  }
}

TEST(Linalg, EigenVectorsOrthonormal) {
  util::Rng rng(12);
  const std::size_t n = 6;
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      m[i * n + j] = m[j * n + i] = rng.uniform();
    }
  }
  const auto eigen = symmetric_eigen(m, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += eigen.vectors[i * n + a] * eigen.vectors[i * n + b];
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Linalg, SizeMismatchThrows) {
  EXPECT_THROW(symmetric_eigen(std::vector<double>{1.0, 2.0}, 2),
               std::invalid_argument);
}

TEST(Linalg, MatmulIdentity) {
  const std::vector<double> identity{1, 0, 0, 1};
  const std::vector<double> m{1, 2, 3, 4};
  std::vector<double> out(4);
  matmul(m, identity, out, 2);
  EXPECT_EQ(out, m);
}

// ---------------------------------------------------------------------------
// Models

TEST(Gamma, RegularizedIncompleteGammaKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 3.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
  EXPECT_NEAR(regularized_gamma_p(0.5, 1e9), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
}

TEST(Gamma, DiscreteRatesHaveMeanOneAndIncrease) {
  for (double alpha : {0.1, 0.5, 1.0, 5.0}) {
    for (std::size_t k : {2u, 4u, 8u}) {
      const auto rates = discrete_gamma_rates(alpha, k);
      ASSERT_EQ(rates.size(), k);
      double mean = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        mean += rates[i];
        if (i > 0) {
          EXPECT_GT(rates[i], rates[i - 1]);
        }
      }
      EXPECT_NEAR(mean / static_cast<double>(k), 1.0, 1e-9);
    }
  }
}

TEST(Gamma, LargeAlphaApproachesEqualRates) {
  const auto rates = discrete_gamma_rates(200.0, 4);
  for (double r : rates) EXPECT_NEAR(r, 1.0, 0.1);
}

TEST(ModelSpecTest, ValidationCatchesBadParameters) {
  ModelSpec spec;
  spec.kappa = -1.0;
  EXPECT_TRUE(spec.validate().has_value());
  spec = ModelSpec{};
  spec.base_frequencies = {0.5, 0.5, 0.5, 0.5};
  EXPECT_TRUE(spec.validate().has_value());
  spec = ModelSpec{};
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 1;
  EXPECT_TRUE(spec.validate().has_value());
  spec = ModelSpec{};
  spec.rate_het = RateHet::kGammaInvariant;
  spec.proportion_invariant = 1.5;
  EXPECT_TRUE(spec.validate().has_value());
  EXPECT_FALSE(ModelSpec{}.validate().has_value());
}

TEST(ModelSpecTest, FreeRateParameters) {
  ModelSpec spec;
  spec.nuc_model = NucModel::kJC69;
  EXPECT_EQ(spec.free_rate_parameters(), 0u);
  spec.nuc_model = NucModel::kGTR;
  EXPECT_EQ(spec.free_rate_parameters(), 5u);
  spec.data_type = DataType::kCodon;
  EXPECT_EQ(spec.free_rate_parameters(), 2u);
}

TEST(ModelSpecTest, Names) {
  ModelSpec spec;
  spec.nuc_model = NucModel::kGTR;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 4;
  EXPECT_EQ(spec.name(), "GTR+G4");
  spec.rate_het = RateHet::kGammaInvariant;
  EXPECT_EQ(spec.name(), "GTR+I+G4");
}

TEST(ModelTest, TransitionMatrixRowsSumToOne) {
  for (DataType type :
       {DataType::kNucleotide, DataType::kAminoAcid, DataType::kCodon}) {
    ModelSpec spec;
    spec.data_type = type;
    const SubstitutionModel model(spec);
    const std::size_t n = model.n_states();
    std::vector<double> p(n * n);
    for (double t : {0.01, 0.1, 1.0, 5.0}) {
      model.transition_matrix(t, 1.0, p);
      for (std::size_t i = 0; i < n; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < n; ++j) row += p[i * n + j];
        EXPECT_NEAR(row, 1.0, 1e-8);
      }
    }
  }
}

TEST(ModelTest, ZeroTimeIsIdentity) {
  const SubstitutionModel model(ModelSpec{});
  std::vector<double> p(16);
  model.transition_matrix(0.0, 1.0, p);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(p[i * 4 + j], i == j ? 1.0 : 0.0);
    }
  }
}

TEST(ModelTest, LongTimeApproachesEquilibrium) {
  ModelSpec spec;
  spec.nuc_model = NucModel::kHKY85;
  spec.base_frequencies = {0.1, 0.2, 0.3, 0.4};
  const SubstitutionModel model(spec);
  std::vector<double> p(16);
  model.transition_matrix(500.0, 1.0, p);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(p[i * 4 + j], spec.base_frequencies[j], 1e-6);
    }
  }
}

TEST(ModelTest, Jc69MatchesClosedForm) {
  ModelSpec spec;
  spec.nuc_model = NucModel::kJC69;
  const SubstitutionModel model(spec);
  std::vector<double> p(16);
  for (double t : {0.05, 0.2, 0.8}) {
    model.transition_matrix(t, 1.0, p);
    const double same = 0.25 + 0.75 * std::exp(-4.0 * t / 3.0);
    const double diff = 0.25 - 0.25 * std::exp(-4.0 * t / 3.0);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(p[i * 4 + j], i == j ? same : diff, 1e-10);
      }
    }
  }
}

TEST(ModelTest, DetailedBalanceHolds) {
  ModelSpec spec;
  spec.nuc_model = NucModel::kGTR;
  spec.gtr_rates = {1.2, 3.1, 0.7, 0.9, 3.6, 1.0};
  spec.base_frequencies = {0.35, 0.15, 0.2, 0.3};
  const SubstitutionModel model(spec);
  std::vector<double> p(16);
  model.transition_matrix(0.3, 1.0, p);
  const auto freqs = model.frequencies();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(freqs[i] * p[i * 4 + j], freqs[j] * p[j * 4 + i], 1e-10);
    }
  }
}

TEST(ModelTest, ChapmanKolmogorov) {
  ModelSpec spec;
  spec.nuc_model = NucModel::kHKY85;
  spec.kappa = 3.0;
  spec.base_frequencies = {0.3, 0.2, 0.2, 0.3};
  const SubstitutionModel model(spec);
  std::vector<double> p1(16);
  std::vector<double> p2(16);
  std::vector<double> p12(16);
  std::vector<double> composed(16);
  model.transition_matrix(0.2, 1.0, p1);
  model.transition_matrix(0.5, 1.0, p2);
  model.transition_matrix(0.7, 1.0, p12);
  matmul(p1, p2, composed, 4);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(composed[i], p12[i], 1e-9);
  }
}

TEST(ModelTest, RateCategoriesNormalized) {
  ModelSpec spec;
  spec.rate_het = RateHet::kGammaInvariant;
  spec.n_rate_categories = 4;
  spec.gamma_alpha = 0.7;
  spec.proportion_invariant = 0.2;
  const SubstitutionModel model(spec);
  const auto cats = model.categories();
  EXPECT_EQ(cats.size(), 5u);  // invariant + 4 gamma
  EXPECT_DOUBLE_EQ(cats[0].rate, 0.0);
  double weight = 0.0;
  double mean_rate = 0.0;
  for (const auto& cat : cats) {
    weight += cat.weight;
    mean_rate += cat.weight * cat.rate;
  }
  EXPECT_NEAR(weight, 1.0, 1e-12);
  EXPECT_NEAR(mean_rate, 1.0, 1e-9);
}

TEST(ModelTest, CodonFrequenciesFollowF1x4) {
  ModelSpec spec;
  spec.data_type = DataType::kCodon;
  spec.base_frequencies = {0.4, 0.1, 0.2, 0.3};
  const SubstitutionModel model(spec);
  const auto freqs = model.frequencies();
  double total = 0.0;
  for (double f : freqs) total += f;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // AAA should be the most frequent codon given A has the top base freq.
  const auto aaa = static_cast<std::size_t>(encode_codon('A', 'A', 'A'));
  for (std::size_t s = 0; s < 61; ++s) {
    EXPECT_LE(freqs[s], freqs[aaa] + 1e-15);
  }
}

// ---------------------------------------------------------------------------
// Likelihood

TEST(Likelihood, TwoTaxonJc69MatchesAnalytic) {
  // L(site) for two taxa at distance t under JC69:
  //   same state: 0.25 * (0.25 + 0.75 e^{-4t/3})
  //   diff state: 0.25 * (0.25 - 0.25 e^{-4t/3})
  Alignment alignment(DataType::kNucleotide, 2);
  alignment.add_taxon("L", {0, 0});  // A A
  alignment.add_taxon("R", {0, 1});  // A C
  const PatternizedAlignment patterns(alignment);
  LikelihoodEngine engine(patterns);

  ModelSpec spec;
  spec.nuc_model = NucModel::kJC69;
  const SubstitutionModel model(spec);

  std::vector<std::string> names{"L", "R"};
  const Tree tree = Tree::parse_newick("(L:0.1,R:0.2);", names);
  const double t = 0.3;
  const double same = 0.25 * (0.25 + 0.75 * std::exp(-4.0 * t / 3.0));
  const double diff = 0.25 * (0.25 - 0.25 * std::exp(-4.0 * t / 3.0));
  EXPECT_NEAR(engine.log_likelihood(tree, model),
              std::log(same) + std::log(diff), 1e-9);
}

TEST(Likelihood, PulleyPrinciple) {
  // Likelihood depends only on the sum of the two root branch lengths for
  // reversible models.
  Alignment alignment(DataType::kNucleotide, 3);
  alignment.add_taxon("L", {0, 1, 2});
  alignment.add_taxon("R", {0, 1, 3});
  alignment.add_taxon("M", {1, 1, 2});
  const PatternizedAlignment patterns(alignment);
  LikelihoodEngine engine(patterns);
  ModelSpec spec;
  spec.nuc_model = NucModel::kHKY85;
  spec.kappa = 2.5;
  const SubstitutionModel model(spec);
  std::vector<std::string> names{"L", "R", "M"};
  const Tree a = Tree::parse_newick("((L:0.1,M:0.2):0.05,R:0.25);", names);
  const Tree b = Tree::parse_newick("((L:0.1,M:0.2):0.15,R:0.15);", names);
  EXPECT_NEAR(engine.log_likelihood(a, model),
              engine.log_likelihood(b, model), 1e-9);
}

TEST(Likelihood, MissingDataIsNeutral) {
  // A taxon of all-missing data on a zero-length branch must not change
  // the likelihood contribution of the others.
  Alignment with(DataType::kNucleotide, 2);
  with.add_taxon("A", {0, 1});
  with.add_taxon("B", {0, 2});
  with.add_taxon("C", {kMissing, kMissing});
  const PatternizedAlignment patterns3(with);
  LikelihoodEngine engine3(patterns3);

  Alignment without(DataType::kNucleotide, 2);
  without.add_taxon("A", {0, 1});
  without.add_taxon("B", {0, 2});
  const PatternizedAlignment patterns2(without);
  LikelihoodEngine engine2(patterns2);

  const SubstitutionModel model{ModelSpec{}};
  std::vector<std::string> names3{"A", "B", "C"};
  std::vector<std::string> names2{"A", "B"};
  const Tree t3 =
      Tree::parse_newick("((A:0.1,B:0.2):0.0,C:0.0);", names3);
  const Tree t2 = Tree::parse_newick("(A:0.1,B:0.2);", names2);
  EXPECT_NEAR(engine3.log_likelihood(t3, model),
              engine2.log_likelihood(t2, model), 1e-9);
}

TEST(Likelihood, GammaMixImprovesFitOnHeterogeneousData) {
  // Simulate under strong rate heterogeneity; the gamma model should fit
  // better than the equal-rates model on the same tree.
  util::Rng rng(21);
  ModelSpec truth;
  truth.rate_het = RateHet::kGamma;
  truth.gamma_alpha = 0.3;
  truth.n_rate_categories = 4;
  const auto dataset = simulate_dataset(8, 600, truth, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  LikelihoodEngine engine(patterns);
  ModelSpec flat;
  flat.rate_het = RateHet::kNone;
  const double lnl_flat =
      engine.log_likelihood(dataset.tree, SubstitutionModel(flat));
  const double lnl_gamma =
      engine.log_likelihood(dataset.tree, SubstitutionModel(truth));
  EXPECT_GT(lnl_gamma, lnl_flat);
}

TEST(Likelihood, ScalingHandlesLongTrees) {
  // Many taxa and long branches would underflow without rescaling.
  util::Rng rng(22);
  const Tree tree = Tree::random(60, rng, 1.2);
  ModelSpec spec;
  const SubstitutionModel model(spec);
  const Alignment alignment = simulate_alignment(tree, model, 50, rng);
  const PatternizedAlignment patterns(alignment);
  LikelihoodEngine engine(patterns);
  const double lnl = engine.log_likelihood(tree, model);
  EXPECT_TRUE(std::isfinite(lnl));
  EXPECT_LT(lnl, 0.0);
}

TEST(Likelihood, MismatchesRejected) {
  Alignment alignment(DataType::kNucleotide, 1);
  alignment.add_taxon("A", {0});
  alignment.add_taxon("B", {1});
  const PatternizedAlignment patterns(alignment);
  LikelihoodEngine engine(patterns);
  util::Rng rng(23);
  const Tree wrong_size = Tree::random(5, rng);
  EXPECT_THROW(
      engine.log_likelihood(wrong_size, SubstitutionModel(ModelSpec{})),
      std::invalid_argument);
  ModelSpec aa;
  aa.data_type = DataType::kAminoAcid;
  const Tree right_size = Tree::random(2, rng);
  EXPECT_THROW(engine.log_likelihood(right_size, SubstitutionModel(aa)),
               std::invalid_argument);
}

TEST(Likelihood, TrueTreeBeatsRandomTree) {
  util::Rng rng(24);
  ModelSpec spec;
  const auto dataset = simulate_dataset(10, 800, spec, rng, 0.12);
  const PatternizedAlignment patterns(dataset.alignment);
  LikelihoodEngine engine(patterns);
  const SubstitutionModel model(spec);
  const double lnl_true = engine.log_likelihood(dataset.tree, model);
  double best_random = -1e300;
  for (int i = 0; i < 5; ++i) {
    const Tree random_tree = Tree::random(10, rng, 0.12);
    best_random = std::max(best_random,
                           engine.log_likelihood(random_tree, model));
  }
  EXPECT_GT(lnl_true, best_random);
}

// ---------------------------------------------------------------------------
// Optimization

TEST(Brent, FindsQuadraticMinimum) {
  const auto result = brent_minimize(
      [](double x) { return (x - 2.0) * (x - 2.0) + 1.0; }, -10.0, 10.0);
  EXPECT_NEAR(result.x, 2.0, 1e-4);
  EXPECT_NEAR(result.fx, 1.0, 1e-8);
}

TEST(Brent, HandlesBoundaryMinimum) {
  const auto result =
      brent_minimize([](double x) { return x; }, 1.0, 5.0, 1e-8);
  EXPECT_NEAR(result.x, 1.0, 1e-5);
}

TEST(Optimize, BranchLengthsRecoverSimulationScale) {
  util::Rng rng(25);
  ModelSpec spec;
  const auto dataset = simulate_dataset(8, 2000, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  LikelihoodEngine engine(patterns);
  const SubstitutionModel model(spec);

  Tree perturbed = dataset.tree;
  for (std::size_t i = 0; i < perturbed.n_nodes(); ++i) {
    if (static_cast<int>(i) != perturbed.root()) {
      perturbed.set_branch_length(static_cast<int>(i), 0.3);
    }
  }
  const double before = engine.log_likelihood(perturbed, model);
  const double after =
      optimize_branch_lengths(engine, perturbed, model, 2);
  EXPECT_GT(after, before);
  const double lnl_true = engine.log_likelihood(dataset.tree, model);
  EXPECT_GT(after, lnl_true - 15.0);
}

TEST(Optimize, ModelParametersImproveFit) {
  util::Rng rng(26);
  ModelSpec truth;
  truth.nuc_model = NucModel::kHKY85;
  truth.kappa = 6.0;
  const auto dataset = simulate_dataset(8, 1500, truth, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  LikelihoodEngine engine(patterns);

  ModelSpec guess = truth;
  guess.kappa = 1.0;
  const double before =
      engine.log_likelihood(dataset.tree, SubstitutionModel(guess));
  const double after =
      optimize_model_parameters(engine, dataset.tree, guess);
  EXPECT_GT(after, before);
  EXPECT_NEAR(guess.kappa, 6.0, 2.0);
}

// ---------------------------------------------------------------------------
// Simulation

TEST(Simulate, AlignmentShapeAndStates) {
  util::Rng rng(27);
  const Tree tree = Tree::random(6, rng);
  const SubstitutionModel model{ModelSpec{}};
  const Alignment alignment = simulate_alignment(tree, model, 100, rng);
  EXPECT_EQ(alignment.n_taxa(), 6u);
  EXPECT_EQ(alignment.n_sites(), 100u);
  EXPECT_DOUBLE_EQ(alignment.missing_fraction(), 0.0);
}

TEST(Simulate, ShortBranchesGiveConservedSequences) {
  util::Rng rng(28);
  const Tree tree = Tree::random(6, rng, 0.001);
  const SubstitutionModel model{ModelSpec{}};
  const Alignment alignment = simulate_alignment(tree, model, 200, rng);
  const PatternizedAlignment patterns(alignment);
  // Nearly all columns should be constant -> few unique patterns.
  EXPECT_LT(patterns.n_patterns(), 20u);
}

TEST(Simulate, InvariantCategoryProducesConstantSites) {
  util::Rng rng(29);
  ModelSpec spec;
  spec.rate_het = RateHet::kGammaInvariant;
  spec.proportion_invariant = 0.5;
  spec.gamma_alpha = 2.0;
  const Tree tree = Tree::random(6, rng, 1.0);
  const SubstitutionModel model(spec);
  const Alignment alignment = simulate_alignment(tree, model, 400, rng);
  std::size_t constant = 0;
  for (std::size_t s = 0; s < alignment.n_sites(); ++s) {
    bool all_same = true;
    for (std::size_t t = 1; t < alignment.n_taxa(); ++t) {
      if (alignment.state(t, s) != alignment.state(0, s)) all_same = false;
    }
    if (all_same) ++constant;
  }
  // At least the invariant half, plus some chance-constant sites.
  EXPECT_GT(constant, 180u);
}

// ---------------------------------------------------------------------------
// GA search

TEST(Ga, RecoversTopologyOnCleanData) {
  util::Rng rng(30);
  ModelSpec spec;
  const auto dataset = simulate_dataset(7, 1200, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  GaConfig config;
  config.genthresh = 60;
  config.max_generations = 2000;
  config.seed = 7;
  GaSearch search(patterns, spec, config);
  const Individual& best = search.run();
  EXPECT_LE(Tree::robinson_foulds(best.tree, dataset.tree), 2u);
}

TEST(Ga, MonotoneBestLikelihood) {
  util::Rng rng(31);
  ModelSpec spec;
  const auto dataset = simulate_dataset(6, 300, spec, rng, 0.2);
  const PatternizedAlignment patterns(dataset.alignment);
  GaConfig config;
  config.genthresh = 30;
  config.seed = 3;
  GaSearch search(patterns, spec, config);
  double last = search.best().log_likelihood;
  while (search.step()) {
    EXPECT_GE(search.best().log_likelihood, last - 1e-9);
    last = search.best().log_likelihood;
  }
  EXPECT_TRUE(search.done());
}

TEST(Ga, GenthreshTerminates) {
  util::Rng rng(32);
  ModelSpec spec;
  const auto dataset = simulate_dataset(5, 100, spec, rng, 0.2);
  const PatternizedAlignment patterns(dataset.alignment);
  GaConfig config;
  config.genthresh = 10;
  config.max_generations = 100000;
  GaSearch search(patterns, spec, config);
  search.run();
  EXPECT_GE(search.generations_since_improvement(), 10u);
  EXPECT_LT(search.generation(), 100000u);
}

TEST(Ga, StartingTreeIsUsed) {
  util::Rng rng(33);
  ModelSpec spec;
  const auto dataset = simulate_dataset(6, 400, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  GaConfig config;
  config.genthresh = 5;
  config.max_generations = 5;
  GaSearch search(patterns, spec, config, dataset.tree);
  // With a correct starting tree and almost no search, the result should
  // still be the starting topology.
  EXPECT_LE(Tree::robinson_foulds(search.best().tree, dataset.tree), 2u);
}

TEST(Ga, DeterministicForSeed) {
  util::Rng rng(34);
  ModelSpec spec;
  const auto dataset = simulate_dataset(6, 200, spec, rng, 0.2);
  const PatternizedAlignment patterns(dataset.alignment);
  GaConfig config;
  config.genthresh = 20;
  config.seed = 99;
  GaSearch a(patterns, spec, config);
  GaSearch b(patterns, spec, config);
  a.run();
  b.run();
  EXPECT_DOUBLE_EQ(a.best().log_likelihood, b.best().log_likelihood);
  EXPECT_EQ(a.generation(), b.generation());
}

TEST(Ga, CheckpointRestoreContinuesIdentically) {
  util::Rng rng(35);
  ModelSpec spec;
  spec.rate_het = RateHet::kGamma;
  const auto dataset = simulate_dataset(6, 200, spec, rng, 0.2);
  const PatternizedAlignment patterns(dataset.alignment);
  GaConfig config;
  config.genthresh = 40;
  config.seed = 123;

  GaSearch full(patterns, spec, config);
  GaSearch half(patterns, spec, config);
  for (int i = 0; i < 10; ++i) half.step();
  const std::string saved = half.checkpoint();
  GaSearch resumed = GaSearch::restore(patterns, saved);
  EXPECT_EQ(resumed.generation(), half.generation());

  // Run both to completion; the restored search must match the original
  // instance exactly (same RNG stream, same population).
  for (int i = 0; i < 10; ++i) full.step();
  while (true) {
    const bool a = half.step();
    const bool b = resumed.step();
    ASSERT_EQ(a, b);
    if (!a) break;
    ASSERT_DOUBLE_EQ(half.best().log_likelihood,
                     resumed.best().log_likelihood);
  }
}

TEST(Ga, CheckpointRejectsGarbage) {
  util::Rng rng(36);
  ModelSpec spec;
  const auto dataset = simulate_dataset(5, 50, spec, rng);
  const PatternizedAlignment patterns(dataset.alignment);
  EXPECT_THROW(GaSearch::restore(patterns, "not a checkpoint"),
               std::runtime_error);
}

TEST(Ga, CheckpointRejectsInvalidModel) {
  // restore compiles every individual's model, so a spec the model
  // rejects (here a negative kappa) fails the restore, not a later step.
  util::Rng rng(37);
  ModelSpec spec;
  const auto dataset = simulate_dataset(5, 50, spec, rng);
  const PatternizedAlignment patterns(dataset.alignment);
  GaConfig config;
  config.seed = 5;
  GaSearch search(patterns, spec, config);
  std::istringstream in(search.checkpoint());
  std::string text;
  std::string line;
  for (int i = 0; std::getline(in, line); ++i) {
    if (i == 5) {  // magic, config, progress, rng, lnL, then the model
      std::istringstream fields(line);
      std::string data_type, nuc, aa, kappa;
      fields >> data_type >> nuc >> aa >> kappa;
      std::string rest;
      std::getline(fields, rest);
      line = data_type + " " + nuc + " " + aa + " -2" + rest;
    }
    text += line + "\n";
  }
  EXPECT_NO_THROW(GaSearch::restore(patterns, search.checkpoint()));
  EXPECT_THROW(GaSearch::restore(patterns, text), std::runtime_error);
}

// ---------------------------------------------------------------------------
// GARLI job layer

TEST(GarliJobTest, ConfigRoundTrip) {
  GarliJob job;
  job.model.data_type = DataType::kNucleotide;
  job.model.nuc_model = NucModel::kGTR;
  job.model.rate_het = RateHet::kGammaInvariant;
  job.model.n_rate_categories = 6;
  job.model.kappa = 3.5;
  job.search_replicates = 10;
  job.genthresh = 500;
  job.bootstrap = true;
  job.seed = 42;
  job.starting_tree = "(A:1,B:1,(C:1,D:1):1);";

  const GarliJob reparsed = GarliJob::from_config(job.to_config());
  EXPECT_EQ(reparsed.model.nuc_model, NucModel::kGTR);
  EXPECT_EQ(reparsed.model.rate_het, RateHet::kGammaInvariant);
  EXPECT_EQ(reparsed.model.n_rate_categories, 6u);
  EXPECT_EQ(reparsed.search_replicates, 10u);
  EXPECT_EQ(reparsed.genthresh, 500u);
  EXPECT_TRUE(reparsed.bootstrap);
  EXPECT_EQ(reparsed.seed, 42u);
  ASSERT_TRUE(reparsed.starting_tree.has_value());
}

TEST(GarliJobTest, FromConfigRejectsUnknownEnums) {
  EXPECT_THROW(GarliJob::from_config("[general]\ndatatype = quantum\n"),
               std::runtime_error);
  EXPECT_THROW(
      GarliJob::from_config("[model]\nratematrix = wrong\n"),
      std::runtime_error);
  EXPECT_THROW(
      GarliJob::from_config("[model]\nratehetmodel = sometimes\n"),
      std::runtime_error);
}

TEST(GarliJobTest, ValidationCatchesProblems) {
  util::Rng rng(37);
  const auto dataset = simulate_dataset(5, 60, ModelSpec{}, rng);

  GarliJob job;
  job.search_replicates = kMaxSearchReplicates;  // at the portal cap
  auto v = validate_garli_job(job, dataset.alignment);
  EXPECT_TRUE(v.ok);
  job.search_replicates = 3000;  // over it
  v = validate_garli_job(job, dataset.alignment);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.problems, std::vector<std::string>{
                            "searchreps exceeds the portal limit of 2000"});

  job = GarliJob{};
  job.model.data_type = DataType::kAminoAcid;  // mismatched data type
  v = validate_garli_job(job, dataset.alignment);
  EXPECT_FALSE(v.ok);

  job = GarliJob{};
  job.starting_tree = "((bogus);";
  v = validate_garli_job(job, dataset.alignment);
  EXPECT_FALSE(v.ok);

  job = GarliJob{};
  v = validate_garli_job(job, dataset.alignment);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
}

TEST(GarliJobTest, TooFewTaxaRejected) {
  Alignment tiny(DataType::kNucleotide, 4);
  tiny.add_taxon("A", {0, 1, 2, 3});
  tiny.add_taxon("B", {0, 1, 2, 3});
  tiny.add_taxon("C", {0, 1, 2, 3});
  const auto v = validate_garli_job(GarliJob{}, tiny);
  EXPECT_FALSE(v.ok);
}

TEST(GarliJobTest, RunProducesReplicates) {
  util::Rng rng(38);
  const auto dataset = simulate_dataset(6, 300, ModelSpec{}, rng, 0.15);
  GarliJob job;
  job.search_replicates = 3;
  job.genthresh = 15;
  job.seed = 5;
  const GarliRunResult result = run_garli_job(job, dataset.alignment);
  ASSERT_EQ(result.replicates.size(), 3u);
  for (const auto& rep : result.replicates) {
    EXPECT_TRUE(std::isfinite(rep.best_log_likelihood));
    EXPECT_GT(rep.generations, 0u);
  }
  const double best =
      result.replicates[result.best_replicate].best_log_likelihood;
  for (const auto& rep : result.replicates) {
    EXPECT_LE(rep.best_log_likelihood, best + 1e-12);
  }
}

TEST(GarliJobTest, BootstrapReplicatesDiffer) {
  util::Rng rng(39);
  const auto dataset = simulate_dataset(6, 200, ModelSpec{}, rng, 0.2);
  GarliJob job;
  job.search_replicates = 2;
  job.genthresh = 10;
  job.bootstrap = true;
  const GarliRunResult result = run_garli_job(job, dataset.alignment);
  // Bootstrap searches run on different resamples; likelihoods should
  // essentially never coincide exactly.
  EXPECT_NE(result.replicates[0].best_log_likelihood,
            result.replicates[1].best_log_likelihood);
}

TEST(GarliJobTest, InvalidJobThrowsOnRun) {
  util::Rng rng(40);
  const auto dataset = simulate_dataset(5, 50, ModelSpec{}, rng);
  GarliJob job;
  job.search_replicates = 0;
  EXPECT_THROW(run_garli_job(job, dataset.alignment), std::invalid_argument);
}

}  // namespace
}  // namespace lattice::phylo
