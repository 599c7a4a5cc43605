// Time-reversible substitution models with among-site rate heterogeneity —
// the model space GARLI searches and the paper's two dominant runtime
// predictors (rate-heterogeneity model and data type).
//
// A model is specified declaratively by ModelSpec (so the genetic algorithm
// can mutate parameters and runtime prediction can featurize them) and
// compiled by SubstitutionModel into an eigendecomposition of the rate
// matrix for fast P(t) = exp(Qt) evaluation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "phylo/datatype.hpp"
#include "phylo/kernels/kernels.hpp"

namespace lattice::phylo {

enum class RateHet : std::uint8_t {
  kNone = 0,            // single rate
  kGamma = 1,           // discrete gamma (Yang 1994)
  kGammaInvariant = 2,  // gamma + proportion of invariant sites
};

std::string_view rate_het_name(RateHet het);
std::optional<RateHet> parse_rate_het(std::string_view name);

enum class NucModel : std::uint8_t { kJC69, kK80, kHKY85, kGTR };
enum class AaModel : std::uint8_t { kPoisson, kChemClass };

/// Declarative model description. Fields irrelevant to the data type are
/// ignored (e.g. kappa for amino-acid data).
struct ModelSpec {
  DataType data_type = DataType::kNucleotide;

  NucModel nuc_model = NucModel::kHKY85;
  AaModel aa_model = AaModel::kPoisson;

  /// Transition/transversion rate ratio (K80/HKY85 and the codon model).
  double kappa = 2.0;
  /// dN/dS for the codon model (Goldman & Yang 1994 style).
  double omega = 0.2;
  /// GTR exchangeabilities in order AC, AG, AT, CG, CT, GT (GT fixed to 1).
  std::array<double, 6> gtr_rates{1.0, 2.0, 1.0, 1.0, 2.0, 1.0};
  /// Equilibrium base frequencies for HKY85/GTR (and codon F1x4).
  std::array<double, 4> base_frequencies{0.25, 0.25, 0.25, 0.25};

  RateHet rate_het = RateHet::kNone;
  std::size_t n_rate_categories = 4;
  double gamma_alpha = 0.5;
  double proportion_invariant = 0.1;

  /// Count of free rate-matrix parameters — predictor #6 of the runtime
  /// model (JC 0, K80 1, HKY85 1, GTR 5, Poisson 0, ChemClass 1, codon 2).
  std::size_t free_rate_parameters() const;

  /// Human-readable summary, e.g. "GTR+G4" or "codon(kappa,omega)+I+G4".
  std::string name() const;

  /// Bounds-check all parameters; returns a diagnostic or nullopt if valid.
  std::optional<std::string> validate() const;
};

/// A compiled model: eigendecomposed rate matrix + rate categories.
class SubstitutionModel {
 public:
  explicit SubstitutionModel(const ModelSpec& spec);

  const ModelSpec& spec() const { return spec_; }
  DataType data_type() const { return spec_.data_type; }
  std::size_t n_states() const { return n_states_; }

  std::span<const double> frequencies() const { return frequencies_; }

  struct RateCategory {
    double rate;    // relative rate (0 for the invariant category)
    double weight;  // prior probability; weights sum to 1
  };
  std::span<const RateCategory> categories() const { return categories_; }

  /// Fill `out` (row-major n_states x n_states) with P(branch_length *
  /// rate) = exp(Q * t * rate). Entries are clamped to [0, 1]. The
  /// exponentials are scalar and shared; the matrix product runs on
  /// `ops`' reconstruct_pmatrix kernel, which writes the same bits on
  /// every tier. A const read: one compiled model may serve many threads.
  void transition_matrix(double branch_length, double rate,
                         std::span<double> out,
                         const kernels::KernelOps& ops =
                             kernels::active_ops()) const;

  /// The factors of P(t) = left * diag(exp(lambda t)) * right, each
  /// row-major n_states x n_states (eigenvalues: n_states). Read-only;
  /// exposed so tests can hold the kernel to a reference reconstruction.
  struct Eigensystem {
    std::span<const double> eigenvalues;
    std::span<const double> left;
    std::span<const double> right;
  };
  Eigensystem eigensystem() const { return {eigenvalues_, left_, right_}; }

  /// Unique id of this compiled model instance; caches key on it so a
  /// rebuilt model (GA model-parameter mutation) never hits stale entries.
  std::uint64_t serial() const { return serial_; }

 private:
  void build_rate_matrix(std::vector<double>& q);
  void decompose(const std::vector<double>& q);
  void build_categories();

  ModelSpec spec_;
  std::size_t n_states_;
  std::uint64_t serial_ = 0;
  std::vector<double> frequencies_;
  std::vector<RateCategory> categories_;
  // P(t) = left * diag(exp(lambda t)) * right, with
  // left = D^{-1/2} U and right = U^T D^{1/2} from the symmetrized Q.
  std::vector<double> eigenvalues_;
  std::vector<double> left_;
  std::vector<double> right_;
};

/// Discrete-gamma category rates with mean 1 (Yang 1994, mean-per-category
/// discretization). Exposed for tests.
std::vector<double> discrete_gamma_rates(double alpha,
                                         std::size_t n_categories);

/// Regularized lower incomplete gamma P(a, x); exposed for tests.
double regularized_gamma_p(double a, double x);

}  // namespace lattice::phylo
