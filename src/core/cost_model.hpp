// GARLI runtime ground truth for the grid simulation, and the
// nine-predictor featurization used by the random-forest estimator
// (paper §VI: "we isolated all of the parameters that could possibly
// affect runtime").
//
// The paper trained on ~150 real user jobs; we have no such corpus, so a
// calibrated synthetic cost surface stands in (see DESIGN.md §2). Its shape
// is anchored to the paper's reported variable-importance ordering: the
// rate-heterogeneity model dominates (GARLI's conditional-likelihood work
// roughly quadruples with gamma rates and converges more slowly), data type
// is second (amino-acid/codon state spaces are far more expensive per
// pattern), and the *number* of gamma categories barely matters (the
// category loop is the well-vectorized inner kernel). The
// measure_reference_runtime() hook runs the real phylo engine so tests can
// verify the surface's monotonicity against genuine executions.
#pragma once

#include <cstdint>
#include <vector>

#include "phylo/garli.hpp"
#include "rf/dataset.hpp"
#include "util/rng.hpp"

namespace lattice::core {

/// The nine runtime predictors (DESIGN.md §3).
struct GarliFeatures {
  double num_taxa = 50;
  double num_patterns = 500;
  int data_type = 0;      // 0 nucleotide, 1 amino acid, 2 codon
  int rate_het_model = 0; // 0 none, 1 gamma, 2 gamma+invariant
  double num_rate_categories = 4;
  double subst_model_params = 1;
  double search_reps = 1;
  double genthresh = 200;
  bool has_starting_tree = false;

  bool operator==(const GarliFeatures&) const = default;
};

/// Feature schema shared by the estimator's training set and predictions.
std::vector<rf::FeatureSpec> garli_feature_specs();

/// Dense row in the schema's order.
std::vector<double> to_feature_vector(const GarliFeatures& features);

/// Extract features from a job + its dataset's dimensions.
GarliFeatures features_from_job(const phylo::GarliJob& job,
                                std::size_t num_taxa,
                                std::size_t num_patterns);

/// Synthetic runtime surface: expected seconds on the speed-1.0 reference
/// machine, with optional multiplicative lognormal run-to-run noise.
class GarliCostModel {
 public:
  struct Params {
    /// Seconds for the unit job (one nucleotide pattern, one taxon-pair
    /// scale). Recalibrated against the vectorized likelihood kernels
    /// (src/phylo/kernels/, PERFORMANCE.md): the measured DNA full-eval
    /// speedup of ~4.1x over the scalar client divides the old
    /// 2.0e-2 base down to 4.8e-3, keeping typical web jobs in the
    /// paper's "hours, weeks, or months" range on modern vector hosts.
    double base_seconds = 4.8e-3;
    double taxa_exponent = 1.3;
    /// Per-pattern cost multipliers by data type, rescaled by each
    /// type's measured vector speedup relative to DNA's 4.1x: amino
    /// acids vectorize to ~2.8x (generic-ns kernel), so their relative
    /// cost grows 5.5 -> 8.2; codon work is dominated by 61x61 P(t)
    /// reconstruction the kernels do not touch (~1.3x end to end), so
    /// its relative factor grows 12 -> 38.
    double aa_factor = 8.2;
    double codon_factor = 38.0;
    /// Rate-heterogeneity slowdowns (the dominant effect): extra
    /// conditional-likelihood passes per category plus markedly slower GA
    /// convergence under the larger parameter space.
    double gamma_factor = 7.0;
    double invariant_extra = 1.4;
    /// Marginal effect of each category beyond 4 (deliberately tiny).
    double per_category = 0.015;
    /// Extra free rate parameters slow model optimization slightly.
    double per_rate_param = 0.04;
    /// Search-length scaling with the termination window.
    double genthresh_exponent = 0.8;
    /// Starting trees skip the initial climb.
    double starting_tree_factor = 0.72;
    /// sigma of the lognormal run-to-run noise.
    double noise_sigma = 0.2;
  };

  /// Staged data per attempt implied by the features (docs/NETWORKING.md):
  /// what a result instance downloads before compute and uploads before
  /// reporting.
  struct DataSizes {
    double input_mb = 0.0;
    double output_mb = 0.0;
  };

  GarliCostModel() = default;
  explicit GarliCostModel(const Params& params) : params_(params) {}

  /// Deterministic expected runtime (reference seconds).
  double expected_runtime(const GarliFeatures& features) const;

  /// One stochastic realization (expected * lognormal noise).
  double sample_runtime(const GarliFeatures& features, util::Rng& rng) const;

  /// Deterministic expected data sizes: the alignment matrix (taxa x
  /// patterns x 4 bytes, floored at 0.1 MB) in, the best tree + logs
  /// (~0.5 MB) out. The exact formulas the portal used inline; every
  /// harness now derives sizes from this one place.
  DataSizes data_sizes(const GarliFeatures& features) const;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// A labeled training observation.
struct TrainingExample {
  GarliFeatures features;
  double runtime = 0.0;  // reference seconds
};

/// Random job features following the portal's real mix: mostly nucleotide
/// jobs, broad taxon/pattern ranges, every rate-het flavor.
GarliFeatures random_features(util::Rng& rng);

/// Generate a corpus of (features, noisy runtime) pairs — the stand-in for
/// the paper's ~150 previously-run user jobs.
std::vector<TrainingExample> generate_corpus(std::size_t n,
                                             const GarliCostModel& model,
                                             util::Rng& rng);

/// Build an rf::Dataset from a corpus (targets are log-runtimes when
/// `log_target`; the estimator trains in log space for relative accuracy).
rf::Dataset corpus_to_dataset(const std::vector<TrainingExample>& corpus,
                              bool log_target);

/// Run a real (small) GARLI job on the in-process engine and return its
/// wall-clock seconds — the calibration hook tying the synthetic surface
/// to genuine executions.
double measure_reference_runtime(const phylo::GarliJob& job,
                                 const phylo::Alignment& alignment);

}  // namespace lattice::core
