#include "phylo/model.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "phylo/linalg.hpp"
#include "util/fmt.hpp"

namespace lattice::phylo {

std::string_view rate_het_name(RateHet het) {
  switch (het) {
    case RateHet::kNone: return "none";
    case RateHet::kGamma: return "gamma";
    case RateHet::kGammaInvariant: return "gamma+invariant";
  }
  return "?";
}

std::optional<RateHet> parse_rate_het(std::string_view name) {
  if (name == "none") return RateHet::kNone;
  if (name == "gamma") return RateHet::kGamma;
  if (name == "gamma+invariant" || name == "invgamma") {
    return RateHet::kGammaInvariant;
  }
  return std::nullopt;
}

std::size_t ModelSpec::free_rate_parameters() const {
  switch (data_type) {
    case DataType::kNucleotide:
      switch (nuc_model) {
        case NucModel::kJC69: return 0;
        case NucModel::kK80: return 1;
        case NucModel::kHKY85: return 1;
        case NucModel::kGTR: return 5;
      }
      return 0;
    case DataType::kAminoAcid:
      return aa_model == AaModel::kPoisson ? 0 : 1;
    case DataType::kCodon:
      return 2;  // kappa and omega
  }
  return 0;
}

std::string ModelSpec::name() const {
  std::string base;
  switch (data_type) {
    case DataType::kNucleotide:
      switch (nuc_model) {
        case NucModel::kJC69: base = "JC69"; break;
        case NucModel::kK80: base = "K80"; break;
        case NucModel::kHKY85: base = "HKY85"; break;
        case NucModel::kGTR: base = "GTR"; break;
      }
      break;
    case DataType::kAminoAcid:
      base = aa_model == AaModel::kPoisson ? "AA-Poisson" : "AA-ChemClass";
      break;
    case DataType::kCodon:
      base = "Codon-GY94";
      break;
  }
  switch (rate_het) {
    case RateHet::kNone: break;
    case RateHet::kGamma:
      base += util::format("+G{}", n_rate_categories);
      break;
    case RateHet::kGammaInvariant:
      base += util::format("+I+G{}", n_rate_categories);
      break;
  }
  return base;
}

std::optional<std::string> ModelSpec::validate() const {
  if (kappa <= 0.0) return "kappa must be positive";
  if (omega <= 0.0) return "omega must be positive";
  double freq_sum = 0.0;
  for (double f : base_frequencies) {
    if (f <= 0.0) return "base frequencies must be positive";
    freq_sum += f;
  }
  if (std::abs(freq_sum - 1.0) > 1e-6) return "base frequencies must sum to 1";
  for (double r : gtr_rates) {
    if (r <= 0.0) return "GTR exchangeabilities must be positive";
  }
  if (rate_het != RateHet::kNone) {
    if (n_rate_categories < 2 || n_rate_categories > 16) {
      return "rate categories must be in [2, 16]";
    }
    if (gamma_alpha <= 0.0 || gamma_alpha > 300.0) {
      return "gamma alpha must be in (0, 300]";
    }
  }
  if (rate_het == RateHet::kGammaInvariant) {
    if (proportion_invariant < 0.0 || proportion_invariant >= 1.0) {
      return "proportion invariant must be in [0, 1)";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Incomplete gamma and discrete-gamma rates.

double regularized_gamma_p(double a, double x) {
  assert(a > 0.0);
  if (x <= 0.0) return 0.0;
  // lgamma_r, not std::lgamma: the latter writes the global `signgam`, a
  // data race when island threads compile gamma models at once. Same value.
  int sign = 0;
  const double log_gamma_a = ::lgamma_r(a, &sign);
  if (x < a + 1.0) {
    // Series representation.
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      term *= x / ap;
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    return sum * std::exp(-x + a * std::log(x) - log_gamma_a);
  }
  // Continued fraction for Q(a, x), then P = 1 - Q (Lentz's method).
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  const double q = std::exp(-x + a * std::log(x) - log_gamma_a) * h;
  return 1.0 - q;
}

namespace {

/// Quantile of Gamma(shape a, rate a) (mean 1) by bisection.
double gamma_mean1_quantile(double a, double p) {
  double lo = 0.0;
  double hi = 1.0;
  while (regularized_gamma_p(a, a * hi) < p && hi < 1e8) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (regularized_gamma_p(a, a * mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + hi)) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

std::vector<double> discrete_gamma_rates(double alpha,
                                         std::size_t n_categories) {
  assert(alpha > 0.0 && n_categories >= 1);
  if (n_categories == 1) return {1.0};
  const auto k = static_cast<double>(n_categories);
  // Category boundaries are quantiles of Gamma(alpha, rate alpha); the rate
  // of category i is the conditional mean over its interval:
  //   k * [P(alpha+1, alpha*b_{i+1}) - P(alpha+1, alpha*b_i)]
  std::vector<double> rates(n_categories);
  double prev_boundary = 0.0;
  double prev_mass = 0.0;
  for (std::size_t i = 0; i < n_categories; ++i) {
    const double upper_p = static_cast<double>(i + 1) / k;
    const double boundary =
        i + 1 == n_categories ? 1e30
                              : gamma_mean1_quantile(alpha, upper_p);
    const double mass =
        i + 1 == n_categories
            ? 1.0
            : regularized_gamma_p(alpha + 1.0, alpha * boundary);
    rates[i] = k * (mass - prev_mass);
    prev_boundary = boundary;
    prev_mass = mass;
  }
  (void)prev_boundary;
  // Guard the extreme-skew regime (alpha << 1): conditional means of the
  // lowest categories can underflow to zero, which would silently turn
  // them into invariant-site categories. Impose a tiny strictly-increasing
  // floor (no effect at ordinary alphas).
  double floor_value = 1e-12;
  for (double& r : rates) {
    r = std::max(r, floor_value);
    floor_value = r * (1.0 + 1e-9);
  }
  // Renormalize to mean exactly 1 against discretization error.
  double mean = 0.0;
  for (double r : rates) mean += r;
  mean /= k;
  for (double& r : rates) r /= mean;
  return rates;
}

// ---------------------------------------------------------------------------
// SubstitutionModel

namespace {
std::atomic<std::uint64_t> g_model_serial{1};
}  // namespace

SubstitutionModel::SubstitutionModel(const ModelSpec& spec)
    : spec_(spec),
      n_states_(state_count(spec.data_type)),
      serial_(g_model_serial.fetch_add(1, std::memory_order_relaxed)) {
  if (auto problem = spec.validate()) {
    throw std::invalid_argument(
        util::format("model: invalid spec: {}", *problem));
  }
  std::vector<double> q(n_states_ * n_states_, 0.0);
  build_rate_matrix(q);
  decompose(q);
  build_categories();
}

void SubstitutionModel::build_rate_matrix(std::vector<double>& q) {
  const std::size_t n = n_states_;
  frequencies_.assign(n, 1.0 / static_cast<double>(n));

  // Exchangeabilities R (symmetric); Q_ij = R_ij * pi_j for i != j.
  std::vector<double> r(n * n, 0.0);
  switch (spec_.data_type) {
    case DataType::kNucleotide: {
      std::array<double, 6> ex{};  // AC, AG, AT, CG, CT, GT
      switch (spec_.nuc_model) {
        case NucModel::kJC69:
          ex = {1, 1, 1, 1, 1, 1};
          break;
        case NucModel::kK80:
          ex = {1, spec_.kappa, 1, 1, spec_.kappa, 1};
          break;
        case NucModel::kHKY85:
          ex = {1, spec_.kappa, 1, 1, spec_.kappa, 1};
          frequencies_.assign(spec_.base_frequencies.begin(),
                              spec_.base_frequencies.end());
          break;
        case NucModel::kGTR:
          ex = spec_.gtr_rates;
          frequencies_.assign(spec_.base_frequencies.begin(),
                              spec_.base_frequencies.end());
          break;
      }
      const std::size_t pair_index[4][4] = {{0, 0, 1, 2},
                                            {0, 0, 3, 4},
                                            {1, 3, 0, 5},
                                            {2, 4, 5, 0}};
      for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
          if (i != j) r[i * 4 + j] = ex[pair_index[i][j]];
        }
      }
      break;
    }
    case DataType::kAminoAcid: {
      if (spec_.aa_model == AaModel::kPoisson) {
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (i != j) r[i * n + j] = 1.0;
          }
        }
      } else {
        // Stand-in empirical matrix: exchanges within a chemical class are
        // kappa-fold faster than between classes (see DESIGN.md; the real
        // system used empirical AA matrices we do not embed).
        // Classes over ACDEFGHIKLMNPQRSTVWY:
        //   hydrophobic AVLIMFWC, polar STNQYGPH, basic KR, acidic DE.
        constexpr std::string_view kClassOf = "02331020103022120011";
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (i == j) continue;
            r[i * n + j] = kClassOf[i] == kClassOf[j] ? spec_.kappa : 1.0;
          }
        }
      }
      break;
    }
    case DataType::kCodon: {
      // Goldman-Yang style: single-nucleotide changes only, with kappa for
      // transitions and omega for nonsynonymous changes.
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          const auto a = static_cast<State>(i);
          const auto b = static_cast<State>(j);
          if (codon_differences(a, b) != 1) continue;
          double rate = 1.0;
          if (codon_single_diff_is_transition(a, b)) rate *= spec_.kappa;
          if (!codon_synonymous(a, b)) rate *= spec_.omega;
          r[i * n + j] = rate;
        }
      }
      // F1x4-style frequencies from the base composition.
      const auto& code = GeneticCode::standard();
      double total = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        const std::uint8_t packed = code.codon_nucs[s];
        const double f =
            spec_.base_frequencies[packed >> 4] *
            spec_.base_frequencies[(packed >> 2) & 3] *
            spec_.base_frequencies[packed & 3];
        frequencies_[s] = f;
        total += f;
      }
      for (double& f : frequencies_) f /= total;
      break;
    }
  }

  // Q_ij = R_ij pi_j; rows sum to zero; normalize to one expected
  // substitution per unit time: -sum_i pi_i Q_ii = 1.
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      q[i * n + j] = r[i * n + j] * frequencies_[j];
      row += q[i * n + j];
    }
    q[i * n + i] = -row;
  }
  double rate_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rate_total -= frequencies_[i] * q[i * n + i];
  }
  if (rate_total <= 0.0) {
    throw std::invalid_argument("model: degenerate rate matrix");
  }
  for (double& value : q) value /= rate_total;
}

void SubstitutionModel::decompose(const std::vector<double>& q) {
  const std::size_t n = n_states_;
  // Symmetrize: B = D^{1/2} Q D^{-1/2} with D = diag(pi).
  std::vector<double> b(n * n);
  std::vector<double> sqrt_pi(n);
  std::vector<double> inv_sqrt_pi(n);
  for (std::size_t i = 0; i < n; ++i) {
    sqrt_pi[i] = std::sqrt(frequencies_[i]);
    inv_sqrt_pi[i] = 1.0 / sqrt_pi[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b[i * n + j] = sqrt_pi[i] * q[i * n + j] * inv_sqrt_pi[j];
    }
  }
  SymmetricEigen eigen = symmetric_eigen(b, n);
  eigenvalues_ = std::move(eigen.values);
  left_.assign(n * n, 0.0);
  right_.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      left_[i * n + k] = inv_sqrt_pi[i] * eigen.vectors[i * n + k];
      right_[k * n + i] = eigen.vectors[i * n + k] * sqrt_pi[i];
    }
  }
}

void SubstitutionModel::build_categories() {
  categories_.clear();
  const bool has_invariant = spec_.rate_het == RateHet::kGammaInvariant;
  const double pinv = has_invariant ? spec_.proportion_invariant : 0.0;
  if (has_invariant && pinv > 0.0) {
    categories_.push_back(RateCategory{0.0, pinv});
  }
  if (spec_.rate_het == RateHet::kNone) {
    categories_.push_back(RateCategory{1.0, 1.0});
    return;
  }
  const std::vector<double> rates =
      discrete_gamma_rates(spec_.gamma_alpha, spec_.n_rate_categories);
  const double weight =
      (1.0 - pinv) / static_cast<double>(rates.size());
  for (double rate : rates) {
    // Variable-site rates are inflated so the overall mean rate stays 1.
    categories_.push_back(RateCategory{rate / (1.0 - pinv), weight});
  }
}

void SubstitutionModel::transition_matrix(
    double branch_length, double rate, std::span<double> out,
    const kernels::KernelOps& ops) const {
  const std::size_t n = n_states_;
  assert(out.size() == n * n);
  assert(n <= kernels::kMaxPmatrixStates);  // codons, the largest, have 61
  const double t = branch_length * rate;
  if (t <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) out[i * n + i] = 1.0;
    return;
  }
  // P = left * diag(exp(lambda t)) * right.
  double exp_lt[kernels::kMaxPmatrixStates] = {};
  for (std::size_t k = 0; k < n; ++k) {
    exp_lt[k] = std::exp(eigenvalues_[k] * t);
  }
  ops.reconstruct_pmatrix(left_.data(), right_.data(), exp_lt, n,
                          out.data());
  // Round-off can produce tiny negatives; clamp and leave rows ~stochastic.
  for (double& value : out) value = std::clamp(value, 0.0, 1.0);
}

}  // namespace lattice::phylo
