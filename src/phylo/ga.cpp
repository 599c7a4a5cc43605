#include "phylo/ga.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/fmt.hpp"

namespace lattice::phylo {

GaSearch::GaSearch(const PatternizedAlignment& data)
    : data_(&data), engine_(data) {
  engine_.enable_matrix_cache();
}

GaSearch::GaSearch(const PatternizedAlignment& data, const ModelSpec& spec,
                   const GaConfig& config,
                   const std::optional<Tree>& starting_tree)
    : GaSearch(data, std::make_shared<const SubstitutionModel>(spec), config,
               starting_tree) {}

GaSearch::GaSearch(const PatternizedAlignment& data,
                   std::shared_ptr<const SubstitutionModel> start_model,
                   const GaConfig& config,
                   const std::optional<Tree>& starting_tree)
    : data_(&data), config_(config), engine_(data), rng_(config.seed) {
  // A child differs from its parent in at most one branch length or one
  // model parameter, and shares the parent's compiled model otherwise, so
  // the matrix cache turns the rest of its P(t) matrices into lookups
  // (0.86-0.89 of them in the garli_search benchmark's searches, with
  // the cache holding the matrices of 8 trees).
  engine_.enable_matrix_cache();
  if (config_.population_size < 2) {
    throw std::invalid_argument("ga: population must be at least 2");
  }
  if (starting_tree && starting_tree->n_leaves() != data.n_taxa()) {
    throw std::invalid_argument("ga: starting tree leaf count mismatch");
  }
  population_.reserve(config_.population_size);
  for (std::size_t i = 0; i < config_.population_size; ++i) {
    Individual individual{
        starting_tree ? *starting_tree : Tree::random(data.n_taxa(), rng_),
        start_model->spec(), 0.0, start_model};
    evaluate(individual);
    population_.push_back(std::move(individual));
  }
  std::sort(population_.begin(), population_.end(),
            [](const Individual& a, const Individual& b) {
              return a.log_likelihood > b.log_likelihood;
            });
  best_ever_ = population_.front().log_likelihood;
}

void GaSearch::evaluate(Individual& individual) {
  if (!individual.compiled) {
    individual.compiled =
        std::make_shared<const SubstitutionModel>(individual.model);
  }
  individual.log_likelihood =
      engine_.log_likelihood(individual.tree, *individual.compiled);
}

std::size_t GaSearch::tournament_select() {
  const std::size_t a =
      static_cast<std::size_t>(rng_.below(population_.size()));
  const std::size_t b =
      static_cast<std::size_t>(rng_.below(population_.size()));
  // Population is kept sorted best-first, so the smaller index wins.
  return std::min(a, b);
}

Individual GaSearch::mutate(const Individual& parent) {
  Individual child = parent;
  const GaMutationWeights& w = config_.weights;
  const double weights[4] = {w.nni, w.spr, w.branch_length, w.model};
  const std::size_t kind = rng_.weighted_index(weights);

  switch (kind) {
    case 0: {  // NNI
      const std::vector<int> internals = child.tree.internal_edge_nodes();
      if (internals.empty()) break;
      const int node =
          internals[static_cast<std::size_t>(rng_.below(internals.size()))];
      child.tree.nni(node, static_cast<int>(rng_.below(2)));
      break;
    }
    case 1: {  // SPR
      // Retry a few times: random node pairs are often invalid moves.
      for (int attempt = 0; attempt < 8; ++attempt) {
        const int prune =
            static_cast<int>(rng_.below(child.tree.n_nodes()));
        const int graft =
            static_cast<int>(rng_.below(child.tree.n_nodes()));
        if (child.tree.spr(prune, graft)) break;
      }
      break;
    }
    case 2: {  // branch-length multiplier
      const int index = static_cast<int>(rng_.below(child.tree.n_nodes()));
      if (index != child.tree.root()) {
        const double factor = rng_.lognormal(0.0, config_.branch_sigma);
        const double updated = std::clamp(
            child.tree.branch_length(index) * factor, 1e-8, 10.0);
        child.tree.set_branch_length(index, updated);
      }
      break;
    }
    default: {  // model parameter perturbation
      ModelSpec& spec = child.model;
      std::vector<double*> targets;
      const bool has_kappa =
          (spec.data_type == DataType::kNucleotide &&
           spec.nuc_model != NucModel::kJC69 &&
           spec.nuc_model != NucModel::kGTR) ||
          (spec.data_type == DataType::kAminoAcid &&
           spec.aa_model == AaModel::kChemClass) ||
          spec.data_type == DataType::kCodon;
      if (has_kappa) targets.push_back(&spec.kappa);
      if (spec.data_type == DataType::kCodon) targets.push_back(&spec.omega);
      if (spec.data_type == DataType::kNucleotide &&
          spec.nuc_model == NucModel::kGTR) {
        targets.push_back(
            &spec.gtr_rates[rng_.below(5)]);  // GT (index 5) stays fixed
      }
      if (spec.rate_het != RateHet::kNone) {
        targets.push_back(&spec.gamma_alpha);
      }
      if (spec.rate_het == RateHet::kGammaInvariant) {
        targets.push_back(&spec.proportion_invariant);
      }
      if (targets.empty()) break;
      double* target = targets[rng_.below(targets.size())];
      const double factor = rng_.lognormal(0.0, config_.model_sigma);
      double updated = *target * factor;
      if (target == &spec.proportion_invariant) {
        updated = std::clamp(updated, 0.0, 0.9);
      } else if (target == &spec.gamma_alpha) {
        updated = std::clamp(updated, 0.02, 100.0);
      } else {
        updated = std::clamp(updated, 1e-3, 100.0);
      }
      if (updated != *target) {
        *target = updated;
        child.compiled.reset();
      }
      break;
    }
  }
  evaluate(child);
  return child;
}

bool GaSearch::done() const {
  return since_improvement_ >= config_.genthresh ||
         generation_ >= config_.max_generations;
}

bool GaSearch::step() {
  if (done()) return false;
  ++generation_;

  // (mu + lambda) steady state: one offspring per population slot, then
  // keep the best population_size individuals. The population is kept
  // sorted best-first as an invariant, so only the offspring need sorting;
  // a linear merge then restores global order — no full re-sort.
  std::vector<Individual> offspring;
  offspring.reserve(population_.size());
  for (std::size_t i = 0; i < population_.size(); ++i) {
    offspring.push_back(mutate(population_[tournament_select()]));
  }
  const auto better = [](const Individual& a, const Individual& b) {
    return a.log_likelihood > b.log_likelihood;
  };
  std::sort(offspring.begin(), offspring.end(), better);
  const std::size_t parents = population_.size();
  for (auto& child : offspring) population_.push_back(std::move(child));
  std::inplace_merge(population_.begin(),
                     population_.begin() + static_cast<std::ptrdiff_t>(parents),
                     population_.end(), better);
  population_.resize(config_.population_size);

  const double best_now = population_.front().log_likelihood;
  if (best_now > best_ever_ + config_.significant_improvement) {
    best_ever_ = best_now;
    since_improvement_ = 0;
  } else {
    best_ever_ = std::max(best_ever_, best_now);
    ++since_improvement_;
  }
  return true;
}

void GaSearch::inject(const Individual& migrant) {
  assert(!population_.empty());
  // Replace the worst individual and rotate the migrant into its sorted
  // position — the rest of the population is already ordered.
  population_.back() = migrant;
  const auto better = [](const Individual& a, const Individual& b) {
    return a.log_likelihood > b.log_likelihood;
  };
  const auto pos = std::upper_bound(population_.begin(),
                                    population_.end() - 1,
                                    population_.back(), better);
  std::rotate(pos, population_.end() - 1, population_.end());
  if (migrant.log_likelihood >
      best_ever_ + config_.significant_improvement) {
    best_ever_ = migrant.log_likelihood;
    since_improvement_ = 0;
  }
}

const Individual& GaSearch::best() const {
  assert(!population_.empty());
  return population_.front();
}

const Individual& GaSearch::run() {
  while (step()) {
  }
  return best();
}

// ---------------------------------------------------------------------------
// Checkpointing. Versioned line-oriented text; numbers are hex-exact for
// the RNG and max-precision decimal for likelihoods/lengths.

namespace {
constexpr std::string_view kCheckpointMagic = "lattice-ga-checkpoint-v1";

std::string spec_to_line(const ModelSpec& spec) {
  std::ostringstream out;
  out.precision(17);
  out << static_cast<int>(spec.data_type) << ' '
      << static_cast<int>(spec.nuc_model) << ' '
      << static_cast<int>(spec.aa_model) << ' ' << spec.kappa << ' '
      << spec.omega;
  for (double r : spec.gtr_rates) out << ' ' << r;
  for (double f : spec.base_frequencies) out << ' ' << f;
  out << ' ' << static_cast<int>(spec.rate_het) << ' '
      << spec.n_rate_categories << ' ' << spec.gamma_alpha << ' '
      << spec.proportion_invariant;
  return out.str();
}

ModelSpec spec_from_line(const std::string& line) {
  std::istringstream in(line);
  ModelSpec spec;
  int data_type = 0;
  int nuc = 0;
  int aa = 0;
  int het = 0;
  in >> data_type >> nuc >> aa >> spec.kappa >> spec.omega;
  for (double& r : spec.gtr_rates) in >> r;
  for (double& f : spec.base_frequencies) in >> f;
  in >> het >> spec.n_rate_categories >> spec.gamma_alpha >>
      spec.proportion_invariant;
  if (!in) throw std::runtime_error("checkpoint: bad model line");
  spec.data_type = static_cast<DataType>(data_type);
  spec.nuc_model = static_cast<NucModel>(nuc);
  spec.aa_model = static_cast<AaModel>(aa);
  spec.rate_het = static_cast<RateHet>(het);
  return spec;
}
}  // namespace

std::string GaSearch::checkpoint() const {
  std::ostringstream out;
  out.precision(17);
  out << kCheckpointMagic << '\n';
  out << config_.population_size << ' ' << config_.genthresh << ' '
      << config_.significant_improvement << ' ' << config_.max_generations
      << ' ' << config_.weights.nni << ' ' << config_.weights.spr << ' '
      << config_.weights.branch_length << ' ' << config_.weights.model << ' '
      << config_.branch_sigma << ' ' << config_.model_sigma << ' '
      << config_.seed << '\n';
  out << generation_ << ' ' << since_improvement_ << ' ' << best_ever_
      << '\n';
  const auto state = rng_.state();
  out << state[0] << ' ' << state[1] << ' ' << state[2] << ' ' << state[3]
      << '\n';
  for (const Individual& individual : population_) {
    out << individual.log_likelihood << '\n';
    out << spec_to_line(individual.model) << '\n';
    out << individual.tree.serialize_structure() << '\n';
  }
  return out.str();
}

GaSearch GaSearch::restore(const PatternizedAlignment& data,
                           std::string_view checkpoint_text) {
  std::istringstream in{std::string(checkpoint_text)};
  std::string line;
  if (!std::getline(in, line) || line != kCheckpointMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  GaSearch search(data);
  GaConfig& config = search.config_;
  if (!(in >> config.population_size >> config.genthresh >>
        config.significant_improvement >> config.max_generations >>
        config.weights.nni >> config.weights.spr >>
        config.weights.branch_length >> config.weights.model >>
        config.branch_sigma >> config.model_sigma >> config.seed)) {
    throw std::runtime_error("checkpoint: bad config line");
  }
  if (!(in >> search.generation_ >> search.since_improvement_ >>
        search.best_ever_)) {
    throw std::runtime_error("checkpoint: bad progress line");
  }
  std::array<std::uint64_t, 4> state{};
  if (!(in >> state[0] >> state[1] >> state[2] >> state[3])) {
    throw std::runtime_error("checkpoint: bad rng line");
  }
  search.rng_.set_state(state);
  std::getline(in, line);  // consume end of rng line

  for (std::size_t i = 0; i < config.population_size; ++i) {
    std::string lnl_line;
    std::string spec_line;
    std::string tree_line;
    if (!std::getline(in, lnl_line) || !std::getline(in, spec_line) ||
        !std::getline(in, tree_line)) {
      throw std::runtime_error("checkpoint: truncated population");
    }
    Individual individual{Tree::deserialize_structure(tree_line),
                          spec_from_line(spec_line), std::stod(lnl_line),
                          nullptr};
    if (individual.tree.n_leaves() != data.n_taxa()) {
      throw std::runtime_error("checkpoint: alignment/tree taxon mismatch");
    }
    try {
      individual.compiled =
          std::make_shared<const SubstitutionModel>(individual.model);
    } catch (const std::invalid_argument& error) {
      throw std::runtime_error(
          util::format("checkpoint: bad model line: {}", error.what()));
    }
    search.population_.push_back(std::move(individual));
  }
  // Checkpoints are written best-first, but step()/inject() now rely on
  // sortedness as an invariant — re-establish it for robustness.
  std::sort(search.population_.begin(), search.population_.end(),
            [](const Individual& a, const Individual& b) {
              return a.log_likelihood > b.log_likelihood;
            });
  return search;
}

}  // namespace lattice::phylo
