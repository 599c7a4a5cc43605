#include "phylo/garli.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "phylo/distance.hpp"
#include "phylo/optimize.hpp"
#include "phylo/parsimony.hpp"

#include "util/fmt.hpp"

namespace lattice::phylo {

namespace {

std::string nuc_model_name(NucModel model) {
  switch (model) {
    case NucModel::kJC69: return "jc69";
    case NucModel::kK80: return "k80";
    case NucModel::kHKY85: return "hky85";
    case NucModel::kGTR: return "gtr";
  }
  return "?";
}

NucModel parse_nuc_model(const std::string& name) {
  if (name == "jc69") return NucModel::kJC69;
  if (name == "k80") return NucModel::kK80;
  if (name == "hky85") return NucModel::kHKY85;
  if (name == "gtr") return NucModel::kGTR;
  throw std::runtime_error(
      util::format("garli.conf: unknown ratematrix '{}'", name));
}

}  // namespace

std::string GarliJob::to_config() const {
  util::IniFile ini;
  ini.set("general", "datatype", std::string(data_type_name(model.data_type)));
  ini.set("general", "searchreps", std::to_string(search_replicates));
  ini.set("general", "genthreshfortopoterm", std::to_string(genthresh));
  ini.set("general", "stopgen", std::to_string(max_generations));
  ini.set("general", "nindivs", std::to_string(population_size));
  ini.set("general", "bootstrapreps", bootstrap ? "1" : "0");
  ini.set("general", "randseed", std::to_string(seed));
  const char* topology = "stepwise";
  if (start_topology == StartTopology::kRandom) topology = "random";
  if (start_topology == StartTopology::kNeighborJoining) topology = "nj";
  ini.set("general", "starttopology", topology);
  if (starting_tree) {
    ini.set("general", "streefname", *starting_tree);
  }

  ini.set("model", "ratematrix", nuc_model_name(model.nuc_model));
  ini.set("model", "aamatrix",
          model.aa_model == AaModel::kPoisson ? "poisson" : "chemclass");
  ini.set("model", "ratehetmodel", std::string(rate_het_name(model.rate_het)));
  ini.set("model", "numratecats", std::to_string(model.n_rate_categories));
  ini.set("model", "kappa", util::format("{:.17g}", model.kappa));
  ini.set("model", "omega", util::format("{:.17g}", model.omega));
  ini.set("model", "alpha", util::format("{:.17g}", model.gamma_alpha));
  ini.set("model", "pinv",
          util::format("{:.17g}", model.proportion_invariant));
  ini.set("model", "basefreqs",
          util::format("{:.17g} {:.17g} {:.17g} {:.17g}",
                       model.base_frequencies[0], model.base_frequencies[1],
                       model.base_frequencies[2], model.base_frequencies[3]));
  ini.set("model", "gtrrates",
          util::format("{:.17g} {:.17g} {:.17g} {:.17g} {:.17g} {:.17g}",
                       model.gtr_rates[0], model.gtr_rates[1],
                       model.gtr_rates[2], model.gtr_rates[3],
                       model.gtr_rates[4], model.gtr_rates[5]));
  return ini.to_string();
}

GarliJob GarliJob::from_config(std::string_view text) {
  const util::IniFile ini = util::IniFile::parse(text);
  GarliJob job;

  const std::string datatype = ini.get_or("general", "datatype", "nucleotide");
  const auto parsed_type = parse_data_type(datatype);
  if (!parsed_type) {
    throw std::runtime_error(
        util::format("garli.conf: unknown datatype '{}'", datatype));
  }
  job.model.data_type = *parsed_type;
  job.search_replicates = static_cast<std::size_t>(
      ini.get_int("general", "searchreps", 1));
  job.genthresh = static_cast<std::size_t>(
      ini.get_int("general", "genthreshfortopoterm", 200));
  job.max_generations =
      static_cast<std::size_t>(ini.get_int("general", "stopgen", 50000));
  job.population_size =
      static_cast<std::size_t>(ini.get_int("general", "nindivs", 4));
  job.bootstrap = ini.get_int("general", "bootstrapreps", 0) > 0;
  job.seed =
      static_cast<std::uint64_t>(ini.get_int("general", "randseed", 1));
  const std::string topology =
      ini.get_or("general", "starttopology", "stepwise");
  if (topology == "stepwise") {
    job.start_topology = GarliJob::StartTopology::kStepwise;
  } else if (topology == "random") {
    job.start_topology = GarliJob::StartTopology::kRandom;
  } else if (topology == "nj") {
    job.start_topology = GarliJob::StartTopology::kNeighborJoining;
  } else {
    throw std::runtime_error(
        util::format("garli.conf: unknown starttopology '{}'", topology));
  }
  if (auto tree = ini.get("general", "streefname")) {
    job.starting_tree = *tree;
  }

  job.model.nuc_model =
      parse_nuc_model(ini.get_or("model", "ratematrix", "hky85"));
  const std::string aa = ini.get_or("model", "aamatrix", "poisson");
  if (aa == "poisson") {
    job.model.aa_model = AaModel::kPoisson;
  } else if (aa == "chemclass") {
    job.model.aa_model = AaModel::kChemClass;
  } else {
    throw std::runtime_error(
        util::format("garli.conf: unknown aamatrix '{}'", aa));
  }
  const std::string het = ini.get_or("model", "ratehetmodel", "none");
  const auto parsed_het = parse_rate_het(het);
  if (!parsed_het) {
    throw std::runtime_error(
        util::format("garli.conf: unknown ratehetmodel '{}'", het));
  }
  job.model.rate_het = *parsed_het;
  job.model.n_rate_categories =
      static_cast<std::size_t>(ini.get_int("model", "numratecats", 4));
  job.model.kappa = ini.get_double("model", "kappa", 2.0);
  job.model.omega = ini.get_double("model", "omega", 0.2);
  job.model.gamma_alpha = ini.get_double("model", "alpha", 0.5);
  job.model.proportion_invariant = ini.get_double("model", "pinv", 0.1);

  auto parse_doubles = [&](const std::string& key, std::span<double> out) {
    const auto raw = ini.get("model", key);
    if (!raw) return;
    std::istringstream in(*raw);
    for (double& value : out) {
      if (!(in >> value)) {
        throw std::runtime_error(
            util::format("garli.conf: bad {} list", key));
      }
    }
  };
  parse_doubles("basefreqs", job.model.base_frequencies);
  parse_doubles("gtrrates", job.model.gtr_rates);
  return job;
}

GarliValidation validate_garli_job(const GarliJob& job,
                                   const Alignment& alignment) {
  GarliValidation v;
  auto problem = [&](std::string message) {
    v.ok = false;
    v.problems.push_back(std::move(message));
  };

  if (auto model_problem = job.model.validate()) {
    problem(util::format("model: {}", *model_problem));
  }
  if (job.model.data_type != alignment.data_type()) {
    problem("datatype does not match the uploaded alignment");
  }
  if (alignment.n_taxa() < 4) {
    problem(util::format("alignment has {} taxa; at least 4 required",
                         alignment.n_taxa()));
  }
  if (alignment.n_sites() == 0) {
    problem("alignment has no characters");
  }
  if (job.search_replicates == 0) {
    problem("searchreps must be at least 1");
  }
  if (job.search_replicates > kMaxSearchReplicates) {
    problem(util::format("searchreps exceeds the portal limit of {}",
                         kMaxSearchReplicates));
  }
  if (job.genthresh == 0) {
    problem("genthreshfortopoterm must be positive");
  }
  if (job.population_size < 2) {
    problem("nindivs must be at least 2");
  }
  if (job.max_generations < job.genthresh) {
    problem("stopgen must be at least genthreshfortopoterm");
  }
  if (job.starting_tree) {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < alignment.n_taxa(); ++i) {
      names.push_back(alignment.taxon_name(i));
    }
    try {
      (void)Tree::parse_newick(*job.starting_tree, names);
    } catch (const std::exception& error) {
      problem(util::format("starting tree: {}", error.what()));
    }
  }
  return v;
}

GarliRunResult run_garli_job(const GarliJob& job, const Alignment& alignment) {
  const GarliValidation v = validate_garli_job(job, alignment);
  if (!v.ok) {
    throw std::invalid_argument(util::format(
        "garli job failed validation: {}", v.problems.front()));
  }

  std::vector<std::string> names;
  for (std::size_t i = 0; i < alignment.n_taxa(); ++i) {
    names.push_back(alignment.taxon_name(i));
  }
  std::optional<Tree> starting_tree;
  if (job.starting_tree) {
    starting_tree = Tree::parse_newick(*job.starting_tree, names);
  }

  // One eigendecomposition per job: the start-tree warm-up and every
  // replicate's search share the compiled model.
  const auto model = std::make_shared<const SubstitutionModel>(job.model);
  GarliRunResult result;
  util::Rng bootstrap_rng(job.seed ^ 0xb0075742ULL);
  for (std::size_t rep = 0; rep < job.search_replicates; ++rep) {
    const Alignment* data = &alignment;
    Alignment resampled(alignment.data_type(), alignment.n_sites());
    if (job.bootstrap) {
      resampled = alignment.bootstrap_resample(bootstrap_rng);
      data = &resampled;
    }
    const PatternizedAlignment patterns(*data);

    GaConfig config;
    config.population_size = job.population_size;
    config.genthresh = job.genthresh;
    config.max_generations = job.max_generations;
    config.seed = job.seed + rep * 0x9e3779b9ULL;

    std::optional<Tree> replicate_start = starting_tree;
    if (!replicate_start &&
        job.start_topology != GarliJob::StartTopology::kRandom) {
      if (job.start_topology == GarliJob::StartTopology::kStepwise) {
        util::Rng stepwise_rng(config.seed ^ 0x57e9ULL);
        replicate_start = stepwise_addition_tree(patterns, stepwise_rng);
      } else {
        replicate_start = neighbor_joining_tree(*data);
      }
      // As GARLI does, optimize the starting tree's branch lengths before
      // seeding the population (parsimony/NJ lengths are not ML lengths).
      LikelihoodEngine warmup(patterns);
      warmup.enable_matrix_cache();
      optimize_branch_lengths(warmup, *replicate_start, *model, 1);
    }
    GaSearch search(patterns, model, config, replicate_start);
    const Individual& best = search.run();
    result.replicates.push_back(GarliReplicateResult{
        best.tree, best.log_likelihood, search.generation(),
        search.likelihood_evaluations()});
  }
  for (std::size_t rep = 1; rep < result.replicates.size(); ++rep) {
    if (result.replicates[rep].best_log_likelihood >
        result.replicates[result.best_replicate].best_log_likelihood) {
      result.best_replicate = rep;
    }
  }
  return result;
}

}  // namespace lattice::phylo
