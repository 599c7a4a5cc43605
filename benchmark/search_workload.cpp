// The garli_search workload: fixed-length island-GA searches, the compute
// the grid exists to run, on the host itself. Three searches (DNA, amino
// acid, codon; each gamma(4)) make up one batch submitted together; they run
// back to back on a two-worker util::ThreadPool.
//
// Searches are fixed-length (genthresh off, a set number of migration
// rounds) so a pass always does the same work for a seed, and the best
// log-likelihood bits and generation counts must not depend on the thread
// count or on tracing.
//
// Turnaround is priced, not read off the host clock: each finished search
// is one grid job whose runtime the grid's own cost surface
// (core::GarliCostModel) gives on the reference machine, so the turnaround
// metrics repeat exactly for a seed as they do on the grid workloads. Host
// time shows in work_per_s.
#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/alignment.hpp"
#include "phylo/island.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/model.hpp"
#include "phylo/simulate.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace lattice::bench {
namespace {

struct SearchSpec {
  const char* name;
  phylo::DataType type;
  std::size_t taxa;
  std::size_t sites;
  std::size_t rounds;
};

// Codon work dominates a pass (61-state transition matrices), which is
// where a generic-state kernel change would show.
constexpr SearchSpec kSearches[] = {
    {"dna", phylo::DataType::kNucleotide, 32, 1000, 100},
    {"aa", phylo::DataType::kAminoAcid, 16, 300, 50},
    {"codon", phylo::DataType::kCodon, 8, 100, 8},
};

/// Likelihood evaluations each probe times.
constexpr int kFullEvalProbes = 40;
constexpr int kIncrementalEvalProbes = 400;

phylo::ModelSpec model_for(phylo::DataType type) {
  phylo::ModelSpec spec;
  spec.data_type = type;
  spec.rate_het = phylo::RateHet::kGamma;
  spec.n_rate_categories = 4;
  return spec;
}

/// One search's inputs; the alignment must outlive the search.
struct Search {
  const SearchSpec* spec = nullptr;
  phylo::Tree true_tree;
  std::unique_ptr<phylo::PatternizedAlignment> data;
  std::unique_ptr<phylo::IslandGaSearch> ga;
};

/// Median wall time (us) of full and single-branch incremental
/// evaluations on probe engines over the true tree. The incremental engine
/// publishes its reuse and matrix-cache counters into `registry`.
struct EvalProbe {
  double full_us = 0.0;
  double incremental_us = 0.0;
};

EvalProbe probe_evaluations(const Search& search,
                            obs::MetricsRegistry& registry) {
  const phylo::SubstitutionModel model(model_for(search.spec->type));
  EvalProbe probe;
  std::vector<double> samples;
  {
    phylo::LikelihoodEngine engine(*search.data);
    engine.enable_matrix_cache();
    engine.enable_incremental(false);
    const phylo::Tree tree = search.true_tree;
    for (int i = 0; i < kFullEvalProbes; ++i) {
      const auto start = Clock::now();
      engine.log_likelihood(tree, model);
      samples.push_back(seconds_since(start) * 1e6);
    }
    probe.full_us = quantile(samples, 0.5);
  }
  samples.clear();
  {
    phylo::LikelihoodEngine engine(*search.data);
    engine.enable_matrix_cache();
    engine.set_observability(registry, obs::Tracer::null());
    phylo::Tree tree = search.true_tree;
    engine.log_likelihood(tree, model);  // fill the partials once
    std::size_t branch = 0;
    for (int i = 0; i < kIncrementalEvalProbes; ++i) {
      const int node = static_cast<int>(branch++ % tree.n_nodes());
      if (node != tree.root()) {
        tree.set_branch_length(node, tree.branch_length(node) * 1.01);
      }
      const auto start = Clock::now();
      engine.log_likelihood(tree, model);
      samples.push_back(seconds_since(start) * 1e6);
    }
    probe.incremental_us = quantile(samples, 0.5);
  }
  return probe;
}

/// Reference-machine seconds the cost surface gives a finished search.
/// Dimensions are the declared ones, as a portal submission declares them:
/// the simulated alignments' unique-pattern counts move 5% between seeds.
/// These searches have no termination window, so the surface's
/// search-length term (genthresh) gets the generations each island ran.
double priced_seconds(const Search& search) {
  const phylo::ModelSpec model = model_for(search.spec->type);
  core::GarliFeatures features;
  features.num_taxa = static_cast<double>(search.spec->taxa);
  features.num_patterns = static_cast<double>(search.spec->sites);
  features.data_type = static_cast<int>(model.data_type);
  features.rate_het_model = static_cast<int>(model.rate_het);
  features.num_rate_categories = static_cast<double>(model.n_rate_categories);
  features.subst_model_params =
      static_cast<double>(model.free_rate_parameters());
  features.search_reps = 1;
  features.genthresh = static_cast<double>(search.ga->total_generations()) /
                       static_cast<double>(search.ga->n_islands());
  features.has_starting_tree = false;
  return core::GarliCostModel().expected_runtime(features);
}

}  // namespace

PassResult run_garli_search(const PassConfig& config) {
  PassResult result;
  SpanLog* spans = config.spans;

  const auto setup_start = Clock::now();
  std::vector<Search> searches;
  double inputs_s = 0.0;
  double populations_s = 0.0;
  {
    ScopedSpan setup(spans, "setup");
    std::uint64_t stream = 0;
    for (const SearchSpec& spec : kSearches) {
      ++stream;
      Search search;
      search.spec = &spec;
      auto start = Clock::now();
      {
        ScopedSpan span(spans, "setup.inputs");
        util::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + stream);
        phylo::SimulatedDataset dataset = phylo::simulate_dataset(
            spec.taxa, spec.sites, model_for(spec.type), rng, 0.1);
        search.true_tree = dataset.tree;
        search.data =
            std::make_unique<phylo::PatternizedAlignment>(dataset.alignment);
      }
      inputs_s += seconds_since(start);
      start = Clock::now();
      {
        ScopedSpan span(spans, "setup.populations");
        phylo::IslandGaConfig ga;
        ga.n_islands = 4;
        ga.migration_interval = 5;
        ga.max_rounds = spec.rounds;
        ga.island.genthresh = 1u << 30;
        ga.island.max_generations = 1u << 30;
        ga.island.seed = config.seed * 1000003ULL + stream;
        search.ga = std::make_unique<phylo::IslandGaSearch>(
            *search.data, model_for(spec.type), ga);
      }
      populations_s += seconds_since(start);
      searches.push_back(std::move(search));
    }
  }
  const double setup_s = seconds_since(setup_start);
  if (config.setup_only) {
    result.end_to_end = {{"setup_s", setup_s, "s"}};
    return result;
  }

  // Islands advance in parallel on the pool between migrations; the
  // calling thread drains islands too (parallel_for always runs on its
  // caller), so four islands on two workers take two island-times per
  // round. Fanning evaluations across the pool as well measured no faster.
  std::optional<util::ThreadPool> pool;
  if (config.pool_workers > 0) pool.emplace(config.pool_workers);
  util::ThreadPool* workers = pool ? &*pool : nullptr;

  Digest digest;
  std::vector<double> finish_h;
  double priced_s = 0.0;
  std::vector<double> search_s;
  double generations = 0.0;
  double evaluations = 0.0;
  const auto phase_start = Clock::now();
  {
    ScopedSpan phase(spans, "measure");
    for (Search& search : searches) {
      const auto start = Clock::now();
      {
        ScopedSpan span(spans,
                        std::string("phylo.search.") + search.spec->name);
        while (!search.ga->done()) {
          ScopedSpan round(spans, "phylo.round");
          search.ga->round(workers);
        }
      }
      search_s.push_back(seconds_since(start));
      // The batch's searches run back to back, as they do here.
      priced_s += priced_seconds(search);
      finish_h.push_back(priced_s / 3600.0);

      const phylo::Individual& best = search.ga->best();
      double search_evaluations = 0.0;
      for (std::size_t i = 0; i < search.ga->n_islands(); ++i) {
        search_evaluations +=
            static_cast<double>(search.ga->island(i).likelihood_evaluations());
      }
      generations += static_cast<double>(search.ga->total_generations());
      evaluations += search_evaluations;
      digest.add(best.log_likelihood);
      digest.add(static_cast<std::uint64_t>(search.ga->total_generations()));
      digest.add(search_evaluations);

      if (!std::isfinite(best.log_likelihood) || best.log_likelihood >= 0.0) {
        result.problems.push_back(util::format(
            "{} search: best log-likelihood {} is not a finite negative value",
            search.spec->name, best.log_likelihood));
      }
      if (search.ga->rounds() != search.spec->rounds) {
        result.problems.push_back(util::format(
            "{} search: ran {} rounds, expected {}", search.spec->name,
            search.ga->rounds(), search.spec->rounds));
      }
    }
  }
  const double phase_s = seconds_since(phase_start);

  result.phase_s = phase_s;
  result.digest = digest.value();
  result.attempted = searches.size();
  // The three searches form one batch; each one's turnaround is its priced
  // completion time, and the batch's is the last completion. Three values
  // make p99 nearly the last one; they are computed, not sampled, so the
  // tail carries no sampling noise.
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"work_per_s", generations / phase_s, "1/s"},
      {"job_turnaround_p50_h", quantile(finish_h, 0.50), "h"},
      {"job_turnaround_p99_h", quantile(finish_h, 0.99), "h"},
      {"batch_turnaround_mean_h", finish_h.back(), "h"},
      {"useful_cpu_frac", 1.0, "ratio"},
      {"valid_result_frac",
       1.0 - static_cast<double>(result.problems.size()) /
                 static_cast<double>(searches.size()),
       "ratio"},
  };
  if (!config.traced) return result;

  result.layers = {
      {"setup.inputs_s", inputs_s, "s"},
      {"setup.populations_s", populations_s, "s"},
      {"phylo.evaluations", evaluations, "count"},
      {"phylo.generations", generations, "count"},
  };
  obs::MetricsRegistry registry;
  for (std::size_t i = 0; i < searches.size(); ++i) {
    const std::string name = searches[i].spec->name;
    result.layers.push_back({"phylo.search_s." + name, search_s[i], "s"});
    ScopedSpan span(spans, "probe.eval." + name);
    const EvalProbe probe = probe_evaluations(searches[i], registry);
    result.layers.push_back({"phylo.eval_us." + name, probe.full_us, "us"});
    result.layers.push_back(
        {"phylo.inc_eval_us." + name, probe.incremental_us, "us"});
  }
  const auto total = [&registry](std::string_view name) {
    return static_cast<double>(registry.counter_total(name));
  };
  const double reused = total("phylo.partials_reused");
  const double recomputed = total("phylo.partials_recomputed");
  const double hits = total("phylo.matrix_cache_hits");
  const double misses = total("phylo.matrix_cache_misses");
  result.layers.push_back(
      {"phylo.partials_reuse_frac", reused / (reused + recomputed), "ratio"});
  result.layers.push_back(
      {"phylo.matrix_cache_hit_frac", hits / (hits + misses), "ratio"});
  return result;
}

}  // namespace lattice::bench
