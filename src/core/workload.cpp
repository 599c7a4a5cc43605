#include "core/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "core/portal.hpp"
#include "util/fmt.hpp"

namespace lattice::core {

std::vector<WorkloadEntry> generate_diurnal_workload(
    std::size_t n_jobs, const DiurnalConfig& config,
    const GarliCostModel& model, util::Rng& rng) {
  if (config.amplitude < 0.0 || config.amplitude >= 1.0) {
    throw std::invalid_argument("workload: amplitude must be in [0, 1)");
  }
  std::vector<WorkloadEntry> workload;
  workload.reserve(n_jobs);
  // Thinning for the non-homogeneous Poisson process with
  //   rate(t) = base * (1 + amplitude * cos(2*pi*(hour(t) - peak)/24)).
  const double base_rate = config.mean_jobs_per_day / 86400.0;
  const double max_rate = base_rate * (1.0 + config.amplitude);
  double t = 0.0;
  while (workload.size() < n_jobs) {
    t += rng.exponential(1.0 / max_rate);
    const double hour = std::fmod(t / 3600.0, 24.0);
    const double rate =
        base_rate *
        (1.0 + config.amplitude *
                   std::cos(2.0 * std::numbers::pi *
                            (hour - config.peak_hour) / 24.0));
    if (rng.uniform() * max_rate > rate) continue;  // thinned out
    WorkloadEntry entry;
    entry.arrival_seconds = t;
    do {
      entry.features = random_features(rng);
    } while (model.expected_runtime(entry.features) >
             config.max_expected_hours * 3600.0);
    entry.true_reference_runtime =
        model.sample_runtime(entry.features, rng);
    workload.push_back(entry);
  }
  return workload;
}

UserPopulation::UserPopulation(UserPopulationConfig config)
    : config_(config) {
  const auto check = [](const UserClassMix& mix, const char* name) {
    if (mix.pareto_alpha <= 0.0) {
      throw std::invalid_argument(util::format(
          "workload: {} pareto_alpha must be > 0", name));
    }
    // A NaN or inf rate would turn the aggregate rate (users * rate, even
    // for an empty class: 0 * inf) into NaN arrival times.
    if (!std::isfinite(mix.batches_per_user_day)) {
      throw std::invalid_argument(util::format(
          "workload: {} batches_per_user_day must be finite", name));
    }
    if (mix.users > 0 && mix.batches_per_user_day < 0.0) {
      throw std::invalid_argument(util::format(
          "workload: {} batches_per_user_day must be >= 0", name));
    }
  };
  check(config_.guests, "guests");
  check(config_.registered, "registered");
  check(config_.power, "power");
}

std::size_t UserPopulation::total_users() const {
  return config_.guests.users + config_.registered.users +
         config_.power.users;
}

double UserPopulation::total_batches_per_day() const {
  const auto rate = [](const UserClassMix& mix) {
    return static_cast<double>(mix.users) * mix.batches_per_user_day;
  };
  return rate(config_.guests) + rate(config_.registered) +
         rate(config_.power);
}

UserClass UserPopulation::class_of(UserId user) const {
  if (user <= config_.guests.users) return UserClass::kGuest;
  if (user <= config_.guests.users + config_.registered.users) {
    return UserClass::kRegistered;
  }
  return UserClass::kPower;
}

std::vector<WorkloadEntry> UserPopulation::generate(
    std::size_t n_batches, const GarliCostModel& model,
    util::Rng& rng) const {
  const double rate_guest = static_cast<double>(config_.guests.users) *
                            config_.guests.batches_per_user_day;
  const double rate_registered =
      static_cast<double>(config_.registered.users) *
      config_.registered.batches_per_user_day;
  const double rate_power = static_cast<double>(config_.power.users) *
                            config_.power.batches_per_user_day;
  const double total_rate = rate_guest + rate_registered + rate_power;
  if (total_rate <= 0.0) {
    throw std::invalid_argument(
        "workload: user population has zero aggregate submission rate");
  }
  const double mean_interarrival_seconds = 86400.0 / total_rate;

  std::vector<WorkloadEntry> workload;
  workload.reserve(n_batches);
  double t = 0.0;
  while (workload.size() < n_batches) {
    t += rng.exponential(mean_interarrival_seconds);

    // Superposition: the aggregate process is Poisson at the summed rate,
    // and each arrival belongs to a class with probability proportional to
    // that class's share of the rate.
    const double class_roll = rng.uniform() * total_rate;
    const UserClassMix* mix = &config_.guests;
    UserId class_base = 0;
    UserClass user_class = UserClass::kGuest;
    if (class_roll >= rate_guest + rate_registered) {
      mix = &config_.power;
      class_base = config_.guests.users + config_.registered.users;
      user_class = UserClass::kPower;
    } else if (class_roll >= rate_guest) {
      mix = &config_.registered;
      class_base = config_.guests.users;
      user_class = UserClass::kRegistered;
    }

    WorkloadEntry entry;
    entry.arrival_seconds = t;
    entry.user_id = class_base + 1 + rng.below(mix->users);
    entry.user_class = user_class;

    // Discrete Pareto batch size clamped at the web cap: most batches stay
    // near min_replicates, the tail saturates at max_replicates.
    const double u = std::max(rng.uniform(), 1e-12);
    const double raw = static_cast<double>(mix->min_replicates) *
                       std::pow(u, -1.0 / mix->pareto_alpha);
    entry.replicates = static_cast<std::size_t>(std::min(
        raw, static_cast<double>(config_.max_replicates)));
    entry.replicates =
        std::clamp<std::size_t>(entry.replicates, 1, config_.max_replicates);

    do {
      entry.features = random_features(rng);
      entry.features.search_reps = 1;  // the portal featurizes per replicate
    } while (model.expected_runtime(entry.features) >
             config_.max_expected_hours * 3600.0);
    workload.push_back(entry);
  }
  return workload;
}

std::string workload_to_csv(const std::vector<WorkloadEntry>& workload) {
  std::ostringstream out;
  out << "arrival_seconds,num_taxa,num_patterns,data_type,rate_het_model,"
         "num_rate_categories,subst_model_params,search_reps,genthresh,"
         "has_starting_tree,true_reference_runtime,user_id,user_class,"
         "replicates\n";
  out.precision(17);
  for (const WorkloadEntry& entry : workload) {
    const GarliFeatures& f = entry.features;
    out << entry.arrival_seconds << ',' << f.num_taxa << ','
        << f.num_patterns << ',' << f.data_type << ',' << f.rate_het_model
        << ',' << f.num_rate_categories << ',' << f.subst_model_params
        << ',' << f.search_reps << ',' << f.genthresh << ','
        << (f.has_starting_tree ? 1 : 0) << ','
        << entry.true_reference_runtime << ',' << entry.user_id << ','
        << static_cast<int>(entry.user_class) << ',' << entry.replicates
        << '\n';
  }
  return out.str();
}

std::vector<WorkloadEntry> workload_from_csv(std::string_view csv) {
  std::istringstream in{std::string(csv)};
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("workload: empty trace");
  }
  if (line.find("arrival_seconds") == std::string::npos) {
    throw std::runtime_error("workload: missing header row");
  }
  std::vector<WorkloadEntry> workload;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream row(line);
    WorkloadEntry entry;
    GarliFeatures& f = entry.features;
    char comma = 0;
    int has_tree = 0;
    if (!(row >> entry.arrival_seconds >> comma >> f.num_taxa >> comma >>
          f.num_patterns >> comma >> f.data_type >> comma >>
          f.rate_het_model >> comma >> f.num_rate_categories >> comma >>
          f.subst_model_params >> comma >> f.search_reps >> comma >>
          f.genthresh >> comma >> has_tree >> comma >>
          entry.true_reference_runtime)) {
      throw std::runtime_error(
          util::format("workload: malformed row at line {}", line_number));
    }
    f.has_starting_tree = has_tree != 0;
    // Per-user columns are optional: pre-portal traces end at the runtime
    // column and parse with no user attribution.
    int user_class = 0;
    if (row >> comma >> entry.user_id >> comma >> user_class >> comma >>
        entry.replicates) {
      if (user_class < 0 || user_class > 2) {
        throw std::runtime_error(util::format(
            "workload: unknown user_class {} at line {}", user_class,
            line_number));
      }
      entry.user_class = static_cast<UserClass>(user_class);
    }
    workload.push_back(entry);
  }
  return workload;
}

namespace {

/// Inverse of features_from_job for trace replay: rebuild a GarliJob whose
/// featurization reproduces the recorded predictors. The concrete model is
/// the simplest one with the recorded free-parameter count — the cost
/// surface only sees the count, so any witness is equivalent.
phylo::GarliJob job_from_features(const GarliFeatures& f) {
  phylo::GarliJob job;
  job.model.data_type = static_cast<phylo::DataType>(f.data_type);
  job.model.rate_het = static_cast<phylo::RateHet>(f.rate_het_model);
  job.model.n_rate_categories =
      static_cast<std::size_t>(std::max(1.0, f.num_rate_categories));
  if (job.model.data_type == phylo::DataType::kNucleotide) {
    job.model.nuc_model = f.subst_model_params >= 5.0
                              ? phylo::NucModel::kGTR
                              : (f.subst_model_params >= 1.0
                                     ? phylo::NucModel::kHKY85
                                     : phylo::NucModel::kJC69);
  } else if (job.model.data_type == phylo::DataType::kAminoAcid) {
    job.model.aa_model = f.subst_model_params >= 1.0
                             ? phylo::AaModel::kChemClass
                             : phylo::AaModel::kPoisson;
  }
  job.search_replicates = 1;  // the portal bundles replicates itself
  job.genthresh = static_cast<std::size_t>(std::max(1.0, f.genthresh));
  if (f.has_starting_tree) {
    // Placeholder user tree so the has-starting-tree predictor survives
    // the round trip; never parsed unless an alignment is validated.
    job.starting_tree = "(t1,t2,(t3,t4));";
  }
  return job;
}

}  // namespace

void submit_portal_workload(Portal& portal,
                            const std::vector<WorkloadEntry>& workload) {
  LatticeSystem& system = portal.system();
  for (const WorkloadEntry& source : workload) {
    if (source.replicates == 0) continue;  // plain grid-level trace row
    const WorkloadEntry entry = source;  // copy into the closure
    system.simulation().at(entry.arrival_seconds, [&portal, entry] {
      SubmissionRequest request;
      request.user_id = entry.user_id;
      request.user_class = entry.user_class;
      request.user_email =
          util::format("user{}@lattice.example", entry.user_id);
      request.job = job_from_features(entry.features);
      request.replicates = entry.replicates;
      request.num_taxa = static_cast<std::size_t>(entry.features.num_taxa);
      request.num_patterns =
          static_cast<std::size_t>(entry.features.num_patterns);
      portal.submit(request);
    });
  }
}

void submit_workload(LatticeSystem& system,
                     const std::vector<WorkloadEntry>& workload) {
  for (const WorkloadEntry& source : workload) {
    const WorkloadEntry entry = source;  // copy into the closure
    system.simulation().at(entry.arrival_seconds, [&system, entry] {
      if (entry.true_reference_runtime > 0.0) {
        system.submit_job_with_runtime(entry.features,
                                       entry.true_reference_runtime);
      } else {
        system.submit_garli_job(entry.features);
      }
    });
  }
}

}  // namespace lattice::core
