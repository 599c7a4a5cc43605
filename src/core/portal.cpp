#include "core/portal.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/fmt.hpp"

namespace lattice::core {

Portal::Portal(LatticeSystem& system, PortalConfig config)
    : system_(system), config_(config) {
  system_.set_job_terminal_hook(
      [this](const grid::GridJob& job, bool completed) {
        on_job_terminal(job, completed);
      });
  set_observability(obs::MetricsRegistry::null());
}

void Portal::set_observability(obs::MetricsRegistry& metrics) {
  admit_accepted_ = &metrics.counter(
      "portal.admit_accepted", "batches",
      "submissions that passed validation and admission control");
  admit_rejected_ = &metrics.counter(
      "portal.admit_rejected", "batches",
      "submissions refused by the validation pass (bad form, oversized, "
      "invalid model)");
  admit_quota_denied_ = &metrics.counter(
      "portal.admit_quota_denied", "batches",
      "submissions refused because the user's concurrent-batch or "
      "replicates-in-flight quota was full");
  shed_guest_ = &metrics.counter(
      "portal.shed_guest", "batches",
      "guest submissions shed while the grid backlog sat at or above the "
      "shed watermark");
}

SubmitReceipt Portal::submit(const SubmissionRequest& request) {
  SubmitReceipt receipt;

  // Validation pass (paper: "the system uses a special GARLI validation
  // mode to ensure there are no problems ... before any jobs are
  // scheduled").
  if (request.user_email.empty()) {
    receipt.problems.push_back("an email address is required");
  }
  if (request.replicates == 0) {
    receipt.problems.push_back("at least one replicate is required");
  }
  if (request.replicates > PortalConfig::kMaxReplicates) {
    receipt.problems.push_back(util::format(
        "{} replicates exceeds the limit of {}", request.replicates,
        PortalConfig::kMaxReplicates));
  }
  if (request.alignment != nullptr) {
    const phylo::GarliValidation v =
        phylo::validate_garli_job(request.job, *request.alignment);
    for (const std::string& problem : v.problems) {
      receipt.problems.push_back(problem);
    }
  } else if (auto problem = request.job.model.validate()) {
    receipt.problems.push_back(*problem);
  }
  if (!receipt.problems.empty()) {
    admit_rejected_->inc();
    return receipt;
  }

  // Admission control. Shedding first: while the grid is saturated the
  // portal refuses guest work outright regardless of the guest's own
  // footprint — the backlog, not the user, is the problem.
  if (request.user_class == UserClass::kGuest &&
      config_.shed_backlog_watermark > 0 &&
      system_.grid_backlog() >= config_.shed_backlog_watermark) {
    receipt.problems.push_back(
        "the grid is at capacity; guest submissions are temporarily "
        "disabled — register or retry later");
    shed_guest_->inc();
    return receipt;
  }
  const UserQuota& quota = config_.quota_for(request.user_class);
  const auto user_it = users_.find(request.user_id);
  const UserState state =
      user_it == users_.end() ? UserState{} : user_it->second;
  if (quota.max_concurrent_batches > 0 &&
      state.active_batches >= quota.max_concurrent_batches) {
    receipt.problems.push_back(util::format(
        "concurrent-batch quota reached ({} of {} unfinished)",
        state.active_batches, quota.max_concurrent_batches));
  }
  if (quota.max_replicates_in_flight > 0 &&
      state.replicates_in_flight + request.replicates >
          quota.max_replicates_in_flight) {
    receipt.problems.push_back(util::format(
        "replicate quota reached ({} in flight + {} requested > {})",
        state.replicates_in_flight, request.replicates,
        quota.max_replicates_in_flight));
  }
  if (!receipt.problems.empty()) {
    admit_quota_denied_->inc();
    return receipt;
  }

  std::size_t num_taxa = request.num_taxa;
  std::size_t num_patterns = request.num_patterns;
  if (request.alignment != nullptr) {
    num_taxa = request.alignment->n_taxa();
    num_patterns =
        phylo::PatternizedAlignment(*request.alignment).n_patterns();
  }

  GarliFeatures features =
      features_from_job(request.job, num_taxa, num_patterns);
  features.search_reps = 1;  // featurize a single replicate first

  // Replicate bundling (§VI.A): very short replicates are grouped so that
  // per-job scheduling overhead does not dominate.
  std::size_t bundle = 1;
  const auto per_replicate = system_.estimate_runtime(features);
  if (per_replicate && *per_replicate < config_.bundle_threshold_seconds) {
    bundle = static_cast<std::size_t>(
        std::ceil(config_.bundle_target_seconds /
                  std::max(*per_replicate, 1.0)));
    bundle = std::clamp<std::size_t>(bundle, 1, PortalConfig::kMaxBundle);
    bundle = std::min(bundle, request.replicates);
  }

  BatchRecord record;
  record.id = next_batch_id_++;
  record.user_id = request.user_id;
  record.user_class = request.user_class;
  record.user_email = request.user_email;
  record.replicates = request.replicates;
  record.submitted = system_.simulation().now();

  grid::JobRequirements requirements;
  requirements.min_memory_gb =
      std::max(0.25, static_cast<double>(num_taxa) *
                         static_cast<double>(num_patterns) * 8.0 * 12.0 /
                         1e9);  // partials footprint heuristic
  // Data staged per attempt: the alignment in, trees/logs out (the shared
  // cost-model formula, so workunit payloads and deadline/stability math
  // all see the same sizes).
  const GarliCostModel::DataSizes data =
      system_.cost_model().data_sizes(features);
  const double input_mb = data.input_mb;
  const double output_mb = data.output_mb;

  std::size_t remaining = request.replicates;
  double eta_total = 0.0;
  bool have_eta = per_replicate.has_value();
  while (remaining > 0) {
    const std::size_t this_bundle = std::min(bundle, remaining);
    remaining -= this_bundle;
    GarliFeatures bundled = features;
    bundled.search_reps = static_cast<double>(this_bundle);
    const std::uint64_t job_id = system_.submit_garli_job(
        bundled, requirements, record.id, JobData{input_mb, output_mb},
        record.user_id);
    record.job_ids.push_back(job_id);
    if (have_eta) {
      eta_total = std::max(
          eta_total, *per_replicate * static_cast<double>(this_bundle));
    }
  }
  record.grid_jobs = record.job_ids.size();
  if (have_eta) record.eta_seconds = eta_total;

  record.notifications.push_back(Notification{
      record.submitted, "submitted",
      util::format("batch {}: {} replicates as {} grid jobs (bundle {})",
                   record.id, request.replicates, record.grid_jobs,
                   bundle)});

  UserState& user = users_[request.user_id];
  ++user.active_batches;
  user.replicates_in_flight += request.replicates;
  admit_accepted_->inc();

  receipt.accepted = true;
  receipt.batch_id = record.id;
  receipt.grid_jobs = record.grid_jobs;
  receipt.bundle_size = bundle;
  receipt.eta_seconds = record.eta_seconds;
  batches_[record.id] = std::move(record);
  return receipt;
}

const BatchRecord* Portal::batch(std::uint64_t id) const {
  const auto it = batches_.find(id);
  return it == batches_.end() ? nullptr : &it->second;
}

std::vector<std::string> Portal::result_manifest(std::uint64_t batch_id) const {
  std::vector<std::string> manifest;
  const BatchRecord* record = batch(batch_id);
  if (record == nullptr || !record->done) return manifest;
  manifest.reserve(record->job_ids.size());
  for (const std::uint64_t job_id : record->job_ids) {
    const grid::GridJob* member = system_.job(job_id);
    if (member == nullptr) continue;
    manifest.push_back(util::format(
        "job-{}.{}", member->id,
        member->state == grid::JobState::kCompleted ? "best_tree.tre"
                                                    : "FAILED"));
  }
  return manifest;
}

BatchProgress Portal::progress(std::uint64_t batch_id) const {
  BatchProgress progress;
  const BatchRecord* record = batch(batch_id);
  if (record == nullptr) return progress;  // found stays false
  progress.found = true;
  progress.batch_id = record->id;
  progress.grid_jobs = record->grid_jobs;
  progress.eta_seconds = record->eta_seconds;
  progress.completed_jobs = record->completed_jobs;
  progress.failed_jobs = record->failed_jobs;
  progress.done = record->done;
  for (const std::uint64_t job_id : record->job_ids) {
    const grid::GridJob* member = system_.job(job_id);
    if (member != nullptr && member->state == grid::JobState::kPending) {
      ++progress.pending_jobs;
    }
  }
  // Members parked at the grid level with the batch unfinished: the grid
  // currently has nowhere to place them (or is backing off), but the batch
  // survives — it drains when resources return.
  progress.degraded = !record->done && progress.pending_jobs > 0;
  return progress;
}

std::size_t Portal::cancel_batch(std::uint64_t id) {
  const auto it = batches_.find(id);
  if (it == batches_.end() || it->second.done) return 0;
  std::size_t cancelled = 0;
  for (const std::uint64_t job_id : it->second.job_ids) {
    if (system_.cancel_job(job_id)) ++cancelled;
  }
  if (cancelled > 0) {
    it->second.notifications.push_back(Notification{
        system_.simulation().now(), "cancelled",
        util::format("batch {}: {} jobs cancelled by user", id, cancelled)});
  }
  return cancelled;
}

std::size_t Portal::active_batches(UserId user) const {
  const auto it = users_.find(user);
  return it == users_.end() ? 0 : it->second.active_batches;
}

std::size_t Portal::replicates_in_flight(UserId user) const {
  const auto it = users_.find(user);
  return it == users_.end() ? 0 : it->second.replicates_in_flight;
}

void Portal::on_job_terminal(const grid::GridJob& job, bool completed) {
  const auto it = batches_.find(job.batch_id);
  if (it == batches_.end()) return;
  BatchRecord& record = it->second;
  if (completed) {
    ++record.completed_jobs;
  } else {
    ++record.failed_jobs;
    record.notifications.push_back(Notification{
        system_.simulation().now(), "job-failed",
        util::format("batch {}: grid job {} failed permanently", record.id,
                     job.id)});
  }
  if (record.completed_jobs + record.failed_jobs < record.grid_jobs) return;

  // Every member is terminal, so the bundle's listing is fixed from here
  // on; result_manifest() formats it when asked.
  record.done = true;
  record.finished = system_.simulation().now();
  record.notifications.push_back(Notification{
      record.finished, "completed",
      util::format("batch {}: results ready ({} of {} jobs succeeded)",
                   record.id, record.completed_jobs, record.grid_jobs)});

  // Release the user's quota hold now that the batch is terminal.
  const auto user_it = users_.find(record.user_id);
  if (user_it != users_.end()) {
    UserState& user = user_it->second;
    if (user.active_batches > 0) --user.active_batches;
    user.replicates_in_flight -=
        std::min(user.replicates_in_flight, record.replicates);
  }
}

}  // namespace lattice::core
