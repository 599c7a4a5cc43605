#include "core/audit.hpp"

#include <cstdint>

#include "boinc/server.hpp"
#include "core/lattice.hpp"
#include "core/portal.hpp"
#include "net/model.hpp"
#include "obs/metrics.hpp"
#include "util/fmt.hpp"

namespace lattice::core {

std::vector<std::string> audit(LatticeSystem& system,
                               const obs::MetricsRegistry& metrics,
                               const Portal* portal,
                               std::size_t portal_submissions) {
  std::vector<std::string> failures;
  const auto check = [&failures](bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  };
  const auto counter = [&metrics](const char* name, const std::string& label) {
    const obs::Counter* found = metrics.find_counter(name, label);
    return found != nullptr ? found->value() : 0;
  };

  // Job conservation. A job that exhausted its attempts stays kFailed (a
  // retried one goes back to kPending), so the states partition the table.
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t user_completed = 0;
  system.for_each_job([&](const grid::GridJob& job) {
    ++jobs;
    if (job.state == grid::JobState::kCompleted) {
      ++completed;
      if (job.user_id != 0) ++user_completed;
    } else if (job.state == grid::JobState::kFailed) {
      ++failed;
    } else if (job.state == grid::JobState::kCancelled) {
      ++cancelled;
    }
  });
  const LatticeMetrics& m = system.metrics();
  check(m.submitted == m.completed + m.abandoned + cancelled,
        util::format("conservation: submitted {} != completed {} + "
                     "abandoned {} + cancelled {}",
                     m.submitted, m.completed, m.abandoned, cancelled));
  check(completed == m.completed && failed == m.abandoned,
        util::format("conservation: job states ({} completed, {} failed) "
                     "disagree with the counters ({}, {})",
                     completed, failed, m.completed, m.abandoned));
  check(completed + failed + cancelled == jobs && system.pending_jobs() == 0,
        util::format("conservation: {} jobs still outstanding",
                     jobs - completed - failed - cancelled));

  for (const std::string& name : system.resource_names()) {
    const boinc::BoincServer* pool = system.pool(name);
    if (pool == nullptr) continue;
    // Ledger closure: every workunit decided, and the issue/send counters
    // account for exactly the results the workunits hold.
    std::uint64_t open_workunits = 0;
    std::uint64_t open_results = 0;
    std::uint64_t results = 0;
    std::uint64_t results_with_host = 0;
    for (const auto& [id, wu] : pool->workunits()) {
      if (wu.state == boinc::WorkunitState::kActive) ++open_workunits;
      for (const boinc::Result& result : wu.results) {
        ++results;
        if (result.host_id != 0) ++results_with_host;
        if (result.state == boinc::ResultState::kUnsent ||
            result.state == boinc::ResultState::kInProgress) {
          ++open_results;
        }
      }
    }
    check(open_workunits == 0 && open_results == 0,
          util::format("boinc: {} left {} workunits active and {} results "
                       "unsent or in progress",
                       name, open_workunits, open_results));
    const std::uint64_t issued = counter("boinc.results_issued", name);
    check(issued == results,
          util::format("boinc: {} issued {} results but its workunits hold "
                       "{}",
                       name, issued, results));
    const std::uint64_t sent = counter("boinc.results_sent", name);
    check(sent == results_with_host,
          util::format("boinc: {} sent {} results but {} have a host", name,
                       sent, results_with_host));
    if (pool->config().min_quorum >= 2) {
      check(pool->corrupted_validations() == 0,
            util::format("validation: {} corrupted results became canonical "
                         "on {} under quorum {}",
                         pool->corrupted_validations(), name,
                         pool->config().min_quorum));
    }
    const net::NetworkModel* network = pool->network();
    if (network == nullptr) continue;
    check(network->transfers_started() >= sent,
          util::format("transfers: {} sent {} results but started only {} "
                       "transfers",
                       name, sent, network->transfers_started()));
    check(sent == 0 || network->megabytes_moved(net::Direction::kDown) > 0.0,
          util::format("transfers: {} sent results but downloaded nothing",
                       name));
    check(counter("boinc.results_success", name) == 0 ||
              network->megabytes_moved(net::Direction::kUp) > 0.0,
          util::format("transfers: {} got results back but uploaded nothing",
                       name));
  }

  // Dispatch charges the user once per attempt, so completions bound it.
  check(metrics.counter_total("sched.fair_share_charges") >= user_completed,
        util::format("fair share: {} user jobs completed but only {} "
                     "charges",
                     user_completed,
                     metrics.counter_total("sched.fair_share_charges")));

  if (portal != nullptr) {
    const std::uint64_t accepted =
        metrics.counter_total("portal.admit_accepted");
    const std::uint64_t verdicts =
        accepted + metrics.counter_total("portal.admit_rejected") +
        metrics.counter_total("portal.admit_quota_denied") +
        metrics.counter_total("portal.shed_guest");
    check(verdicts == portal_submissions,
          util::format("admission: {} verdicts for {} submissions", verdicts,
                       portal_submissions));
    std::uint64_t done = 0;
    for (const auto& [id, batch] : portal->batches()) done += batch.done;
    check(accepted == portal->batches().size() && done == accepted,
          util::format("admission: {} accepted, {} batches recorded, {} "
                       "drained",
                       accepted, portal->batches().size(), done));
  }
  return failures;
}

}  // namespace lattice::core
