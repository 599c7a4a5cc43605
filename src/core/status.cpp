#include "core/status.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "util/fmt.hpp"
#include "util/table.hpp"

namespace lattice::core {

std::string resource_status_report(LatticeSystem& system) {
  util::Table table({"resource", "kind", "slots", "queued", "speed",
                     "class", "mds"});
  table.set_precision(2);
  for (const std::string& name : system.resource_names()) {
    grid::LocalResource* resource = system.resource(name);
    const grid::ResourceInfo info = resource->info();
    table.add_row(
        {name, std::string(grid::resource_kind_name(info.kind)),
         util::format("{}/{}", info.free_slots, info.total_slots),
         static_cast<long long>(info.queued_jobs),
         system.speeds().speed_or_default(name),
         std::string(info.stable ? "stable" : "unstable"),
         std::string(system.mds().is_online(name) ? "online" : "OFFLINE")});
  }
  std::ostringstream out;
  table.print(out);
  return out.str();
}

std::string job_status_report(const LatticeSystem& system) {
  const LatticeMetrics& m =
      const_cast<LatticeSystem&>(system).metrics();
  std::ostringstream out;
  out << util::format(
      "jobs: {} submitted, {} completed, {} abandoned, {} pending\n",
      m.submitted, m.completed, m.abandoned, system.pending_jobs());
  out << util::format(
      "attempts failed: {}; CPU: {:.1f}h useful, {:.1f}h wasted\n",
      m.failed_attempts, m.useful_cpu_seconds / 3600.0,
      m.wasted_cpu_seconds / 3600.0);
  if (m.completed > 0) {
    out << util::format("mean turnaround: {:.1f}h\n",
                        m.mean_turnaround() / 3600.0);
  }
  return out.str();
}

std::string job_attempts_report(const LatticeSystem& system,
                                std::size_t max_rows) {
  struct Row {
    std::uint64_t id;
    grid::JobState state;
    int attempts;
    grid::FailureCause last_failure;
    bool require_stable;
    std::string resource;
  };
  std::vector<Row> rows;
  system.for_each_job([&](const grid::GridJob& job) {
    rows.push_back(Row{job.id, job.state, job.attempts, job.last_failure,
                       job.require_stable,
                       std::string(grid::resource_name(job))});
  });
  // Most-retried jobs first; id ascending as the tie-break so the report
  // is deterministic.
  // lattice-lint: allow(decision-sort) — report formatting for operators, never on a placement decision path
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.attempts != b.attempts) return a.attempts > b.attempts;
    return a.id < b.id;
  });
  if (rows.size() > max_rows) rows.resize(max_rows);

  util::Table table(
      {"job", "state", "attempts", "last failure", "resource"});
  for (const Row& row : rows) {
    table.add_row(
        {static_cast<long long>(row.id),
         std::string(grid::job_state_name(row.state)),
         static_cast<long long>(row.attempts),
         std::string(grid::failure_cause_name(row.last_failure)) +
             (row.require_stable ? " [stable-only]" : ""),
         row.resource.empty() ? std::string("-") : row.resource});
  }
  std::ostringstream out;
  table.print(out);
  return out.str();
}

std::string batch_status_report(const Portal& portal) {
  std::ostringstream out;
  for (const auto& [id, record] : portal.batches()) {
    out << util::format(
        "batch {} ({}): {}/{} jobs done, {} failed{}{}\n", id,
        record.user_email, record.completed_jobs, record.grid_jobs,
        record.failed_jobs, record.done ? " [COMPLETE]" : "",
        record.eta_seconds
            ? util::format(" eta={:.1f}h", *record.eta_seconds / 3600.0)
            : std::string{});
  }
  return out.str();
}

}  // namespace lattice::core
