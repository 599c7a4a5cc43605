// The BOINC scheduler adapter's submit descriptor — the component the
// paper's group "wrote completely from scratch": a grid-level RSL job
// becomes a BOINC workunit. Submission goes straight to
// BoincServer::submit, which takes the estimate-derived report deadline;
// this renders the workunit template a real adapter hands to create_work.
#pragma once

#include <string>

#include "boinc/config.hpp"
#include "grid/job.hpp"

namespace lattice::boinc {

/// Workunit template (the XML-ish <workunit> block) for `job` on a pool
/// configured as `config`.
std::string workunit_template(const grid::GridJob& job,
                              const BoincPoolConfig& config);

}  // namespace lattice::boinc
