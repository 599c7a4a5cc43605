// Submit-descriptor rendering: what the Globus scheduler adapters write
// when they translate a generic RSL job description into a
// resource-specific submission (a Condor submit file, a PBS script, an SGE
// script). The paper customized the stock Condor and PBS adapters,
// assembled an SGE one, and wrote the BOINC one from scratch
// (src/boinc/adapter.hpp). Submission itself goes straight to the
// LocalResource; these functions only render the descriptor.
#pragma once

#include <string>

#include "grid/job.hpp"

namespace lattice::grid {

/// condor_submit description file.
std::string condor_submit_file(const GridJob& job);

/// #PBS batch script.
std::string pbs_script(const GridJob& job);

/// #$ (SGE) batch script.
std::string sge_script(const GridJob& job);

}  // namespace lattice::grid
