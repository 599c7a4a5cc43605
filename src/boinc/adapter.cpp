#include "boinc/adapter.hpp"

#include "util/fmt.hpp"

namespace lattice::boinc {

std::string workunit_template(const grid::GridJob& job,
                              const BoincPoolConfig& config) {
  std::string out = "<workunit>\n";
  out += util::format("  <name>{}-{}</name>\n", grid::kApplication, job.id);
  out += util::format("  <app_name>{}</app_name>\n", grid::kApplication);
  if (job.estimated_reference_runtime) {
    // rsc_fpops_est feeds client-side completion estimates; the reference
    // machine is defined as 1 GFLOP/s for this conversion.
    out += util::format("  <rsc_fpops_est>{:.0f}e9</rsc_fpops_est>\n",
                        *job.estimated_reference_runtime);
  }
  out += util::format("  <min_quorum>{}</min_quorum>\n", config.min_quorum);
  out += util::format("  <target_nresults>{}</target_nresults>\n",
                      config.target_nresults);
  out += "</workunit>\n";
  return out;
}

}  // namespace lattice::boinc
