#include "grid/adapter.hpp"

#include "grid/classad.hpp"
#include "util/fmt.hpp"

namespace lattice::grid {

std::string condor_submit_file(const GridJob& job) {
  std::string out;
  out += util::format("universe = vanilla\n");
  out += util::format("executable = {}\n", kApplication);
  out += util::format("requirements = {}\n",
                      condor_requirements_expression(job));
  if (job.requirements->min_memory_gb > 0.0) {
    out += util::format("request_memory = {:.0f}MB\n",
                        job.requirements->min_memory_gb * 1024.0);
  }
  out += "queue 1\n";
  return out;
}

std::string pbs_script(const GridJob& job) {
  std::string out = "#!/bin/sh\n";
  out += util::format("#PBS -N {}-{}\n", kApplication, job.id);
  out += "#PBS -l nodes=1:ppn=1";
  if (job.requirements->min_memory_gb > 0.0) {
    out += util::format(",mem={:.0f}mb",
                        job.requirements->min_memory_gb * 1024.0);
  }
  out += "\n";
  if (job.estimated_reference_runtime) {
    // Pad the estimate so a modest underestimate does not hit walltime.
    const double padded = *job.estimated_reference_runtime * 2.0;
    const auto hours = static_cast<long long>(padded / 3600.0);
    const auto minutes =
        static_cast<long long>((padded - static_cast<double>(hours) * 3600.0) / 60.0) % 60;
    out += util::format("#PBS -l walltime={}:{:2d}:00\n", hours, minutes);
  }
  out += util::format("{}\n", kApplication);
  return out;
}

std::string sge_script(const GridJob& job) {
  std::string out = "#!/bin/sh\n";
  out += util::format("#$ -N {}-{}\n", kApplication, job.id);
  out += "#$ -cwd\n";
  if (job.requirements->min_memory_gb > 0.0) {
    out += util::format("#$ -l mem_free={:.1f}G\n",
                        job.requirements->min_memory_gb);
  }
  if (job.requirements->needs_mpi) {
    out += "#$ -pe mpi 1\n";
  }
  out += util::format("{}\n", kApplication);
  return out;
}

}  // namespace lattice::grid
