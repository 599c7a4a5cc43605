// Run-end invariant audit: the accounting any run must balance, checked
// once after the clock stops instead of hand-coded into each scenario.
//   * Jobs: submitted = completed + abandoned + cancelled, the counters
//     agree with the job states, and nothing is left outstanding.
//   * Every BOINC workunit was decided, no result is left unsent or in
//     progress, and the pool's results_issued/results_sent counters equal
//     the results its workunits hold / the ones handed to a host.
//   * No corrupted result became canonical on a pool with quorum >= 2.
//   * A net-enabled pool started a transfer per result sent, and moved
//     bytes both ways once results flowed.
//   * The portal's admission ledger accounts for every submission, and
//     every accepted batch drained.
//   * Every completed user job was charged to the fair-share odometer.
// The system's observability must be bound to `metrics` for the whole run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lattice::obs {
class MetricsRegistry;
}  // namespace lattice::obs

namespace lattice::core {

class LatticeSystem;
class Portal;

/// One line per violated invariant; empty when the run balances. Pass the
/// portal (and how many submissions it was offered) to audit its ledger.
std::vector<std::string> audit(LatticeSystem& system,
                               const obs::MetricsRegistry& metrics,
                               const Portal* portal = nullptr,
                               std::size_t portal_submissions = 0);

}  // namespace lattice::core
