// BOINC server-side data model: workunits and their result instances.
// Mirrors the real schema's lifecycle — a workunit spawns result instances
// that are sent to hosts with a report deadline; the transitioner times out
// late results and issues replacements; the validator forms a quorum of
// returned results; the assimilator hands the canonical result back to the
// grid level.
#pragma once

#include <cstdint>

#include "grid/job.hpp"
#include "sim/simulation.hpp"

namespace lattice::boinc {

enum class ResultState : std::uint8_t {
  kUnsent,
  kInProgress,
  kSuccess,     // returned; awaiting validation
  kTimedOut,    // deadline passed without a report
  kAborted,     // server-side cancel (workunit already validated/cancelled)
  kError,       // host failed the computation
};

struct Result {
  std::uint64_t id = 0;
  std::uint64_t workunit_id = 0;
  std::uint64_t host_id = 0;  // 0 while unsent
  ResultState state = ResultState::kUnsent;
  /// Ids from this result to the next one its workunit issued (0: the
  /// last so far): the sibling link ResultChain walks. Sits in the
  /// padding after `state`.
  std::uint32_t next_gap = 0;
  sim::SimTime sent_time = 0.0;
  sim::SimTime deadline = 0.0;
  sim::SimTime received_time = 0.0;
  /// CPU-seconds the host spent on this instance.
  double cpu_seconds = 0.0;
  /// Opaque output fingerprint the validator compares (hosts with
  /// compute errors return a perturbed value).
  std::uint64_t output_hash = 0;
};
// Three ids 24 + state 1 (+3 padding) + link 4 + three times, CPU and hash
// 40 = 72 B; the server holds one per result ever issued.
static_assert(sizeof(Result) <= 80, "Result grew");

enum class WorkunitState : std::uint8_t {
  kActive,     // results outstanding or awaiting quorum
  kValidated,  // canonical result chosen; assimilated
  kCancelled,
  kError,      // exhausted max_total_results without quorum
};

/// One job's stay on the pool. The replication policy (target_nresults,
/// min_quorum, max_total_results) is the pool's BoincPoolConfig; the paper's
/// project ran with quorum 1, the benchmarks sweep it.
struct Workunit {
  std::uint64_t id = 0;
  /// The job this workunit computes (never null). Its compute demand
  /// (true_reference_runtime, in reference-machine seconds) and staged
  /// data sizes (input_mb downloaded before compute, output_mb uploaded
  /// before reporting, per result instance) are read through it.
  grid::GridJob* grid_job = nullptr;
  /// Report deadline given to each result instance, in seconds from send.
  double delay_bound = 0.0;
  sim::SimTime created = 0.0;
  /// Id of the first result issued for it (0: none yet); the rest follow
  /// along Result::next_gap in issuance order.
  std::uint64_t first_result = 0;
  /// Results issued for it so far.
  std::uint32_t result_count = 0;
  WorkunitState state = WorkunitState::kActive;
};
// Id, job, bound, created and first result 40 + count 4 + state 1 (+3
// padding) = 48 B; the server holds one per workunit ever created.
static_assert(sizeof(Workunit) <= 48, "Workunit grew");

/// A workunit's results in issuance order: a walk from its first result
/// along the sibling links of a result table whose entry i is result
/// i + 1. `Table` is `std::deque<Result>` or `const std::deque<Result>`.
template <typename Table>
class ResultChain {
 public:
  class iterator {
   public:
    iterator(Table* table, std::uint64_t id) : table_(table), id_(id) {}
    auto& operator*() const { return (*table_)[id_ - 1]; }
    iterator& operator++() {
      const std::uint32_t gap = (**this).next_gap;
      id_ = gap == 0 ? 0 : id_ + gap;
      return *this;
    }
    bool operator==(const iterator& other) const { return id_ == other.id_; }

   private:
    Table* table_;
    std::uint64_t id_;  // 0: past the last result
  };

  ResultChain(Table& table, const Workunit& wu)
      : table_(&table), first_(wu.first_result) {}
  iterator begin() const { return {table_, first_}; }
  iterator end() const { return {table_, 0}; }

 private:
  Table* table_;
  std::uint64_t first_;
};

}  // namespace lattice::boinc
