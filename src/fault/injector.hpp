// Time-driven fault injection on a running LatticeSystem: arms the plan's
// resource outage windows on the simulation clock. A full outage calls the
// resource's set_outage (failing held work with FailureCause::kOutage and
// bouncing submissions) AND blacks out its MDS heartbeats; a heartbeat-only
// outage does just the latter, so in-flight work survives but the
// scheduler routes around the resource.
//
// Network faults ride the same machinery: [link.<class>] windows scale a
// link class's bandwidth on every net-enabled volunteer pool, and [uplink]
// windows stall the shared server uplink outright — both are applied at
// window edges through NetworkModel's epoch recompute, so in-flight
// transfers slow/stall/resume without being dropped (docs/RESILIENCE.md).
//
// Host-level faults (churn, error rates, report path) are config-time —
// apply_fault_plan() must rewrite the BoincPoolConfig before the pool is
// built; the injector only handles what varies with simulated time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "core/lattice.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"

namespace lattice::boinc {
class BoincServer;
}  // namespace lattice::boinc

namespace lattice::fault {

class FaultInjector {
 public:
  /// Binds to the system; nothing is scheduled until arm().
  FaultInjector(core::LatticeSystem& system, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every outage, link-degradation, and uplink window of the
  /// plan. Call once, before run(); windows naming unknown resources or
  /// link classes — or network windows with no net-enabled pool to act
  /// on — throw std::runtime_error (a plan typo should fail loudly, not
  /// silently inject nothing).
  void arm();

  /// Count fault transitions in the given registry (fault.outages_begun /
  /// fault.outages_ended, plus fault.link_windows_* and
  /// fault.uplink_outages_* for network windows). Defaults to the null
  /// registry.
  void set_observability(obs::MetricsRegistry& metrics);

  const FaultPlan& plan() const { return plan_; }
  /// Windows armed so far (each periodic repetition counts once when it
  /// begins).
  std::uint64_t outages_begun() const { return begun_; }

 private:
  /// One plan window: `begin` runs at each repetition's start, `end`
  /// `duration` seconds later; a positive `period` repeats it.
  struct Window {
    double duration;
    double period;
    std::function<void()> begin;
    std::function<void()> end;
  };
  /// Schedule the repetition of `window` that starts at `start`.
  void schedule_window(const Window& window, double start);
  void begin_outage(const ResourceOutage& outage);
  void end_outage(const ResourceOutage& outage);
  std::vector<boinc::BoincServer*> net_pools() const;

  core::LatticeSystem& system_;
  FaultPlan plan_;
  bool armed_ = false;
  /// Armed windows; a deque, so the references scheduled events hold stay
  /// valid as arm() appends.
  std::deque<Window> windows_;
  std::uint64_t begun_ = 0;

  obs::Counter* obs_begun_ = nullptr;
  obs::Counter* obs_ended_ = nullptr;
  obs::Counter* obs_link_begun_ = nullptr;
  obs::Counter* obs_link_ended_ = nullptr;
  obs::Counter* obs_uplink_begun_ = nullptr;
  obs::Counter* obs_uplink_ended_ = nullptr;
};

}  // namespace lattice::fault
