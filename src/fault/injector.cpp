#include "fault/injector.hpp"

#include <stdexcept>

#include "boinc/server.hpp"
#include "net/model.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace lattice::fault {

FaultInjector::FaultInjector(core::LatticeSystem& system, FaultPlan plan)
    : system_(system), plan_(std::move(plan)) {
  set_observability(obs::MetricsRegistry::null());
}

void FaultInjector::set_observability(obs::MetricsRegistry& metrics) {
  obs_begun_ = &metrics.counter("fault.outages_begun", "outages",
                                "resource outage windows entered");
  obs_ended_ = &metrics.counter("fault.outages_ended", "outages",
                                "resource outage windows exited");
  obs_link_begun_ =
      &metrics.counter("fault.link_windows_begun", "windows",
                       "link-class degradation windows entered");
  obs_link_ended_ =
      &metrics.counter("fault.link_windows_ended", "windows",
                       "link-class degradation windows exited");
  obs_uplink_begun_ =
      &metrics.counter("fault.uplink_outages_begun", "outages",
                       "server-uplink outage windows entered");
  obs_uplink_ended_ =
      &metrics.counter("fault.uplink_outages_ended", "outages",
                       "server-uplink outage windows exited");
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  // The actions capture references into plan_, which is immutable after
  // arm(), so they outlive every scheduled window.
  for (const ResourceOutage& outage : plan_.outages) {
    if (system_.resource(outage.resource) == nullptr) {
      throw std::runtime_error(util::format(
          "fault plan: outage names unknown resource '{}'",
          outage.resource));
    }
    const Window& window = windows_.emplace_back(
        Window{outage.duration, outage.period,
               [this, &outage] { begin_outage(outage); },
               [this, &outage] { end_outage(outage); }});
    schedule_window(window, outage.start);
  }

  if (plan_.link_faults.empty() && plan_.uplink_outages.empty()) return;
  const std::vector<boinc::BoincServer*> pools = net_pools();
  if (pools.empty()) {
    throw std::runtime_error(
        "fault plan: [link.*]/[uplink] windows need a volunteer pool with "
        "the network model enabled");
  }
  for (const LinkFault& fault : plan_.link_faults) {
    // Resolve the class name on every net-enabled pool up front: a typo'd
    // class fails at arm(), not silently mid-run. Classes can differ per
    // pool, so each pool keeps its own index; the resolved targets are
    // copied into the actions (pools outlive the run).
    std::vector<std::pair<boinc::BoincServer*, std::uint32_t>> targets;
    for (boinc::BoincServer* pool : pools) {
      const auto index = pool->network()->class_index(fault.link_class);
      if (!index) {
        throw std::runtime_error(util::format(
            "fault plan: [link.{}] names a class unknown to pool '{}'",
            fault.link_class, pool->name()));
      }
      targets.emplace_back(pool, *index);
    }
    const Window& window = windows_.emplace_back(Window{
        fault.duration, fault.period,
        [this, &fault, targets] {
          obs_link_begun_->inc();
          util::log_info("fault", "link class {}: bandwidth x{:.2f}",
                         fault.link_class, fault.bandwidth_scale);
          for (const auto& [pool, index] : targets) {
            pool->network()->set_class_bandwidth_scale(index,
                                                       fault.bandwidth_scale);
          }
        },
        [this, &fault, targets] {
          obs_link_ended_->inc();
          util::log_info("fault", "link class {}: bandwidth restored",
                         fault.link_class);
          for (const auto& [pool, index] : targets) {
            pool->network()->set_class_bandwidth_scale(index, 1.0);
          }
        }});
    schedule_window(window, fault.start);
  }
  for (const UplinkOutage& outage : plan_.uplink_outages) {
    const Window& window = windows_.emplace_back(Window{
        outage.duration, outage.period,
        [this] {
          obs_uplink_begun_->inc();
          util::log_info("fault", "server uplink: outage begins");
          for (boinc::BoincServer* pool : net_pools()) {
            pool->network()->set_uplink_outage(true);
          }
        },
        [this] {
          obs_uplink_ended_->inc();
          util::log_info("fault", "server uplink: outage ends");
          for (boinc::BoincServer* pool : net_pools()) {
            pool->network()->set_uplink_outage(false);
          }
        }});
    schedule_window(window, outage.start);
  }
}

void FaultInjector::schedule_window(const Window& window, double start) {
  // Periodic windows chain the next repetition lazily (when this one
  // begins) so a finite run schedules a bounded number of events.
  sim::Simulation& sim = system_.simulation();
  sim.at(start, [this, &window, start] {
    window.begin();
    if (window.period > 0.0) schedule_window(window, start + window.period);
  });
  sim.at(start + window.duration, [&window] { window.end(); });
}

void FaultInjector::begin_outage(const ResourceOutage& outage) {
  ++begun_;
  obs_begun_->inc();
  util::log_info("fault", "{}: outage begins{}", outage.resource,
                 outage.heartbeat_only ? " (heartbeat only)" : "");
  if (!outage.heartbeat_only) {
    system_.resource(outage.resource)->set_outage(true);
  }
  system_.mds().set_heartbeat_blackout(outage.resource, true);
}

void FaultInjector::end_outage(const ResourceOutage& outage) {
  obs_ended_->inc();
  util::log_info("fault", "{}: outage ends", outage.resource);
  system_.mds().set_heartbeat_blackout(outage.resource, false);
  if (!outage.heartbeat_only) {
    system_.resource(outage.resource)->set_outage(false);
  }
  // Re-announce immediately so the scheduler does not wait out a full
  // provider period (plus TTL) before using the recovered resource.
  system_.mds().report(system_.resource(outage.resource)->info());
}

std::vector<boinc::BoincServer*> FaultInjector::net_pools() const {
  std::vector<boinc::BoincServer*> pools;
  // resource_names() preserves creation order, so the window's
  // set_class_bandwidth_scale calls land in a deterministic pool order.
  for (const std::string& name : system_.resource_names()) {
    boinc::BoincServer* pool = system_.pool(name);
    if (pool != nullptr && pool->network() != nullptr) {
      pools.push_back(pool);
    }
  }
  return pools;
}

}  // namespace lattice::fault
