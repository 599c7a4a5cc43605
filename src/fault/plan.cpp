#include "fault/plan.hpp"

#include <sstream>
#include <stdexcept>

#include "util/fmt.hpp"

namespace lattice::fault {

void apply_fault_plan(const FaultPlan& plan, boinc::BoincPoolConfig& config) {
  if (plan.churn.active()) {
    config.mean_on_hours *= plan.churn.on_scale;
    config.mean_off_hours *= plan.churn.off_scale;
    config.mean_lifetime_days *= plan.churn.lifetime_scale;
    config.churn_weibull_shape = plan.churn.weibull_shape;
  }
  if (plan.flaky_host_fraction >= 0.0) {
    config.flaky_host_fraction = plan.flaky_host_fraction;
  }
  if (plan.normal_hosts.compute_error_probability >= 0.0) {
    config.host_compute_error_probability =
        plan.normal_hosts.compute_error_probability;
  }
  if (plan.normal_hosts.corruption_probability >= 0.0) {
    config.host_error_probability = plan.normal_hosts.corruption_probability;
  }
  if (plan.flaky_hosts.compute_error_probability >= 0.0) {
    config.flaky_compute_error_probability =
        plan.flaky_hosts.compute_error_probability;
  }
  if (plan.flaky_hosts.corruption_probability >= 0.0) {
    config.flaky_error_probability = plan.flaky_hosts.corruption_probability;
  }
  config.report_drop_probability = plan.report_path.drop_probability;
  config.report_delay_probability = plan.report_path.delay_probability;
  config.report_delay_seconds = plan.report_path.delay_seconds;
}

FaultPlan fault_plan_from_ini(const util::IniFile& ini) {
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(ini.get_int("plan", "seed", 1));

  plan.churn.on_scale = ini.get_double("churn", "on_scale", 1.0);
  plan.churn.off_scale = ini.get_double("churn", "off_scale", 1.0);
  plan.churn.lifetime_scale = ini.get_double("churn", "lifetime_scale", 1.0);
  plan.churn.weibull_shape = ini.get_double("churn", "weibull_shape", 1.0);

  plan.flaky_host_fraction = ini.get_double("hosts", "flaky_fraction", -1.0);
  plan.normal_hosts.compute_error_probability =
      ini.get_double("hosts", "compute_error_probability", -1.0);
  plan.normal_hosts.corruption_probability =
      ini.get_double("hosts", "corruption_probability", -1.0);
  plan.flaky_hosts.compute_error_probability =
      ini.get_double("hosts", "flaky_compute_error_probability", -1.0);
  plan.flaky_hosts.corruption_probability =
      ini.get_double("hosts", "flaky_corruption_probability", -1.0);

  plan.report_path.drop_probability =
      ini.get_double("report_path", "drop_probability", 0.0);
  plan.report_path.delay_probability =
      ini.get_double("report_path", "delay_probability", 0.0);
  plan.report_path.delay_seconds =
      ini.get_double("report_path", "delay_seconds", 0.0);

  // One [outage.<resource>] section per window, in file order.
  for (const std::string& section : ini.section_names()) {
    const std::string prefix = "outage.";
    if (section.size() <= prefix.size() ||
        section.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    ResourceOutage outage;
    outage.resource = section.substr(prefix.size());
    outage.start = ini.get_double(section, "start", 0.0);
    outage.duration = ini.get_double(section, "duration", 0.0);
    outage.period = ini.get_double(section, "period", 0.0);
    outage.heartbeat_only = ini.get_bool(section, "heartbeat_only", false);
    if (outage.duration <= 0.0) {
      throw std::runtime_error(util::format(
          "fault plan: [{}] needs a positive duration", section));
    }
    if (outage.period > 0.0 && outage.period <= outage.duration) {
      throw std::runtime_error(util::format(
          "fault plan: [{}] period must exceed its duration", section));
    }
    plan.outages.push_back(std::move(outage));
  }

  // One [link.<class>] degradation window per section, in file order.
  for (const std::string& section : ini.section_names()) {
    const std::string prefix = "link.";
    if (section.size() <= prefix.size() ||
        section.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    LinkFault fault;
    fault.link_class = section.substr(prefix.size());
    fault.bandwidth_scale = ini.get_double(section, "bandwidth_scale", 1.0);
    fault.start = ini.get_double(section, "start", 0.0);
    fault.duration = ini.get_double(section, "duration", 0.0);
    fault.period = ini.get_double(section, "period", 0.0);
    if (fault.bandwidth_scale < 0.0) {
      throw std::runtime_error(util::format(
          "fault plan: [{}] bandwidth_scale must be >= 0", section));
    }
    if (fault.duration <= 0.0) {
      throw std::runtime_error(util::format(
          "fault plan: [{}] needs a positive duration", section));
    }
    if (fault.period > 0.0 && fault.period <= fault.duration) {
      throw std::runtime_error(util::format(
          "fault plan: [{}] period must exceed its duration", section));
    }
    plan.link_faults.push_back(std::move(fault));
  }

  // [uplink]: a (possibly periodic) server-connectivity outage window.
  for (const std::string& section : ini.section_names()) {
    if (section != "uplink") continue;
    UplinkOutage outage;
    outage.start = ini.get_double(section, "start", 0.0);
    outage.duration = ini.get_double(section, "duration", 0.0);
    outage.period = ini.get_double(section, "period", 0.0);
    if (outage.duration <= 0.0) {
      throw std::runtime_error(
          "fault plan: [uplink] needs a positive duration");
    }
    if (outage.period > 0.0 && outage.period <= outage.duration) {
      throw std::runtime_error(
          "fault plan: [uplink] period must exceed its duration");
    }
    plan.uplink_outages.push_back(outage);
  }
  return plan;
}

FaultPlan load_fault_plan(const std::string& path) {
  return fault_plan_from_ini(util::IniFile::load(path));
}

std::string fault_plan_summary(const FaultPlan& plan) {
  std::ostringstream out;
  out << util::format("fault plan (seed {}):\n", plan.seed);
  if (plan.churn.active()) {
    out << util::format(
        "  churn: on x{:.2f}, off x{:.2f}, lifetime x{:.2f}, shape {:.2f}\n",
        plan.churn.on_scale, plan.churn.off_scale, plan.churn.lifetime_scale,
        plan.churn.weibull_shape);
  }
  if (plan.flaky_host_fraction >= 0.0 || plan.normal_hosts.active() ||
      plan.flaky_hosts.active()) {
    out << util::format(
        "  hosts: flaky_fraction {:.3f}, normal err/corrupt {:.3f}/{:.3f}, "
        "flaky err/corrupt {:.3f}/{:.3f}\n",
        plan.flaky_host_fraction,
        plan.normal_hosts.compute_error_probability,
        plan.normal_hosts.corruption_probability,
        plan.flaky_hosts.compute_error_probability,
        plan.flaky_hosts.corruption_probability);
  }
  if (plan.report_path.active()) {
    out << util::format(
        "  report path: drop {:.3f}, delay {:.3f} x {:.0f}s\n",
        plan.report_path.drop_probability,
        plan.report_path.delay_probability, plan.report_path.delay_seconds);
  }
  for (const ResourceOutage& outage : plan.outages) {
    out << util::format(
        "  outage: {} at {:.0f}s for {:.0f}s{}{}\n", outage.resource,
        outage.start, outage.duration,
        outage.period > 0.0
            ? util::format(", every {:.0f}s", outage.period)
            : std::string{},
        outage.heartbeat_only ? std::string(" (heartbeat only)")
                              : std::string{});
  }
  for (const LinkFault& fault : plan.link_faults) {
    out << util::format(
        "  link: {} x{:.2f} at {:.0f}s for {:.0f}s{}\n", fault.link_class,
        fault.bandwidth_scale, fault.start, fault.duration,
        fault.period > 0.0
            ? util::format(", every {:.0f}s", fault.period)
            : std::string{});
  }
  for (const UplinkOutage& outage : plan.uplink_outages) {
    out << util::format(
        "  uplink outage: at {:.0f}s for {:.0f}s{}\n", outage.start,
        outage.duration,
        outage.period > 0.0
            ? util::format(", every {:.0f}s", outage.period)
            : std::string{});
  }
  if (!plan.active()) out << "  (inactive: no faults configured)\n";
  return out.str();
}

}  // namespace lattice::fault
