#include "net/model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/ini.hpp"

namespace lattice::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Mbit/s -> MB/s. All internal arithmetic is in megabytes and seconds.
constexpr double mbps_to_mbs(double mbps) { return mbps / 8.0; }

}  // namespace

/// Min-heap ordering over (finish_key, id): std::push_heap/pop_heap build
/// max-heaps, so the comparator is the reverse lexicographic order. The id
/// tiebreak makes pop order a total order — independent of insertion
/// order, which is what the same-epoch start-reordering test pins down.
bool NetworkModel::entry_after(const LaneEntry& a, const LaneEntry& b) {
  return a.finish_key > b.finish_key ||
         (a.finish_key == b.finish_key && a.id > b.id);
}

std::uint32_t NetConfig::class_of_host(std::uint64_t host_key) const {
  if (classes.size() <= 1) return 0;
  // Golden-ratio stride: fract(key * (phi - 1)). Exact IEEE multiply and
  // subtraction on values well inside the 2^53 integer range, so every
  // platform lands the same host in the same class.
  constexpr double kGoldenConjugate = 0.6180339887498949;
  const double scaled = static_cast<double>(host_key) * kGoldenConjugate;
  const double position = scaled - std::floor(scaled);
  double total = 0.0;
  for (const LinkClassSpec& spec : classes) {
    total += std::max(0.0, spec.fraction);
  }
  if (total <= 0.0) return 0;
  double cumulative = 0.0;
  for (std::uint32_t i = 0; i < classes.size(); ++i) {
    cumulative += std::max(0.0, classes[i].fraction) / total;
    if (position < cumulative) return i;
  }
  return static_cast<std::uint32_t>(classes.size() - 1);
}

NetConfig NetConfig::volunteer_default() {
  NetConfig config;
  config.enabled = true;
  config.classes = {
      {"broadband", 50.0, 10.0, 0.02, 0.55},
      {"dsl", 8.0, 1.0, 0.05, 0.35},
      {"modem", 0.056, 0.033, 0.5, 0.10},
  };
  return config;
}

NetworkModel::NetworkModel(sim::Simulation& sim, NetConfig config)
    : sim_(sim), config_(std::move(config)) {
  if (config_.classes.empty()) {
    config_.classes.push_back(LinkClassSpec{"default", 16.0, 1.0, 0.05, 1.0});
  }
  down_.capacity_mbs = mbps_to_mbs(config_.server_down_mbps);
  up_.capacity_mbs = mbps_to_mbs(config_.server_up_mbps);
  down_.lanes.resize(config_.classes.size());
  up_.lanes.resize(config_.classes.size());
  for (std::size_t i = 0; i < config_.classes.size(); ++i) {
    down_.lanes[i].bw_mbs = mbps_to_mbs(config_.classes[i].down_mbps);
    up_.lanes[i].bw_mbs = mbps_to_mbs(config_.classes[i].up_mbps);
  }
  auto& null = obs::MetricsRegistry::null();
  bind_metrics(null, {});
}

NetworkModel::~NetworkModel() {
  sim_.cancel(down_.next);
  sim_.cancel(up_.next);
}

void NetworkModel::bind_metrics(obs::MetricsRegistry& metrics,
                                const std::string& label) {
  obs_bytes_down_ = &metrics.counter(
      "net.bytes_down", "bytes",
      "workunit input bytes staged server->host", label);
  obs_bytes_up_ = &metrics.counter(
      "net.bytes_up", "bytes", "result output bytes returned host->server",
      label);
  obs_started_ = &metrics.counter("net.transfers_started", "transfers",
                                  "transfers entered the contention model",
                                  label);
  obs_completed_ = &metrics.counter(
      "net.transfers_completed", "transfers",
      "transfers whose bytes (and latency) finished", label);
  obs_cancelled_ = &metrics.counter(
      "net.transfers_cancelled", "transfers",
      "transfers aborted mid-flight (departure, workunit cancel)", label);
  obs_downlink_busy_ = &metrics.gauge(
      "net.downlink_busy", "transfers",
      "flows currently sharing the server download pipe", label);
  obs_uplink_busy_ = &metrics.gauge(
      "net.uplink_busy", "transfers",
      "flows currently sharing the server upload pipe", label);
  obs_wait_ = &metrics.histogram(
      "net.transfer_wait_s", {1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0},
      "s", "end-to-end transfer time including contention and latency",
      label);
}

void NetworkModel::set_busy_gauges() {
  obs_downlink_busy_->set(static_cast<double>(down_.active));
  obs_uplink_busy_->set(static_cast<double>(up_.active));
}

double NetworkModel::lane_rate(const Pipe& p, const Lane& lane) const {
  if (uplink_outage_) return 0.0;
  const double access = lane.bw_mbs * lane.scale;
  if (access <= 0.0 || p.active == 0) return 0.0;
  // Fair share of the server pipe across *all* active flows, capped by the
  // class access link. Capped classes do not return their unused share —
  // the documented simplification that keeps each epoch O(classes).
  const double share = p.capacity_mbs / static_cast<double>(p.active);
  return std::min(access, share);
}

void NetworkModel::accrue(Pipe& p) {
  const sim::SimTime now = sim_.now();
  const double dt = now - p.last_epoch;
  p.last_epoch = now;
  if (dt <= 0.0 || p.active == 0) return;
  for (Lane& lane : p.lanes) {
    if (lane.active == 0) continue;
    lane.attained_mb += lane_rate(p, lane) * dt;
  }
}

void NetworkModel::prune_dead(Lane& lane) {
  while (!lane.heap.empty() &&
         !flows_[lane.heap.front().id - 1].alive) {
    std::pop_heap(lane.heap.begin(), lane.heap.end(), entry_after);
    lane.heap.pop_back();
  }
}

void NetworkModel::reproject(Pipe& p, Direction direction) {
  sim_.cancel(p.next);
  if (p.active == 0) return;
  double best_dt = kInf;
  for (Lane& lane : p.lanes) {
    if (lane.active == 0) continue;
    prune_dead(lane);
    const double rate = lane_rate(p, lane);
    if (rate <= 0.0) continue;
    const double dt =
        std::max(0.0, (lane.heap.front().finish_key - lane.attained_mb) /
                          rate);
    best_dt = std::min(best_dt, dt);
  }
  // All lanes stalled (outage / degraded to zero): leave no event pending;
  // the next epoch that restores a rate reprojects.
  if (best_dt == kInf) return;
  p.next = sim_.at(sim_.now() + best_dt,
                   [this, direction] { on_pipe_event(direction); });
}

void NetworkModel::on_pipe_event(Direction direction) {
  Pipe& p = pipe(direction);
  p.next = sim::EventHandle{};
  accrue(p);
  // Re-derive the argmin lane with the same arithmetic reproject used; the
  // winner's top flow is retired unconditionally (snap-on-pop below), so
  // float drift can delay a completion only into an immediate zero-delay
  // reprojection, never lose it.
  Lane* best_lane = nullptr;
  double best_dt = kInf;
  for (Lane& lane : p.lanes) {
    if (lane.active == 0) continue;
    prune_dead(lane);
    const double rate = lane_rate(p, lane);
    if (rate <= 0.0) continue;
    const double dt =
        std::max(0.0, (lane.heap.front().finish_key - lane.attained_mb) /
                          rate);
    if (dt < best_dt) {
      best_dt = dt;
      best_lane = &lane;
    }
  }
  if (best_lane != nullptr) {
    complete_flow(p, *best_lane, best_lane->heap.front().id);
  }
  reproject(p, direction);
}

void NetworkModel::complete_flow(Pipe& p, Lane& lane, std::uint64_t id) {
  Flow& flow = flows_[id - 1];
  assert(flow.alive);
  // Snap the lane odometer to the retired flow's finish key: later flows in
  // the lane measure from the exact key, so accumulated float error cannot
  // stall a queue behind an almost-finished transfer.
  lane.attained_mb = std::max(lane.attained_mb, flow.finish_key);
  flow.alive = false;
  lane.active -= 1;
  p.active -= 1;
  prune_dead(lane);
  completed_ += 1;
  const double wait = sim_.now() + flow.latency_s - flow.started;
  obs_completed_->inc();
  obs_wait_->observe(wait);
  if (flow.direction == Direction::kDown) {
    down_mb_moved_ += flow.size_mb;
    obs_bytes_down_->inc(static_cast<std::uint64_t>(flow.size_mb * 1e6));
  } else {
    up_mb_moved_ += flow.size_mb;
    obs_bytes_up_->inc(static_cast<std::uint64_t>(flow.size_mb * 1e6));
  }
  set_busy_gauges();
  // Latency rides after the bytes; the callback owns its own guard against
  // the task having moved on (hosts key callbacks by result id).
  sim_.after(flow.latency_s, std::move(flow.done));
}

std::uint64_t NetworkModel::start(Direction direction,
                                  std::uint32_t link_class, double size_mb,
                                  sim::EventFn done) {
  assert(link_class < config_.classes.size());
  started_ += 1;
  obs_started_->inc();
  const double latency = config_.classes[link_class].latency_s;
  flows_.emplace_back();
  const std::uint64_t id = flows_.size();
  Flow& flow = flows_.back();
  flow.size_mb = std::max(0.0, size_mb);
  flow.latency_s = latency;
  flow.started = sim_.now();
  flow.lane = link_class;
  flow.direction = direction;
  if (flow.size_mb <= 0.0) {
    // Zero-size fast path: nothing contends, only the latency fires. The
    // returned id is already completed (cancel() returns false).
    completed_ += 1;
    obs_completed_->inc();
    obs_wait_->observe(latency);
    sim_.after(latency, std::move(done));
    return id;
  }
  flow.done = std::move(done);
  flow.alive = true;

  Pipe& p = pipe(direction);
  accrue(p);
  Lane& lane = p.lanes[link_class];
  flow.finish_key = lane.attained_mb + flow.size_mb;
  lane.heap.push_back(LaneEntry{flow.finish_key, id});
  std::push_heap(lane.heap.begin(), lane.heap.end(), entry_after);
  lane.active += 1;
  p.active += 1;
  set_busy_gauges();
  reproject(p, direction);
  return id;
}

bool NetworkModel::cancel(std::uint64_t transfer_id) {
  if (transfer_id == 0 || transfer_id > flows_.size()) return false;
  Flow& flow = flows_[transfer_id - 1];
  if (!flow.alive) return false;
  Pipe& p = pipe(flow.direction);
  accrue(p);
  flow.alive = false;
  flow.done = sim::EventFn{};
  Lane& lane = p.lanes[flow.lane];
  lane.active -= 1;
  p.active -= 1;
  prune_dead(lane);
  cancelled_ += 1;
  obs_cancelled_->inc();
  set_busy_gauges();
  reproject(p, flow.direction);
  return true;
}

void NetworkModel::set_class_bandwidth_scale(std::uint32_t link_class,
                                             double scale) {
  assert(link_class < config_.classes.size());
  accrue(down_);
  accrue(up_);
  down_.lanes[link_class].scale = scale;
  up_.lanes[link_class].scale = scale;
  reproject(down_, Direction::kDown);
  reproject(up_, Direction::kUp);
}

void NetworkModel::set_uplink_outage(bool outage) {
  if (outage == uplink_outage_) return;
  accrue(down_);
  accrue(up_);
  uplink_outage_ = outage;
  reproject(down_, Direction::kDown);
  reproject(up_, Direction::kUp);
}

std::optional<std::uint32_t> NetworkModel::class_index(
    std::string_view name) const {
  for (std::uint32_t i = 0; i < config_.classes.size(); ++i) {
    if (config_.classes[i].name == name) return i;
  }
  return std::nullopt;
}

double NetworkModel::expected_staging_seconds(double input_mb,
                                              double output_mb) const {
  double total_fraction = 0.0;
  for (const LinkClassSpec& spec : config_.classes) {
    total_fraction += std::max(0.0, spec.fraction);
  }
  if (total_fraction <= 0.0) return 0.0;
  double expected = 0.0;
  for (const LinkClassSpec& spec : config_.classes) {
    const double weight = std::max(0.0, spec.fraction) / total_fraction;
    double seconds = 2.0 * spec.latency_s;
    if (spec.down_mbps > 0.0) seconds += input_mb / mbps_to_mbs(spec.down_mbps);
    if (spec.up_mbps > 0.0) seconds += output_mb / mbps_to_mbs(spec.up_mbps);
    expected += weight * seconds;
  }
  return expected;
}

NetConfig net_profile_from_ini(const util::IniFile& ini) {
  NetConfig config;
  config.enabled = ini.get_bool("net", "enabled", true);
  config.server_down_mbps =
      ini.get_double("net", "server_down_mbps", config.server_down_mbps);
  config.server_up_mbps =
      ini.get_double("net", "server_up_mbps", config.server_up_mbps);
  if (config.server_down_mbps <= 0.0 || config.server_up_mbps <= 0.0) {
    throw std::runtime_error("net profile: server pipe rates must be > 0");
  }
  for (const std::string& section : ini.section_names()) {
    constexpr std::string_view kPrefix = "class.";
    if (section.rfind(kPrefix, 0) != 0) continue;
    LinkClassSpec spec;
    spec.name = section.substr(kPrefix.size());
    if (spec.name.empty()) {
      throw std::runtime_error("net profile: [class.] needs a name");
    }
    spec.down_mbps = ini.get_double(section, "down_mbps", spec.down_mbps);
    spec.up_mbps = ini.get_double(section, "up_mbps", spec.up_mbps);
    spec.latency_s = ini.get_double(section, "latency_s", spec.latency_s);
    spec.fraction = ini.get_double(section, "fraction", spec.fraction);
    if (spec.down_mbps <= 0.0 || spec.up_mbps <= 0.0) {
      throw std::runtime_error("net profile: class '" + spec.name +
                               "' bandwidth must be > 0");
    }
    if (spec.latency_s < 0.0 || spec.fraction <= 0.0) {
      throw std::runtime_error("net profile: class '" + spec.name +
                               "' needs latency_s >= 0 and fraction > 0");
    }
    config.classes.push_back(std::move(spec));
  }
  if (config.enabled && config.classes.empty()) {
    throw std::runtime_error(
        "net profile: enabled profile defines no [class.<name>] sections");
  }
  return config;
}

}  // namespace lattice::net
