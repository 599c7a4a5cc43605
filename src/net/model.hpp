// The deterministic transfer engine (docs/NETWORKING.md): two contended
// pipes (server->hosts downloads, hosts->server uploads), each running a
// per-link-class virtual-time processor-sharing model. Per-flow progress is
// only recomputed at epochs — transfer start, finish, cancel, and fault
// transitions — so completion times are bit-deterministic and the kernel
// event count stays bounded (each pipe keeps exactly one pending completion
// event; every firing retires at least one flow).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/config.hpp"
#include "obs/metrics.hpp"
#include "sim/event_fn.hpp"
#include "sim/simulation.hpp"

namespace lattice::util {
class IniFile;
}  // namespace lattice::util

namespace lattice::net {

/// Transfer direction relative to the project server: kDown stages
/// workunit inputs to a host, kUp returns result outputs.
enum class Direction : std::uint8_t { kDown = 0, kUp = 1 };

class NetworkModel {
 public:
  NetworkModel(sim::Simulation& sim, NetConfig config);
  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;
  ~NetworkModel();

  /// Start a transfer of `size_mb` on link class `link_class`. `done` fires
  /// through the sim kernel once the bytes complete plus the class latency.
  /// Returns the transfer id (for cancel); zero-size transfers bypass the
  /// contention engine entirely (latency-only fast path) and return an id
  /// that is already completed.
  std::uint64_t start(Direction direction, std::uint32_t link_class,
                      double size_mb, sim::EventFn done);

  /// Abort an in-flight transfer (host departed, workunit cancelled). The
  /// done callback never fires. Returns false if the id already completed,
  /// was cancelled, or is past the byte stage (latency callback pending —
  /// callers guard their callbacks against stale delivery instead).
  bool cancel(std::uint64_t transfer_id);

  /// Fault hooks ([link.<class>] and [uplink] plan sections): scale a
  /// class's bandwidth (0 stalls its flows), or stall the whole server
  /// pipe pair. Both are epochs: progress accrues first, then rates change.
  void set_class_bandwidth_scale(std::uint32_t link_class, double scale);
  void set_uplink_outage(bool outage);

  /// Index of the named class in config().classes, if present.
  std::optional<std::uint32_t> class_index(std::string_view name) const;

  /// Population-weighted uncontended staging time for one attempt's data
  /// (input down + output up + both latencies): the transitioner and the
  /// server's default delay bound use this to keep deadlines achievable on
  /// the slowest cohorts without simulating anything.
  double expected_staging_seconds(double input_mb, double output_mb) const;

  const NetConfig& config() const { return config_; }
  std::uint64_t transfers_started() const { return started_; }
  std::uint64_t transfers_completed() const { return completed_; }
  std::uint64_t transfers_cancelled() const { return cancelled_; }
  std::size_t active_transfers() const {
    return down_.active + up_.active;
  }
  double megabytes_moved(Direction direction) const {
    return direction == Direction::kDown ? down_mb_moved_ : up_mb_moved_;
  }

  /// Rebind the net.* instruments from the null registry to a live one
  /// (BoincServer::on_observability), labeled with the pool name.
  void bind_metrics(obs::MetricsRegistry& metrics, const std::string& label);

 private:
  /// A flow's heap entry: lane virtual progress at which its bytes finish.
  struct LaneEntry {
    double finish_key;
    std::uint64_t id;
  };
  struct Flow {
    double finish_key = 0.0;
    double size_mb = 0.0;
    double latency_s = 0.0;
    sim::SimTime started = 0.0;
    sim::EventFn done;
    std::uint32_t lane = 0;
    Direction direction = Direction::kDown;
    bool alive = false;
  };
  /// One link class's share of a pipe: flows in a lane progress in
  /// lockstep, so a single `attained_mb` odometer plus a min-heap of
  /// finish keys replaces per-flow state (docs/NETWORKING.md).
  struct Lane {
    double bw_mbs = 0.0;   // class access rate for this direction, MB/s
    double scale = 1.0;    // fault degradation multiplier
    double attained_mb = 0.0;
    std::size_t active = 0;
    std::vector<LaneEntry> heap;  // lazy-deletion min-heap (key, id)
  };
  struct Pipe {
    double capacity_mbs = 0.0;  // shared server-side rate cap, MB/s
    std::size_t active = 0;
    sim::SimTime last_epoch = 0.0;
    sim::EventHandle next{};
    std::vector<Lane> lanes;
  };

  Pipe& pipe(Direction direction) {
    return direction == Direction::kDown ? down_ : up_;
  }
  static bool entry_after(const LaneEntry& a, const LaneEntry& b);
  double lane_rate(const Pipe& p, const Lane& lane) const;
  void accrue(Pipe& p);
  void prune_dead(Lane& lane);
  void reproject(Pipe& p, Direction direction);
  void on_pipe_event(Direction direction);
  void complete_flow(Pipe& p, Lane& lane, std::uint64_t id);
  void set_busy_gauges();

  sim::Simulation& sim_;
  NetConfig config_;
  bool uplink_outage_ = false;
  std::vector<Flow> flows_;  // id = index + 1, append-only
  Pipe down_;
  Pipe up_;

  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  double down_mb_moved_ = 0.0;
  double up_mb_moved_ = 0.0;

  obs::Counter* obs_bytes_down_ = nullptr;
  obs::Counter* obs_bytes_up_ = nullptr;
  obs::Counter* obs_started_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;
  obs::Gauge* obs_downlink_busy_ = nullptr;
  obs::Gauge* obs_uplink_busy_ = nullptr;
  obs::Histogram* obs_wait_ = nullptr;
};

/// Parse a transfer profile from INI text (schema in docs/NETWORKING.md):
/// a `[net]` section (enabled, server_down_mbps, server_up_mbps) plus one
/// `[class.<name>]` section per link class (down_mbps, up_mbps, latency_s,
/// fraction). Throws std::runtime_error on invalid values.
NetConfig net_profile_from_ini(const util::IniFile& ini);

}  // namespace lattice::net
