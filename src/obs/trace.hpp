// lattice::obs::Tracer — records span/instant/counter events stamped with
// simulation time (plus wall time for real-compute spans like likelihood
// evaluation) and exports Chrome trace_event JSON, so a full grid run can
// be opened in about:tracing or https://ui.perfetto.dev.
//
// Time model (the stamping rule, DESIGN.md §8): everything that happens
// *inside* the simulated grid — job lifecycles, workunit round trips,
// scheduler decisions — is stamped with sim::SimTime and lives under the
// "sim-time" process (pid 1, ts = sim seconds * 1e6 so one trace
// microsecond = one simulated microsecond). Real computation performed by
// this process (likelihood evaluations, event-handler bodies) is stamped
// with the steady wall clock under the "wall-clock" process (pid 2). The
// two clocks are unrelated; keeping them in separate trace processes stops
// Perfetto from drawing misleading overlaps.
//
// Like the metrics registry, the tracer is a pure observer with a
// null-object default: Tracer::null() is permanently disabled, every
// record call on it returns immediately, and recording never feeds back
// into simulation behavior.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lattice::obs {

/// `text` as the body of a JSON string: quotes, backslashes and control
/// characters escaped. Shared by the trace and metrics exporters.
std::string json_escape(std::string_view text);

/// One key/value annotation on a trace event ("args" in the Chrome
/// format). Values are emitted as JSON strings.
using TraceArg = std::pair<std::string, std::string>;

class Tracer {
 public:
  Tracer() : enabled_(true) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide disabled tracer (null object).
  static Tracer& null();

  bool enabled() const { return enabled_; }

  /// Register a named sim-time track (a "thread" in the Chrome model;
  /// typically one per resource/component). Returns the tid to record
  /// against; 0 on the null tracer.
  int track(std::string_view name);
  /// Register a named wall-clock track (pid 2).
  int wall_track(std::string_view name);

  // Sim-time events (ts in seconds of simulation time) ------------------
  /// Closed span [start_s, end_s] on a track (Chrome "X").
  void complete(int track, std::string_view name, std::string_view category,
                double start_s, double end_s, std::vector<TraceArg> args = {});
  /// Point event (Chrome "i").
  void instant(int track, std::string_view name, std::string_view category,
               double at_s, std::vector<TraceArg> args = {});
  /// Counter sample (Chrome "C"), rendered as a step graph.
  void counter(int track, std::string_view name, double at_s, double value);
  /// Async span: begin/end pairs matched by (category, id) (Chrome
  /// "b"/"e"). Use for overlapping lifecycles — grid jobs, BOINC results —
  /// that no single stack-like track can hold.
  void async_begin(std::string_view name, std::string_view category,
                   std::uint64_t id, double at_s,
                   std::vector<TraceArg> args = {});
  void async_end(std::string_view name, std::string_view category,
                 std::uint64_t id, double at_s,
                 std::vector<TraceArg> args = {});

  // Wall-clock events ---------------------------------------------------
  /// Steady wall clock in microseconds (monotonic, arbitrary epoch).
  /// Call only when enabled() — the null path must not touch the clock.
  static double wall_now_us();
  /// Closed wall-time span on a wall_track (for real compute).
  void complete_wall(int track, std::string_view name,
                     std::string_view category, double start_us,
                     double end_us, std::vector<TraceArg> args = {});

  std::size_t events() const { return events_.size(); }

  /// Chrome trace_event JSON ({"traceEvents": [...]}): loadable in
  /// about:tracing and Perfetto.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  struct NullTag {};
  explicit Tracer(NullTag) : enabled_(false) {}

  struct Event {
    char phase;  // 'X', 'i', 'C', 'b', 'e'
    int pid;
    int tid;
    double ts_us;
    double dur_us;  // 'X' only
    std::uint64_t id;  // 'b'/'e' only
    double value;      // 'C' only
    std::string name;
    std::string category;
    std::vector<TraceArg> args;
  };

  void push(Event event);

  bool enabled_;
  std::vector<Event> events_;
  std::vector<std::pair<int, std::string>> tracks_;  // (pid, name), tid = index + 1
};

/// Write the trace JSON to `path`. Returns false when the file cannot be
/// opened.
bool write_trace(const Tracer& tracer, const std::string& path);

}  // namespace lattice::obs
