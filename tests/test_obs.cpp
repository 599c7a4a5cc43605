// Unit tests for lattice::obs — registry semantics, histogram bucket
// edges, trace JSON well-formedness — plus the determinism guard: enabling
// observability over a full grid scenario must not change any simulation
// outcome.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/lattice.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lattice {
namespace {

// --- MetricsRegistry semantics --------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x.events", "events", "help");
  obs::Counter& b = registry.counter("x.events", "events", "help");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
  a.inc(3);
  b.inc();
  EXPECT_EQ(registry.find_counter("x.events")->value(), 4u);
}

TEST(MetricsRegistry, LabelsDistinguishInstances) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("grid.jobs", "jobs", "help", "pbs");
  obs::Counter& b = registry.counter("grid.jobs", "jobs", "help", "condor");
  EXPECT_NE(&a, &b);
  a.inc(2);
  b.inc(5);
  EXPECT_EQ(registry.counter_total("grid.jobs"), 7u);
  EXPECT_EQ(registry.find_counter("grid.jobs", "pbs")->value(), 2u);
  EXPECT_EQ(registry.find_counter("grid.jobs"), nullptr);
}

TEST(MetricsRegistry, KindMismatchReturnsSink) {
  obs::MetricsRegistry registry;
  registry.counter("x.thing", "events", "help");
  obs::Gauge& sink = registry.gauge("x.thing", "events", "help");
  sink.set(42.0);  // swallowed, must not corrupt the counter
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.find_gauge("x.thing"), nullptr);
  EXPECT_EQ(registry.find_counter("x.thing")->value(), 0u);
}

TEST(MetricsRegistry, NullRegistryIsDisabledAndRegistersNothing) {
  obs::MetricsRegistry& null = obs::MetricsRegistry::null();
  EXPECT_FALSE(null.enabled());
  obs::Counter& c = null.counter("x.whatever", "events", "help");
  c.inc(100);  // swallowed by the shared sink
  EXPECT_EQ(null.size(), 0u);
  EXPECT_EQ(null.find_counter("x.whatever"), nullptr);
  EXPECT_EQ(null.counter_total("x.whatever"), 0u);
  // Same shared sink instrument for every name.
  EXPECT_EQ(&c, &null.counter("y.other", "events", "help"));
}

TEST(MetricsRegistry, SnapshotListsEveryInstrument) {
  obs::MetricsRegistry registry;
  registry.counter("a.count", "events", "help").inc(7);
  registry.gauge("a.level", "jobs", "help").set(3.0);
  registry.histogram("a.wait", {1.0, 10.0}, "s", "help").observe(5.0);
  const std::string csv = registry.snapshot_csv();
  EXPECT_NE(csv.find("a.count"), std::string::npos);
  EXPECT_NE(csv.find("a.level"), std::string::npos);
  EXPECT_NE(csv.find("a.wait"), std::string::npos);
  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"a.wait\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

// --- Histogram bucket edges -----------------------------------------------

TEST(Histogram, LeBucketEdges) {
  obs::Histogram h({0.0, 10.0});
  ASSERT_EQ(h.buckets(), 3u);
  h.observe(-5.0);  // <= 0            -> bucket 0
  h.observe(0.0);   // == bound        -> bucket 0 (le semantics)
  h.observe(0.5);   // <= 10           -> bucket 1
  h.observe(10.0);  // == bound        -> bucket 1
  h.observe(11.0);  // above last bound -> overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.5);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 11.0);
  EXPECT_DOUBLE_EQ(h.bucket_bound(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_bound(1), 10.0);
  EXPECT_TRUE(std::isinf(h.bucket_bound(2)));
}

TEST(Histogram, NoBoundsMeansSingleOverflowBucket) {
  obs::Histogram h(std::vector<double>{});
  h.observe(-1.0);
  h.observe(1e9);
  EXPECT_EQ(h.buckets(), 1u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.count(), 2u);
}

// --- Trace JSON well-formedness -------------------------------------------

// Minimal recursive-descent JSON validator: enough to prove the emitted
// trace is parseable without depending on an external JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  void check() {
    skip_ws();
    value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
  }

 private:
  void value() {
    if (pos_ >= text_.size()) fail("eof");
    switch (text_[pos_]) {
      case '{': object(); return;
      case '[': array(); return;
      case '"': string(); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
  }
  void object() {
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return; }
    while (true) {
      skip_ws();
      string();
      skip_ws();
      expect(':');
      skip_ws();
      value();
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return;
    }
  }
  void array() {
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return; }
    while (true) {
      skip_ws();
      value();
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return;
    }
  }
  void string() {
    expect('"');
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return;
      if (static_cast<unsigned char>(ch) < 0x20) fail("raw control char");
      if (ch == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_.at(pos_++)))) {
              fail("bad \\u escape");
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          fail("bad escape char");
        }
      }
    }
  }
  void number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
  }
  void literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(why + " at byte " + std::to_string(pos_));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(MetricsRegistry, SnapshotJsonEscapesControlCharactersInLabels) {
  // A label is a resource name, i.e. a scenario section name, which may
  // hold any byte but the ends' whitespace.
  obs::MetricsRegistry registry;
  registry.counter("a.count", "events", "help", "a\tb").inc();
  registry.gauge("a.level", "jobs", "line one\nline two", "c\"d\\").set(1.0);
  const std::string json = registry.snapshot_json();
  EXPECT_NO_THROW(JsonChecker(json).check()) << json;
  EXPECT_NE(json.find("a\\tb"), std::string::npos);
  EXPECT_EQ(obs::json_escape("\x01"), "\\u0001");
}

TEST(Tracer, EmitsWellFormedChromeTraceJson) {
  obs::Tracer tracer;
  ASSERT_TRUE(tracer.enabled());
  const int track = tracer.track("sim.kernel");
  const int wall = tracer.wall_track("phylo.likelihood");
  tracer.complete(track, "span \"quoted\"", "cat", 1.0, 2.5,
                  {{"key", "value\\with\nnasties\t\x01"}});
  tracer.instant(track, "tick", "cat", 3.0);
  tracer.counter(track, "depth", 3.0, 17.0);
  tracer.async_begin("job", "lattice.job", 42, 0.0, {{"batch", "7"}});
  tracer.async_end("job", "lattice.job", 42, 9.0, {{"outcome", "completed"}});
  tracer.complete_wall(wall, "log_likelihood", "phylo.likelihood", 100.0,
                       250.0);
  EXPECT_EQ(tracer.events(), 6u);

  const std::string json = tracer.to_json();
  EXPECT_NO_THROW(JsonChecker(json).check()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Sim-time is exported in microseconds: 1.0 s -> 1000000.
  EXPECT_NE(json.find("\"ts\": 1000000"), std::string::npos);
  // Both clock domains announce themselves as process metadata.
  EXPECT_NE(json.find("sim-time"), std::string::npos);
  EXPECT_NE(json.find("wall-clock"), std::string::npos);
}

TEST(Tracer, NullTracerIsDisabledAndRecordsNothing) {
  obs::Tracer& null = obs::Tracer::null();
  EXPECT_FALSE(null.enabled());
  const int track = null.track("x");
  null.complete(track, "a", "b", 0.0, 1.0);
  null.instant(track, "a", "b", 0.0);
  null.async_begin("a", "b", 1, 0.0);
  EXPECT_EQ(null.events(), 0u);
  EXPECT_NO_THROW(JsonChecker(null.to_json()).check());
}

// --- Determinism guard ----------------------------------------------------

struct ScenarioResult {
  std::uint64_t events_fired = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed_attempts = 0;
  double total_turnaround = 0.0;
  double wasted_cpu = 0.0;
  double last_completion = 0.0;
};

// A small mixed grid: one cluster, one preempting Condor pool, one BOINC
// pool, 30 jobs. Observability must be a pure observer: the run's event
// count and every outcome must be bit-identical with it on or off.
ScenarioResult run_scenario(bool observe, obs::MetricsRegistry* metrics,
                            obs::Tracer* tracer) {
  core::LatticeConfig config;
  config.scheduler.mode = core::SchedulingMode::kEstimateAware;
  config.seed = 11;
  core::LatticeSystem system(config);
  if (observe) system.enable_observability(*metrics, *tracer);

  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 4;
  cluster.cores_per_node = 2;
  system.add_cluster("pbs", cluster);
  grid::CondorPool::Config condor;
  condor.machines = 12;
  condor.mean_idle_hours = 2.0;
  condor.mean_busy_hours = 2.0;
  condor.seed = 5;
  system.add_condor_pool("condor", condor);
  boinc::BoincPoolConfig pool;
  pool.hosts = 40;
  pool.seed = 13;
  system.add_boinc_pool("boinc", pool);
  system.calibrate_speeds();

  util::Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    core::GarliFeatures features = core::random_features(rng);
    system.submit_job_with_runtime(features, rng.uniform(600.0, 4.0 * 3600.0));
  }
  system.run_until_drained(30.0 * 86400.0);

  ScenarioResult result;
  result.events_fired = system.simulation().events_fired();
  result.completed = system.metrics().completed;
  result.failed_attempts = system.metrics().failed_attempts;
  result.total_turnaround = system.metrics().total_turnaround_seconds;
  result.wasted_cpu = system.metrics().wasted_cpu_seconds;
  result.last_completion = system.metrics().last_completion;
  return result;
}

TEST(DeterminismGuard, ObservabilityDoesNotChangeTheSimulation) {
  const ScenarioResult off = run_scenario(false, nullptr, nullptr);
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  const ScenarioResult on = run_scenario(true, &metrics, &tracer);

  EXPECT_EQ(off.events_fired, on.events_fired);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.failed_attempts, on.failed_attempts);
  // Doubles compared exactly: observation must not perturb a single event.
  EXPECT_EQ(off.total_turnaround, on.total_turnaround);
  EXPECT_EQ(off.wasted_cpu, on.wasted_cpu);
  EXPECT_EQ(off.last_completion, on.last_completion);

  // And the mirror agrees with the system's own books.
  EXPECT_EQ(metrics.counter_total("lattice.jobs_submitted"), 30u);
  EXPECT_EQ(metrics.counter_total("lattice.jobs_completed"), on.completed);
  EXPECT_EQ(metrics.counter_total("lattice.failed_attempts"),
            on.failed_attempts);
  EXPECT_EQ(metrics.counter_total("sim.events_fired"), on.events_fired);
  EXPECT_GT(metrics.counter_total("sched.decisions"), 0u);
  EXPECT_GT(tracer.events(), 0u);
  EXPECT_NO_THROW(JsonChecker(tracer.to_json()).check());
}

}  // namespace
}  // namespace lattice
