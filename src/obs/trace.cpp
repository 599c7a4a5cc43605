#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace lattice::obs {

namespace {
constexpr int kSimPid = 1;
constexpr int kWallPid = 2;
constexpr double kSecondsToMicros = 1e6;
}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

Tracer& Tracer::null() {
  static Tracer tracer{NullTag{}};
  return tracer;
}

int Tracer::track(std::string_view name) {
  if (!enabled_) return 0;
  tracks_.emplace_back(kSimPid, std::string(name));
  return static_cast<int>(tracks_.size());
}

int Tracer::wall_track(std::string_view name) {
  if (!enabled_) return 0;
  tracks_.emplace_back(kWallPid, std::string(name));
  return static_cast<int>(tracks_.size());
}

void Tracer::push(Event event) { events_.push_back(std::move(event)); }

void Tracer::complete(int track, std::string_view name,
                      std::string_view category, double start_s, double end_s,
                      std::vector<TraceArg> args) {
  if (!enabled_) return;
  push(Event{'X', kSimPid, track, start_s * kSecondsToMicros,
             (end_s - start_s) * kSecondsToMicros, 0, 0.0, std::string(name),
             std::string(category), std::move(args)});
}

void Tracer::instant(int track, std::string_view name,
                     std::string_view category, double at_s,
                     std::vector<TraceArg> args) {
  if (!enabled_) return;
  push(Event{'i', kSimPid, track, at_s * kSecondsToMicros, 0.0, 0, 0.0,
             std::string(name), std::string(category), std::move(args)});
}

void Tracer::counter(int track, std::string_view name, double at_s,
                     double value) {
  if (!enabled_) return;
  push(Event{'C', kSimPid, track, at_s * kSecondsToMicros, 0.0, 0, value,
             std::string(name), {}, {}});
}

void Tracer::async_begin(std::string_view name, std::string_view category,
                         std::uint64_t id, double at_s,
                         std::vector<TraceArg> args) {
  if (!enabled_) return;
  push(Event{'b', kSimPid, 0, at_s * kSecondsToMicros, 0.0, id, 0.0,
             std::string(name), std::string(category), std::move(args)});
}

void Tracer::async_end(std::string_view name, std::string_view category,
                       std::uint64_t id, double at_s,
                       std::vector<TraceArg> args) {
  if (!enabled_) return;
  push(Event{'e', kSimPid, 0, at_s * kSecondsToMicros, 0.0, id, 0.0,
             std::string(name), std::string(category), std::move(args)});
}

double Tracer::wall_now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::complete_wall(int track, std::string_view name,
                           std::string_view category, double start_us,
                           double end_us, std::vector<TraceArg> args) {
  if (!enabled_) return;
  push(Event{'X', kWallPid, track, start_us, end_us - start_us, 0, 0.0,
             std::string(name), std::string(category), std::move(args)});
}

void Tracer::write_json(std::ostream& out) const {
  out.precision(12);
  out << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };
  // Process/thread metadata so Perfetto shows meaningful names.
  sep();
  out << R"( {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",)"
      << R"( "args": {"name": "sim-time"}})";
  sep();
  out << R"( {"ph": "M", "pid": 2, "tid": 0, "name": "process_name",)"
      << R"( "args": {"name": "wall-clock"}})";
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    sep();
    out << R"( {"ph": "M", "pid": )" << tracks_[i].first << R"(, "tid": )"
        << (i + 1) << R"(, "name": "thread_name", "args": {"name": ")"
        << json_escape(tracks_[i].second) << R"("}})";
  }
  for (const Event& event : events_) {
    sep();
    out << R"( {"ph": ")" << event.phase << R"(", "pid": )" << event.pid
        << R"(, "tid": )" << event.tid << R"(, "ts": )" << event.ts_us
        << R"(, "name": ")" << json_escape(event.name) << '"';
    if (!event.category.empty()) {
      out << R"(, "cat": ")" << json_escape(event.category) << '"';
    }
    if (event.phase == 'X') out << R"(, "dur": )" << event.dur_us;
    if (event.phase == 'i') out << R"(, "s": "t")";
    if (event.phase == 'b' || event.phase == 'e') {
      out << R"(, "id": ")" << event.id << '"';
    }
    if (event.phase == 'C') {
      out << R"(, "args": {"value": )" << event.value << "}";
    } else if (!event.args.empty()) {
      out << R"(, "args": {)";
      for (std::size_t i = 0; i < event.args.size(); ++i) {
        if (i > 0) out << ", ";
        out << '"' << json_escape(event.args[i].first) << R"(": ")"
            << json_escape(event.args[i].second) << '"';
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

std::string Tracer::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

bool write_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  tracer.write_json(out);
  return static_cast<bool>(out);
}

}  // namespace lattice::obs
