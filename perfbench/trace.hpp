// Span recorder for the traced benchmark pass.
//
// Spans are recorded from the benchmark's own code around each call into
// a library layer (set-up steps, primitive calls, layer micro-calls): a
// name, a start, an end and the enclosing span. They stay in memory and
// are written once, at the end of the run, as Chrome trace_event JSON
// (load it in chrome://tracing or https://ui.perfetto.dev). A disabled
// tracer records nothing, so the untraced pass pays one branch per span.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open span; returns its id
  /// (-1 when disabled).
  int Begin(std::string name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), NowUs(), -1.0,
                      open_.empty() ? -1 : open_.back(), {}});
    open_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = NowUs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Zero-length event inside the innermost open span, carrying `args`
  /// (a JSON object body, without braces) — used for per-iteration
  /// operator records the library reports after a call returns.
  void Instant(std::string name, std::string args) {
    if (!enabled_) return;
    const double now = NowUs();
    spans_.push_back({std::move(name), now, now,
                      open_.empty() ? -1 : open_.back(), std::move(args)});
  }

  std::size_t size() const { return spans_.size(); }

  /// Writes every recorded span as a Chrome trace_event document. Spans
  /// become complete ("X") events; instants become "i" events. Returns
  /// false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const bool instant = !s.args.empty();
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"%s\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f",
                   i == 0 ? "" : ",\n", s.name.c_str(), instant ? "i" : "X",
                   s.start_us);
      if (instant) {
        std::fprintf(f, ", \"s\": \"t\", \"args\": {\"parent\": %d, %s}}",
                     s.parent, s.args.c_str());
      } else {
        std::fprintf(f,
                     ", \"dur\": %.3f, \"args\": {\"id\": %zu, "
                     "\"parent\": %d}}",
                     s.end_us - s.start_us, i, s.parent);
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    std::string args;  // non-empty only for instants
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Runs fn() inside a span named `name` and returns its wall time in ms.
/// The timer brackets only fn(), so span bookkeeping is not in the value.
template <typename F>
double Timed(Tracer& tracer, const char* name, F&& fn) {
  const int id = tracer.Begin(name);
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  tracer.End(id);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Scoped span for regions that are not timed themselves.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
