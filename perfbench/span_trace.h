// In-memory span recorder for the benchmark's traced run. Spans are taken
// around calls into the library's public functions from the benchmark's own
// code (the library itself is not instrumented), kept in memory, and
// written out once when the run ends. Single-threaded: only the benchmark's
// main thread opens spans; the library's worker threads run inside them.
#pragma once

#include <chrono>
#include <cstddef>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

class SpanTrace {
 public:
  struct Span {
    std::string name;
    int parent = -1;  // index of the enclosing span, -1 at top level
    double start = 0.0;  // seconds since the trace began
    double end = 0.0;
  };

  /// Closes its span on destruction. A disabled trace hands out inert
  /// scopes, so untraced runs pay one branch per call site.
  class Scope {
   public:
    Scope(SpanTrace* trace, int index) : trace_(trace), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (trace_ != nullptr) trace_->close(index_);
    }

   private:
    SpanTrace* trace_;
    int index_;
  };

  explicit SpanTrace(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  Scope span(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    spans_.push_back(Span{name, open_, elapsed(), 0.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return Scope(this, open_);
  }

  /// Seconds since the trace began.
  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: its total duration minus the part its direct children
  /// cover. Spans nest strictly on one thread, so children never overlap.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child_time[i];
    return self;
  }

  /// Share of [0, wall] covered by top-level spans.
  double coverage(double wall) const {
    double covered = 0.0;
    for (const Span& s : spans_)
      if (s.parent < 0) covered += s.end - s.start;
    return wall > 0.0 ? covered / wall : 0.0;
  }

  /// Writes every span as one JSON object per line: id, name, parent id
  /// (-1 at top level), start and end in microseconds since the trace began.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent
          << ",\"start_us\":" << static_cast<long long>(s.start * 1e6)
          << ",\"end_us\":" << static_cast<long long>(s.end * 1e6) << "}\n";
    }
    out.flush();
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  void close(int index) {
    spans_[index].end = elapsed();
    open_ = spans_[index].parent;
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
