#pragma once

/// \file trace.hpp
/// In-memory span recorder and JSON-lines output for the benchmark harness.
///
/// Spans carry a name, start, end, parent span id and job id.  They are
/// recorded around calls into the library's layers from the benchmark's
/// own code, kept in memory, and written when the run ends.  With tracing
/// off every call is a no-op, so the untraced runs pay nothing.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call (the harness's time origin).
inline double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// One JSON object on one stdout line: {"type":"...", key: value, ...}.
/// Lines are written whole under a lock, so records from concurrent client
/// threads never interleave.
class Line {
 public:
  explicit Line(const char* type) { text_ = "{\"type\":"; quote(type); }

  Line& str(const char* key, const std::string& v) {
    add_key(key);
    quote(v);
    return *this;
  }
  Line& num(const char* key, double v) {
    add_key(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    text_ += buf;
    return *this;
  }
  Line& integer(const char* key, std::int64_t v) {
    add_key(key);
    text_ += std::to_string(v);
    return *this;
  }
  Line& boolean(const char* key, bool v) {
    add_key(key);
    text_ += v ? "true" : "false";
    return *this;
  }
  /// \p json must already be a valid JSON value.
  Line& raw(const char* key, const std::string& json) {
    add_key(key);
    text_ += json;
    return *this;
  }
  void emit() {
    static std::mutex mu;
    text_ += "}\n";
    const std::lock_guard<std::mutex> lock(mu);
    std::fwrite(text_.data(), 1, text_.size(), stdout);
  }

 private:
  void add_key(const char* key) {
    text_ += ',';
    quote(key);
    text_ += ':';
  }
  void quote(const std::string& s) {
    text_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        text_ += buf;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }
  std::string text_;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// Opens a span; returns its id (-1 when tracing is off).
  std::int64_t begin(const char* name, std::int64_t parent, std::uint64_t job) {
    if (!on_) return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now_s(), -1.0, parent, job});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  /// Records a span whose bounds were measured elsewhere (e.g. a progress
  /// callback marking where a job left the queue).
  void record(const char* name, double start, double end, std::int64_t parent,
              std::uint64_t job) {
    if (!on_) return;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, job});
  }

  /// Writes every recorded span as a "span" line.
  void flush() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      Line("span")
          .integer("id", static_cast<std::int64_t>(i))
          .str("name", r.name)
          .num("start", r.start)
          .num("end", r.end)
          .integer("parent", r.parent)
          .integer("job", static_cast<std::int64_t>(r.job))
          .emit();
    }
    spans_.clear();
  }

 private:
  struct Rec {
    std::string name;
    double start;
    double end;
    std::int64_t parent;
    std::uint64_t job;
  };
  const bool on_;
  std::mutex mu_;
  std::vector<Rec> spans_;
};

/// Scoped span: opened on construction, closed on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t parent = -1,
       std::uint64_t job = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, job)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// A per-layer value the harness computes itself (a count, or a value that
/// is not a span duration).  run.py sums records that share a name.
inline void layer(const char* name, double value) {
  Line("layer").str("name", name).num("value", value).emit();
}

}  // namespace perfbench
