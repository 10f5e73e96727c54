#pragma once

// In-memory span recorder for the traced run. Spans are recorded around
// the benchmark's own calls into each layer's public entry point (the
// library itself is not instrumented), kept in memory, and written once at
// exit as Chrome trace-event JSON (chrome://tracing / Perfetto load it).
//
// Single-writer: each Tracer is filled from one thread at a time.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace naasbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (kNoParent when disabled).
  std::uint32_t begin(const char* name, std::uint64_t unit,
                      std::uint32_t parent = kNoParent);
  void end(std::uint32_t id);
  /// Records an already-measured interval.
  void add(const char* name, std::uint64_t unit, Clock::time_point start,
           Clock::time_point end, std::uint32_t parent = kNoParent);

  std::size_t size() const { return spans_.size(); }

  /// Durations (seconds) of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Writes every span as a Chrome "X" (complete) event; tid = unit id, so
  /// the spans of one unit stack on one row.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t unit;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t unit,
             std::uint32_t parent = Tracer::kNoParent)
      : tracer_(tracer), id_(tracer.begin(name, unit, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace naasbench
