#include "trace.hpp"

#include <cstdio>

namespace naasbench {

std::uint32_t Tracer::begin(const char* name, std::uint64_t unit,
                            std::uint32_t parent) {
  if (!enabled_) return kNoParent;
  const std::int64_t now = ns(Clock::now());
  spans_.push_back({name, unit, parent, now, now});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id >= spans_.size()) return;
  spans_[id].end_ns = ns(Clock::now());
}

void Tracer::add(const char* name, std::uint64_t unit, Clock::time_point start,
                 Clock::time_point end, std::uint32_t parent) {
  if (!enabled_) return;
  spans_.push_back({name, unit, parent, ns(start), ns(end)});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e9);
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"unit\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.unit), s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.unit));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace naasbench
