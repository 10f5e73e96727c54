#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "serve/json.hpp"

namespace naasbench {

int host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double thread_cpu_seconds() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_seconds() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

/// A `Vm*:` field of /proc/self/status in kB (0 when absent).
double status_kb(const char* field) {
  const std::string key = std::string(field) + ":";
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key, 0) == 0)
      return std::strtod(line.c_str() + key.size(), nullptr);
  return 0;
}

}  // namespace

namespace {

/// One pass of the reference computation on the calling thread: integer
/// hashing and floating-point arithmetic held in registers, no memory
/// traffic and no library code.
double reference_pass() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t h = 0x243f6a8885a308d3ull;
  double acc[4] = {1, 1, 1, 1};
  for (int i = 0; i < 2000000; ++i) {
    h = (h ^ (h >> 31)) * 0x9e3779b97f4a7c15ull;
    const double d = static_cast<double>(h & 0xffff) * 1e-5;
    for (int k = 0; k < 4; ++k) acc[k] = acc[k] * 0.999 + d * (k + 1);
  }
  static volatile double sink;
  sink = acc[0] + acc[1] + acc[2] + acc[3] + static_cast<double>(h);
  return seconds_since(t0);
}

}  // namespace

double reference_seconds() {
  const auto n = static_cast<std::size_t>(host_threads());
  std::vector<double> means;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<double> t(n, 0);
    {
      std::vector<std::jthread> threads;  // joined on every exit path
      for (std::size_t i = 0; i < n; ++i)
        threads.emplace_back([&t, i] { t[i] = reference_pass(); });
    }
    double sum = 0;
    for (const double v : t) sum += v;
    means.push_back(sum / static_cast<double>(n));
  }
  return median(means);
}

double peak_rss_mb() {
  // VmHWM belongs to this address space. getrusage's ru_maxrss is not used:
  // it keeps the high-water mark of the pre-exec image, i.e. of whatever
  // process forked this one, and cannot be reset.
  return status_kb("VmHWM") / 1024.0;
}

bool reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";  // 5: reset the peak RSS to the current RSS
    if (!clear.flush()) return false;
  }
  // The reset sets the peak to the RSS of that moment; an unreset peak
  // would still hold the preparation's, well above the current RSS. 1 MiB
  // of slack covers the RSS shrinking between the two reads.
  return status_kb("VmHWM") <= status_kb("VmRSS") + 1024;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Report::identity(const std::string& name, const std::string& value) {
  identities_.emplace_back(name, value);
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "naasbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::count(long long attempted, long long failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::invalidate(const std::string& why) {
  invalid_.push_back(why);
  std::fprintf(stderr, "naasbench: INVALID RUN: %s\n", why.c_str());
}

bool Report::write(const Args& args, const std::string& path) const {
  using naas::serve::Json;
  const auto entries = [](const std::vector<Entry>& list) {
    Json obj = Json::object();
    for (const Entry& e : list) {
      Json m = Json::object();
      m.set("value", Json::number(e.value));
      m.set("unit", Json::string(e.unit));
      obj.set(e.name, std::move(m));
    }
    return obj;
  };
  const auto strings = [](const std::vector<std::string>& list) {
    Json arr = Json::array();
    for (const std::string& s : list) arr.push(Json::string(s));
    return arr;
  };
  Json rec = Json::object();
  rec.set("workload", Json::string(args.workload));
  rec.set("seed", Json::integer(static_cast<std::int64_t>(args.seed)));
  rec.set("trace", Json::boolean(args.trace));
  rec.set("smoke", Json::boolean(args.smoke));
  rec.set("hardware_concurrency", Json::integer(host_threads()));
  rec.set("correct", Json::boolean(correct()));
  rec.set("valid", Json::boolean(invalid_.empty()));
  rec.set("attempted", Json::integer(attempted_));
  rec.set("failed", Json::integer(failed_));
  rec.set("metrics", entries(metrics_));
  rec.set("details", entries(details_));
  Json ids = Json::object();
  for (const auto& [name, value] : identities_)
    ids.set(name, Json::string(value));
  rec.set("identity", std::move(ids));
  rec.set("check_failures", strings(failures_));
  rec.set("invalid_reasons", strings(invalid_));

  for (const auto* list : {&metrics_, &details_})
    for (const Entry& e : *list)
      std::printf("%s %s %.6g %s\n", args.workload.c_str(), e.name.c_str(),
                  e.value, e.unit.c_str());
  for (const auto& [name, value] : identities_)
    std::printf("%s %s %s identity\n", args.workload.c_str(), name.c_str(),
                value.c_str());
  std::printf("%s attempted %lld failed %lld correct %s valid %s\n",
              args.workload.c_str(), attempted_, failed_,
              correct() ? "true" : "false",
              invalid_.empty() ? "true" : "false");

  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "naasbench: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string text = rec.dump() + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace naasbench
