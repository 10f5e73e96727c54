#pragma once

// Shared plumbing of the naasbench binary: run arguments, the result
// record every workload fills, and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace naasbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line arguments of one benchmark process (one workload).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;       ///< measured time budget of the run
  bool trace = false;        ///< per-layer traced run instead of end-to-end
  bool smoke = false;        ///< tiny budgets, same code paths and checks
  std::string out;           ///< JSON record path (required)
  std::string work_dir;      ///< scratch directory for stores and traces
};

/// Hardware threads of the host (always >= 1).
int host_threads();

/// CPU time consumed so far by the calling thread / by the whole process.
double thread_cpu_seconds();
double process_cpu_seconds();

/// The host's speed right now: wall time of a fixed computation (integer
/// hashing and floating-point arithmetic in registers, about 6 ms on one
/// 2 GHz Xeon core) run on every host thread at once, median of three
/// passes of the threads' mean. It calls no library code, so no change to
/// the program moves it, while on a shared host it slows and speeds up with
/// the host. A phase timed between two of these, divided by their mean, is
/// a time in reference passes: the host's drift cancels.
double reference_seconds();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Returns freed heap to the system and resets the peak resident set size
/// to the current one, so peak_rss_mb() covers only what runs afterwards
/// (untimed preparation can otherwise set the peak). False when the kernel
/// did not reset it.
bool reset_peak_rss();

/// 64-bit FNV-1a of `bytes`, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/// `v` as 16 lowercase hex digits.
std::string hex64(std::uint64_t v);

/// q-quantile (q in [0,1]) by linear interpolation; 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Result record of one run. Metrics keep insertion order; checks that
/// fail make the run incorrect (and the process exit non-zero).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A detail value printed for humans and kept in the record, but not one
  /// of the benchmark's declared metrics (counts, per-phase tallies).
  void detail(const std::string& name, double value, const std::string& unit);
  /// An output the program must reproduce exactly for the same seed on any
  /// commit (a design fingerprint, a digest of responses); compare.py
  /// requires parent and change to agree on it.
  void identity(const std::string& name, const std::string& value);
  /// Records a correctness gate; returns `ok`.
  bool check(bool ok, const std::string& what);
  /// Operations attempted / failed (failed = error, shed, mismatched or
  /// missing responses, or searches returning a non-finite result).
  void count(long long attempted, long long failed);
  /// Flags the run's measurement as invalid (e.g. the load generator, not
  /// the system, limited the load): it is reported, never silently counted.
  void invalidate(const std::string& why);

  bool correct() const { return failures_.empty() && failed_ == 0; }
  /// Writes the record as JSON and prints one `metric value unit` line per
  /// metric and detail to stdout.
  bool write(const Args& args, const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> details_;
  std::vector<std::pair<std::string, std::string>> identities_;
  std::vector<std::string> failures_;
  std::vector<std::string> invalid_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

}  // namespace naasbench
