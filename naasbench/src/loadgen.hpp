#pragma once

// Single-threaded TCP load generator for the serve workloads: one thread
// drives one nonblocking connection through ppoll(2).
//
// It runs closed loops: the connection keeps `window` requests outstanding
// and sends the next only when one completes (a caller that waits for
// replies). A slowed server therefore receives less load instead of
// building a queue, so a stall of the host delays the requests in flight,
// not every request behind them. Window 1 is a caller waiting for every
// reply (latency per request); a wide window is a pipelining client
// (throughput per sub-window).
//
// Every response is verified against the mix's expected bytes, so a fast
// wrong answer counts as a failure, never as throughput.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "net/socket.hpp"
#include "trace.hpp"

namespace naasbench {

/// A request mix. Request `seq` drawn from template t is the line
/// `{"id":<seq>` + bodies[t]; its correct response is `{"id":<seq>` +
/// expected[t].
struct Mix {
  std::vector<std::string> bodies;
  std::vector<std::string> expected;
  /// Draws the next template index.
  std::function<std::uint32_t(naas::core::Rng&)> draw;
};

/// Splits `{"id":<n><rest>` into <rest>; empty when the prefix is absent.
std::string after_id(const std::string& line);

struct PhaseResult {
  long long sent = 0;
  long long succeeded = 0;
  long long failed = 0;  ///< error, mismatched, or missing responses
  double elapsed_s = 0;
  double generator_cpu_s = 0;      ///< CPU time of the generator thread
  double system_cpu_s = 0;  ///< CPU time of every other thread (the system)
  std::vector<double> latency_s;   ///< per request, when asked for
  std::vector<double> window_qps;  ///< per sub-window
};

class LoadGen {
 public:
  /// Connects to 127.0.0.1:`port`.
  explicit LoadGen(int port);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  /// `window` outstanding requests for `seconds`, split into `windows`
  /// equal sub-windows for the throughput samples. With `latencies`, each
  /// request's latency (send to response) is kept; with a tracer, every
  /// 16th request also records a "request" span.
  PhaseResult closed_loop(Mix& mix, naas::core::Rng& rng, int window,
                          double seconds, int windows, bool latencies = false,
                          Tracer* tracer = nullptr);

 private:
  struct Pending {
    std::uint64_t seq;
    std::uint32_t tmpl;
    Clock::time_point sent;
  };

  void enqueue(Mix& mix, naas::core::Rng& rng, Clock::time_point at);
  bool flush();
  /// Waits until the socket is ready or `deadline`, then reads what is
  /// available and calls on_response(pending, line, now) per complete
  /// line. False when the connection broke.
  template <typename OnResponse>
  bool wait_and_drain(Clock::time_point deadline, OnResponse&& on_response);
  bool verify(const Mix& mix, const Pending& p, std::string_view line) const;

  naas::net::Fd fd_;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::deque<Pending> pending_;  ///< responses return in request order
  std::vector<char> read_buf_;
  std::uint64_t next_seq_ = 1;
  bool ok_ = true;
  std::string error_;
};

}  // namespace naasbench
