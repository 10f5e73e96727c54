#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/hash_ring.hpp"
#include "net/client.hpp"
#include "nn/network.hpp"
#include "serve/json.hpp"
#include "serve/line_handler.hpp"

namespace naas::fleet {

/// One evaluator worker's address (a naas_serve --listen process).
struct WorkerAddr {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Parses "host:port,host:port,..." (host optional: ":9000" and "9000"
/// mean 127.0.0.1). False + `*err` on malformed input.
bool parse_worker_list(const std::string& spec, std::vector<WorkerAddr>* out,
                       std::string* err);

struct RouterOptions {
  std::vector<WorkerAddr> workers;  ///< at least one
  /// Ring points per worker (~64 keeps shard imbalance under a few %).
  std::size_t vnodes = 64;
  int connect_timeout_ms = 2000;
  /// Total per-forward deadline: one group of lines must be fully sent
  /// *and* answered within this budget or the attempt fails over.
  int forward_timeout_ms = 15000;
  /// Distinct workers tried per line (primary + failovers) before the
  /// router gives up and answers `degraded`.
  int max_forward_attempts = 3;
  /// Health-check cadence (0 = no background thread; probes still happen
  /// inline on the forward path and via probe_now()).
  long long ping_interval_ms = 0;
  int ping_timeout_ms = 1000;
  /// Reconnect backoff after a worker is marked down: base doubles per
  /// consecutive failure up to the cap; while the backoff clock runs the
  /// worker is skipped instantly instead of re-paying connect timeouts.
  long long reconnect_backoff_ms = 50;
  long long reconnect_backoff_cap_ms = 2000;
};

/// Router-level counters (the workers' own meters live in their
/// cache_stats). Guarded by an internal mutex; read via cache_stats or
/// after serving stops.
struct RouterStats {
  long long batches = 0;
  long long lines = 0;
  long long groups_forwarded = 0;   ///< group attempts that succeeded
  long long forward_attempts = 0;   ///< group attempts, incl. failures
  long long forward_failures = 0;
  long long failovers = 0;          ///< lines answered by a non-primary
  long long degraded_lines = 0;     ///< lines answered `degraded`
  long long local_lines = 0;        ///< ping/cache_stats/refresh, answered here
  long long unroutable_lines = 0;   ///< fell back to raw-line hash keys
  long long pings_ok = 0;
  long long ping_failures = 0;
  long long reconnects = 0;
  long long workers_marked_down = 0;
};

/// Consistent-hash sharding front end for a fleet of evaluator workers —
/// the serving layer's scale-out story. Implements serve::LineHandler, so
/// serve::serve_lines (stdin, or the stock serve::Server) fronts it unchanged:
/// clients speak the exact single-service line protocol to the router and
/// cannot tell N workers from one, byte for byte.
///
/// Routing: each request line's *work-unit key* — hash of (arch
/// fingerprint, layer shape) for search_mapping / evaluate_mapping, (arch
/// fingerprint, network name) for evaluate_network — pins it to a worker
/// via the HashRing, so repeats of a work unit land on the same warm
/// cache. Lines the router cannot key (parse errors, bad requests,
/// unknown methods) hash their raw bytes instead: their responses are
/// pure functions of the line, identical from every worker, so placement
/// is free. ping / cache_stats / refresh are answered by the router
/// itself (ping => liveness of the *router*; cache_stats => RouterStats;
/// refresh => broadcast to every live worker).
///
/// Robustness: a batch is split per owning worker and forwarded over
/// pooled connections — one send pass across all groups, then one read
/// pass, so workers evaluate concurrently. Any failure (connect refused,
/// send/recv error, per-forward deadline, injected fault) marks the
/// worker down, arms exponential-backoff reconnect, and *fails the whole
/// group over* to each line's next distinct ring worker — safe because
/// evaluation responses are pure and idempotent, so a retried line can
/// never double-apply. Only when every permitted attempt is exhausted
/// does a line get a structured `degraded` error (serve::kErrDegraded):
/// requests are never silently lost and never answered wrongly.
///
/// Fault sites (core::FaultInjector): router_forward_fail (attempt dies
/// pre-send), router_forward_stall (nothing is sent; the read pass eats
/// the forward deadline), router_ping_fail (health probe fails).
///
/// Threading: handle_lines and probe_now may race only through the
/// per-worker mutexes (the health thread try_locks and skips busy
/// workers). Drive handle_lines from one thread, exactly like
/// EvalService.
class Router : public serve::LineHandler {
 public:
  explicit Router(RouterOptions options);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::vector<std::string> handle_lines(
      const std::vector<std::string>& lines) override;

  /// LineHandler refresh hook: a no-op — workers own their stores and
  /// their refresh cadence. (A client-sent {"method":"refresh"} line *is*
  /// broadcast to live workers; this is the transport-driven hook.)
  search::StoreStatus refresh() override;

  void note_shed() override { requests_shed_.fetch_add(1); }
  void note_timeout() override { requests_timed_out_.fetch_add(1); }
  void note_protocol_reject() override { protocol_rejects_.fetch_add(1); }

  /// One synchronous health pass over all workers: live ones are pinged
  /// (down on failure), down ones attempt reconnect once their backoff
  /// expires. The health thread calls this on its cadence; tests call it
  /// directly.
  void probe_now();

  bool worker_up(std::size_t i) const;
  std::size_t workers_up() const;
  std::size_t num_workers() const { return workers_.size(); }
  const HashRing& ring() const { return ring_; }
  RouterStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Worker {
    WorkerAddr addr;
    std::mutex mutex;  ///< guards everything below
    net::LineClient client;
    bool up = false;
    long long backoff_ms = 0;
    Clock::time_point next_reconnect{};  ///< epoch => due immediately
  };

  /// One request line in flight through the routing pipeline.
  struct Slot {
    serve::Json id;              ///< parsed id (null if unparseable)
    std::string method;          ///< set for locally answered methods
    std::uint64_t key = 0;
    bool local = false;          ///< answered by the router itself
    bool keyed = false;          ///< true work-unit key (vs raw-line hash)
    bool done = false;
    std::string response;
    std::vector<std::size_t> prefs;  ///< failover order (ring preference)
    std::size_t attempt = 0;         ///< index into prefs
  };

  std::uint64_t route_key(const std::string& line, Slot* slot);
  const nn::Network* resolve_network(const std::string& name,
                                     std::string* err);
  serve::Json local_response(const serve::Json& id, const std::string& method);
  serve::Json router_stats_json();
  serve::Json broadcast_refresh();

  /// With w.mutex held: true when the worker is connected (reconnecting
  /// if due). False marks/leaves it down.
  bool ensure_connected_locked(Worker& w);
  void mark_down_locked(Worker& w);
  /// With w.mutex held: sends every line, then reads one response per
  /// line within the forward deadline. False => worker marked down.
  bool forward_group_locked(Worker& w,
                            const std::vector<std::size_t>& members,
                            const std::vector<std::string>& lines,
                            std::vector<Slot>& slots);

  RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex stats_mutex_;
  RouterStats stats_;

  std::unordered_map<std::string, nn::Network> network_memo_;

  std::atomic<long long> requests_shed_{0};
  std::atomic<long long> requests_timed_out_{0};
  std::atomic<long long> protocol_rejects_{0};

  std::thread health_thread_;
  std::mutex health_mutex_;
  std::condition_variable health_cv_;
  bool health_stop_ = false;
};

}  // namespace naas::fleet
