#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/poller.hpp"
#include "net/socket.hpp"
#include "serve/line_handler.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace naas::serve {

/// Configuration of the TCP front end. Every bound is defensive: the
/// server must stay correct (and the store uncorrupted) when clients are
/// slow, rude, malformed, or simply too many.
struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; Server::port() reports the real one
  int backlog = 64;
  int max_connections = 256;
  /// Protocol limits (see serve/protocol.hpp). A complete line over the
  /// cap gets a bad_request and the connection lives on; an *unframed*
  /// over-cap line (no newline in sight) gets a bad_request and a close,
  /// because the only alternative is buffering attacker-controlled bytes
  /// without bound.
  std::size_t max_line_bytes = kDefaultMaxLineBytes;
  std::size_t max_batch_requests = kDefaultMaxBatchRequests;
  /// Admission-queue bound: requests beyond it are shed at admission with
  /// a structured `overloaded` error instead of stalling the evaluation
  /// pool or growing the heap. 0 sheds everything (useful in tests).
  std::size_t max_queue_requests = 4096;
  /// Slow-client write backpressure: while a connection's output buffer
  /// is over this bound the server stops *reading* from it, so a client
  /// that never drains responses throttles itself, not the server.
  std::size_t max_output_buffer_bytes = 4u << 20;
  /// Default per-request deadline (0 = none). A request may override it
  /// with a "deadline_ms" field; one whose deadline has already expired
  /// when its batch is assembled is answered `deadline_exceeded` and never
  /// evaluated ("deadline_ms": 0 therefore expires immediately).
  long long default_deadline_ms = 0;
  /// Reap connections with no traffic and no pending work for this long
  /// (0 = never).
  long long idle_timeout_ms = 0;
  /// Store refresh cadence in dispatched batches (0 = only at drain).
  long long refresh_every_batches = 1;
  /// On drain, wait at most this long for remaining responses to flush to
  /// slow clients before force-closing them.
  long long drain_flush_timeout_ms = 5000;
};

/// Transport-level counters (the service's own meters live in
/// EvalService/cache_stats). Single-writer per field; read after run()
/// returns.
struct ServerStats {
  long long connections_accepted = 0;
  long long connections_rejected = 0;  ///< over max_connections
  long long connections_reset = 0;     ///< read/write error (e.g. RST)
  long long connections_reaped = 0;    ///< idle timeout
  long long lines_received = 0;
  long long requests_admitted = 0;
  long long requests_shed = 0;         ///< overloaded
  long long requests_timed_out = 0;    ///< deadline_exceeded
  long long protocol_rejects = 0;      ///< line/batch-limit bad_requests
  long long batches_dispatched = 0;
};

/// Multi-client TCP front end over the transport-agnostic line-JSON
/// protocol. Serves any LineHandler: a warm EvalService directly, or a
/// fleet::Router that shards lines across N remote workers — the transport
/// neither knows nor cares which.
///
/// Architecture: one thread, the caller of run(). Its poll(2) loop owns
/// every socket and the handler. Each pass accepts, reads, frames lines,
/// enforces the protocol limits and admits requests to a bounded queue.
/// It then dispatches one batch of up to max_batch_requests through
/// LineHandler::handle_lines, exactly as serve_lines's stdin loop does,
/// so responses are byte-identical to stdin mode. The responses go
/// straight into their connections' reorder buffers, the store refreshes
/// at its cadence, and the pass ends by writing. Cold work still fans out
/// on the evaluator's pool inside handle_lines. The handler's
/// no-reentrancy contract holds because only this thread touches it.
///
/// The price of one thread: while a batch evaluates, the loop neither
/// accepts, reads nor writes. Shedding (`overloaded`) and deadline stamps
/// therefore happen at the next read pass, at most one batch late. Answers
/// are written in the pass that computed them, before the next batch runs;
/// while the queue is non-empty the loop polls without waiting.
///
/// Request pipelining: clients may send any number of requests without
/// waiting; per-connection responses always come back in request order
/// (a per-connection reorder buffer holds, e.g., an instant `overloaded`
/// error until the slower evaluated requests before it have answered).
///
/// Graceful drain: request_stop() is async-signal-safe (atomic flag + a
/// write to the wake pipe, which exists only for this). The loop then
/// stops accepting and reading, finishes every admitted request, flushes
/// responses (bounded by drain_flush_timeout_ms), performs a final store
/// refresh, and run() returns — the SIGTERM story "finish what you took,
/// persist, exit 0".
class Server {
 public:
  Server(LineHandler& service, ServerOptions options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. False + `*err` on failure (run() would then
  /// return immediately).
  bool start(std::string* err);

  /// Bound port (after start()).
  int port() const { return listener_.port(); }

  /// Event loop; returns after a drain completes. Call from one thread.
  void run();

  /// Initiates drain. Safe from signal handlers and other threads.
  void request_stop();

  /// Transport counters; stable once run() has returned.
  const ServerStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingRequest {
    std::uint64_t conn_id = 0;
    std::uint64_t slot = 0;
    std::string line;
    Clock::time_point arrival;
  };
  struct Conn {
    net::Fd fd;
    std::uint64_t id = 0;
    std::string inbuf;
    std::string outbuf;
    std::uint64_t next_slot = 0;   ///< slots assigned to received lines
    std::uint64_t flushed = 0;     ///< next slot to append to outbuf
    /// Out-of-order completed responses awaiting their turn.
    std::map<std::uint64_t, std::string> ready;
    /// Requests admitted to the queue and not yet answered.
    std::size_t outstanding = 0;
    bool read_closed = false;       ///< EOF seen or framing abandoned
    bool close_after_flush = false;
    Clock::time_point last_activity;
  };

  void dispatch_batch();
  void deliver(const PendingRequest& request, std::string response);
  void handle_readable(Conn& conn);
  void extract_lines(Conn& conn);
  void admit_line(Conn& conn, std::string line);
  void flush_ready(Conn& conn);
  bool write_outbuf(Conn& conn);  ///< false => connection died
  void close_conn(std::uint64_t id);
  bool drain_complete() const;

  LineHandler& service_;
  ServerOptions options_;
  ServerStats stats_;

  net::TcpListener listener_;
  net::Fd wake_read_, wake_write_;
  net::Poller poller_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::vector<std::uint64_t> dead_conns_;  ///< deferred erase within a pass
  std::uint64_t next_conn_id_ = 1;

  std::deque<PendingRequest> queue_;

  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  bool started_ = false;
};

}  // namespace naas::serve
