#include "serve/server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>

#include "core/log.hpp"

namespace naas::serve {

Server::Server(LineHandler& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

bool Server::start(std::string* err) {
  if (!listener_.listen(options_.host, options_.port, options_.backlog, err))
    return false;
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    if (err) *err = "pipe2 failed";
    listener_.close();
    return false;
  }
  wake_read_ = net::Fd(pipe_fds[0]);
  wake_write_ = net::Fd(pipe_fds[1]);
  started_ = true;
  if (err) err->clear();
  return true;
}

void Server::request_stop() {
  // Async-signal-safe: one atomic store and one write(2).
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_write_.valid()) {
    const char b = 's';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &b, 1);
  }
}

// --------------------------------------------------------------- evaluation

void Server::dispatch_batch() {
  const auto take = static_cast<std::ptrdiff_t>(std::min(
      queue_.size(), std::max<std::size_t>(1, options_.max_batch_requests)));
  std::vector<PendingRequest> batch(
      std::make_move_iterator(queue_.begin()),
      std::make_move_iterator(queue_.begin() + take));
  queue_.erase(queue_.begin(), queue_.begin() + take);
  const Clock::time_point now = Clock::now();

  // Deadline pass: a request whose deadline expired while it waited is
  // answered without being evaluated — under overload that converts queue
  // time the client already gave up on into shed work instead of letting
  // it displace still-useful requests.
  std::vector<std::string> lines;
  std::vector<const PendingRequest*> evaluated;
  for (PendingRequest& req : batch) {
    long long deadline_ms = options_.default_deadline_ms;
    bool has_deadline = deadline_ms > 0;
    // Quick reject before paying a parse: the field name must at least
    // appear in the bytes.
    if (req.line.find("\"deadline_ms\"") != std::string::npos) {
      std::string error;
      const Json request = Json::parse(req.line, &error);
      if (error.empty() && request.is_object()) {
        if (const Json* d = request.get("deadline_ms"); d && d->is_number()) {
          deadline_ms = d->as_int();
          has_deadline = deadline_ms >= 0;
        }
      }
    }
    if (has_deadline &&
        now - req.arrival > std::chrono::milliseconds(deadline_ms)) {
      ++stats_.requests_timed_out;
      service_.note_timeout();
      deliver(req, error_response(request_id(req.line), kErrDeadlineExceeded,
                                  "deadline of " +
                                      std::to_string(deadline_ms) +
                                      " ms expired before evaluation")
                       .dump());
      continue;
    }
    lines.push_back(std::move(req.line));
    evaluated.push_back(&req);
  }

  if (!lines.empty()) {
    // The exact code path of serve_lines's stdin loop — what makes socket
    // responses byte-identical to stdin mode.
    std::vector<std::string> responses = service_.handle_lines(lines);
    for (std::size_t k = 0; k < responses.size(); ++k)
      deliver(*evaluated[k], std::move(responses[k]));
  }

  ++stats_.batches_dispatched;
  if (options_.refresh_every_batches > 0 &&
      stats_.batches_dispatched % options_.refresh_every_batches == 0)
    service_.refresh();
}

void Server::deliver(const PendingRequest& request, std::string response) {
  const auto it = conns_.find(request.conn_id);
  if (it == conns_.end()) return;  // the connection died while queued
  it->second.ready[request.slot] = std::move(response);
  --it->second.outstanding;
}

// ---------------------------------------------------------------- net side

void Server::handle_readable(Conn& conn) {
  char buf[4096];
  for (;;) {
    const net::IoResult r = net::read_some(conn.fd.get(), buf, sizeof(buf));
    if (r.status == net::IoStatus::kOk) {
      conn.inbuf.append(buf, r.bytes);
      conn.last_activity = Clock::now();
    } else if (r.status == net::IoStatus::kWouldBlock) {
      break;
    } else if (r.status == net::IoStatus::kEof) {
      conn.read_closed = true;
      break;
    } else {
      ++stats_.connections_reset;
      close_conn(conn.id);
      return;
    }
  }
  extract_lines(conn);
}

void Server::extract_lines(Conn& conn) {
  // Scan with an offset and erase the consumed prefix once: a read that
  // holds k pipelined lines moves the rest of the buffer once, not k times.
  std::size_t start = 0;
  std::size_t nl;
  while ((nl = conn.inbuf.find('\n', start)) != std::string::npos) {
    std::string_view line(conn.inbuf.data() + start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (is_blank_line(line)) continue;  // batch separators mean nothing here
    ++stats_.lines_received;
    if (line.size() > options_.max_line_bytes) {
      // Framing survived (we saw the newline): reject the line, keep the
      // connection.
      ++stats_.protocol_rejects;
      service_.note_protocol_reject();
      conn.ready[conn.next_slot++] =
          line_too_long_response(options_.max_line_bytes).dump();
      continue;
    }
    admit_line(conn, std::string(line));
  }
  conn.inbuf.erase(0, start);
  if (conn.inbuf.size() > options_.max_line_bytes) {
    // An unframed over-cap line: answering and resynchronizing is
    // impossible without unbounded buffering, so reject and close once
    // pending responses have flushed.
    ++stats_.protocol_rejects;
    service_.note_protocol_reject();
    conn.ready[conn.next_slot++] =
        line_too_long_response(options_.max_line_bytes).dump();
    conn.inbuf.clear();
    conn.read_closed = true;
    conn.close_after_flush = true;
  }
}

void Server::admit_line(Conn& conn, std::string line) {
  if (queue_.size() < options_.max_queue_requests) {
    queue_.push_back({conn.id, conn.next_slot, std::move(line), Clock::now()});
    ++stats_.requests_admitted;
    ++conn.outstanding;
    ++conn.next_slot;
    return;
  }
  // Shed at admission: the structured `overloaded` error is the whole
  // point of the bounded queue — clients get a retryable signal in
  // bounded time and the evaluation pool never sees the overflow.
  ++stats_.requests_shed;
  service_.note_shed();
  conn.ready[conn.next_slot++] =
      error_response(request_id(line), kErrOverloaded,
                     "admission queue full (" +
                         std::to_string(options_.max_queue_requests) +
                         " requests); retry later")
          .dump();
}

void Server::flush_ready(Conn& conn) {
  // Responses leave in slot order, so pipelined clients see request order
  // even when an instant error response overtook an evaluated request.
  for (auto it = conn.ready.find(conn.flushed); it != conn.ready.end();
       it = conn.ready.find(conn.flushed)) {
    conn.outbuf += it->second;
    conn.outbuf += '\n';
    conn.ready.erase(it);
    ++conn.flushed;
  }
}

bool Server::write_outbuf(Conn& conn) {
  while (!conn.outbuf.empty()) {
    const net::IoResult r =
        net::write_some(conn.fd.get(), conn.outbuf.data(), conn.outbuf.size());
    if (r.status == net::IoStatus::kOk) {
      conn.outbuf.erase(0, r.bytes);
      conn.last_activity = Clock::now();
    } else if (r.status == net::IoStatus::kWouldBlock) {
      return true;
    } else {
      ++stats_.connections_reset;
      close_conn(conn.id);
      return false;
    }
  }
  return true;
}

void Server::close_conn(std::uint64_t id) {
  dead_conns_.push_back(id);
}

bool Server::drain_complete() const {
  if (!queue_.empty()) return false;
  for (const auto& [id, conn] : conns_)
    if (conn.outstanding > 0 || !conn.ready.empty() || !conn.outbuf.empty())
      return false;
  return true;
}

void Server::run() {
  if (!started_) return;
  Clock::time_point drain_deadline{};

  for (;;) {
    if (stop_requested_.load(std::memory_order_relaxed) && !draining_) {
      draining_ = true;
      listener_.close();  // stop accepting; in-flight work continues
      drain_deadline = Clock::now() + std::chrono::milliseconds(
                                          options_.drain_flush_timeout_ms);
    }

    if (draining_ && drain_complete()) break;
    if (draining_ && Clock::now() > drain_deadline) {
      core::log_warn("serve: drain flush timeout; closing " +
                     std::to_string(conns_.size()) + " connection(s)");
      break;
    }

    poller_.clear();
    poller_.add(wake_read_.get(), true, false);
    if (listener_.listening() &&
        conns_.size() < static_cast<std::size_t>(options_.max_connections))
      poller_.add(listener_.fd(), true, false);
    for (const auto& [id, conn] : conns_) {
      const bool want_read =
          !draining_ && !conn.read_closed &&
          conn.outbuf.size() < options_.max_output_buffer_bytes;
      const bool want_write = !conn.outbuf.empty();
      if (want_read || want_write)
        poller_.add(conn.fd.get(), want_read, want_write);
    }

    // A queued batch is ready to run: look for readiness, do not wait.
    const int timeout_ms =
        !queue_.empty() ? 0
        : draining_     ? 20
                        : (options_.idle_timeout_ms > 0 ? 100 : 1000);
    poller_.wait(timeout_ms);

    // Drain wake-pipe bytes (level-triggered poll would spin otherwise).
    if (poller_.readable(wake_read_.get())) {
      char buf[64];
      while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
      }
    }

    // Accept.
    if (listener_.listening() && poller_.readable(listener_.fd())) {
      for (;;) {
        net::Fd fd = listener_.accept_one();
        if (!fd) break;
        if (conns_.size() >=
            static_cast<std::size_t>(options_.max_connections)) {
          ++stats_.connections_rejected;
          continue;  // Fd closes on scope exit: connection-level shedding
        }
        ++stats_.connections_accepted;
        Conn conn;
        conn.id = next_conn_id_++;
        conn.fd = std::move(fd);
        conn.last_activity = Clock::now();
        conns_.emplace(conn.id, std::move(conn));
      }
    }

    // Read + frame + admit.
    for (auto& [id, conn] : conns_)
      if (!conn.read_closed && poller_.readable(conn.fd.get()))
        handle_readable(conn);

    // Evaluate one batch, then write everything writable, so a pipelining
    // client's answers leave before the next batch runs.
    if (!queue_.empty()) dispatch_batch();
    for (auto& [id, conn] : conns_) {
      // Output pending at the poll waited for POLLOUT. Output that is new
      // since then is written at once: a socket with nothing queued almost
      // always takes it, and waiting for the next poll would hold these
      // answers behind the next batch.
      const bool polled_for_write = !conn.outbuf.empty();
      flush_ready(conn);
      if (!conn.outbuf.empty() &&
          (!polled_for_write || poller_.writable(conn.fd.get()) || draining_))
        if (!write_outbuf(conn)) continue;
      const bool finished = conn.outbuf.empty() && conn.ready.empty() &&
                            conn.outstanding == 0;
      if (finished && (conn.close_after_flush || conn.read_closed))
        close_conn(id);
      else if (finished && options_.idle_timeout_ms > 0 &&
               Clock::now() - conn.last_activity >
                   std::chrono::milliseconds(options_.idle_timeout_ms)) {
        ++stats_.connections_reaped;
        close_conn(id);
      }
    }

    for (const std::uint64_t id : dead_conns_) conns_.erase(id);
    dead_conns_.clear();
  }

  // A drain that timed out may leave admitted requests queued. Finish
  // them (their answers have nowhere to go once the connections close),
  // then final-flush the store: the contract a SIGTERM'd server keeps.
  conns_.clear();
  while (!queue_.empty()) dispatch_batch();
  service_.refresh();
}

}  // namespace naas::serve
