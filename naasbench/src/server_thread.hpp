#pragma once

#include <string>
#include <thread>

#include "serve/line_handler.hpp"
#include "serve/server.hpp"

namespace naasbench {

/// A serve::Server listening on an ephemeral loopback port with its event
/// loop on its own thread — what `naas_serve --listen` / `naas_router
/// --listen` run, minus the process boundary. Stops (graceful drain) and
/// joins on destruction.
class ServerThread {
 public:
  ServerThread(naas::serve::LineHandler& handler,
               naas::serve::ServerOptions options = {})
      : server_(handler, with_ephemeral_port(std::move(options))) {
    ok_ = server_.start(&error_);
    if (ok_) thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  bool ok() const { return ok_; }
  int port() const { return server_.port(); }

  /// Drains and joins; stats() is stable afterwards.
  void stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }
  const naas::serve::ServerStats& stats() const { return server_.stats(); }

 private:
  static naas::serve::ServerOptions with_ephemeral_port(
      naas::serve::ServerOptions o) {
    o.host = "127.0.0.1";
    o.port = 0;
    return o;
  }

  naas::serve::Server server_;
  bool ok_ = false;
  std::string error_;
  std::thread thread_;
};

}  // namespace naasbench
