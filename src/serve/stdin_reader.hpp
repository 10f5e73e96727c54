#pragma once

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <string>

#include "net/socket.hpp"

namespace naas::serve {

/// Line source of the stdin front ends (naas_serve and naas_router without
/// --listen) that a signal handler can interrupt at any moment.
///
/// `while (!stop_flag && std::getline(std::cin, line))` loses a SIGINT or
/// SIGTERM that lands after the flag check but before the read blocks (or
/// one delivered to another thread, so no EINTR reaches the read): the
/// read then waits until stdin closes. This reader instead polls the input
/// together with a self-pipe that stop() writes to, so a stop requested at
/// any point, before or during the wait, ends the loop.
class StdinLineReader {
 public:
  /// Reads from `fd` (not owned). Throws std::system_error when the
  /// self-pipe cannot be created.
  explicit StdinLineReader(int fd = STDIN_FILENO);

  StdinLineReader(const StdinLineReader&) = delete;
  StdinLineReader& operator=(const StdinLineReader&) = delete;

  /// Next line without its '\n'; a final line with no newline is returned
  /// too, as std::getline does. False at end of input, on a read error, or
  /// once stop() has been called: lines read ahead but not yet returned
  /// are then dropped, so the caller finishes only what it already took.
  bool next(std::string& line);

  /// Makes the current and every later next() return false.
  /// Async-signal-safe: one lock-free atomic store and one write(2).
  void stop();

 private:
  int fd_;
  net::Fd wake_read_;
  net::Fd wake_write_;
  std::atomic<bool> stopped_{false};
  std::string buffer_;     ///< bytes read but not yet returned
  std::size_t begin_ = 0;  ///< start of the unreturned part of buffer_
  bool eof_ = false;
};

}  // namespace naas::serve
