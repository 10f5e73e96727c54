#include "serve/stdin_reader.hpp"

#include <fcntl.h>
#include <poll.h>

#include <cerrno>
#include <system_error>

namespace naas::serve {

static_assert(std::atomic<bool>::is_always_lock_free,
              "stop() must stay async-signal-safe");

StdinLineReader::StdinLineReader(int fd) : fd_(fd) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0)
    throw std::system_error(errno, std::generic_category(), "pipe2");
  wake_read_ = net::Fd(pipe_fds[0]);
  wake_write_ = net::Fd(pipe_fds[1]);
}

void StdinLineReader::stop() {
  stopped_.store(true);
  const char b = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &b, 1);
}

bool StdinLineReader::next(std::string& line) {
  while (!stopped_.load()) {
    const std::size_t newline = buffer_.find('\n', begin_);
    if (newline != std::string::npos) {
      line.assign(buffer_, begin_, newline - begin_);
      begin_ = newline + 1;
      return true;
    }
    buffer_.erase(0, begin_);
    begin_ = 0;
    if (eof_) {
      if (buffer_.empty()) return false;
      line.swap(buffer_);
      buffer_.clear();
      return true;
    }

    ::pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_read_.get(), POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;  // the handler may have called stop()
      return false;
    }
    if (fds[1].revents != 0) return false;  // stop() wrote the wake byte
    if (fds[0].revents == 0) continue;
    char chunk[1 << 16];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0)
      buffer_.append(chunk, static_cast<std::size_t>(n));
    else if (n == 0 || (errno != EINTR && errno != EAGAIN))
      eof_ = true;  // end of input, or an error no retry can fix
  }
  return false;
}

}  // namespace naas::serve
