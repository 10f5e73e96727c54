#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <ctime>
#include <string_view>

namespace naasbench {

namespace {

constexpr std::string_view kIdPrefix = "{\"id\":";
/// Responses still missing this long after the phase ends count as failed.
constexpr double kDrainSeconds = 10.0;
/// Every Nth request of a traced phase records a span.
constexpr std::uint64_t kTraceEvery = 16;
constexpr std::size_t kReadChunk = 1 << 18;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Appends `{"id":<seq>` to `out`.
void append_id(std::string& out, std::uint64_t seq) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof(digits), seq).ptr;
  out += kIdPrefix;
  out.append(digits, end);
}

}  // namespace

std::string after_id(const std::string& line) {
  if (line.compare(0, kIdPrefix.size(), kIdPrefix) != 0) return {};
  std::size_t i = kIdPrefix.size();
  while (i < line.size() &&
         (line[i] == '-' || (line[i] >= '0' && line[i] <= '9')))
    ++i;
  return line.substr(i);
}

LoadGen::LoadGen(int port) {
  std::string err;
  fd_ = naas::net::tcp_connect("127.0.0.1", port, 5000, &err);
  if (!fd_.valid() || !naas::net::set_nonblocking(fd_.get(), &err)) {
    ok_ = false;
    error_ = "connect: " + err;
  }
  read_buf_.resize(kReadChunk);
}

void LoadGen::enqueue(Mix& mix, naas::core::Rng& rng, Clock::time_point at) {
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t tmpl = mix.draw(rng);
  append_id(out_, seq);
  out_ += mix.bodies[tmpl];
  out_ += '\n';
  pending_.push_back({seq, tmpl, at});
}

bool LoadGen::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_.get(), out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                         errno == EINTR)) {
      return true;
    } else {
      return false;
    }
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

template <typename OnResponse>
bool LoadGen::wait_and_drain(Clock::time_point deadline,
                             OnResponse&& on_response) {
  pollfd pfd{fd_.get(), POLLIN, 0};
  if (out_off_ < out_.size()) pfd.events |= POLLOUT;
  const auto left = std::max<long long>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(deadline -
                                                              Clock::now())
             .count());
  timespec ts{static_cast<time_t>(left / 1000000000LL),
              static_cast<long>(left % 1000000000LL)};
  if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) return true;
  if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) return true;

  bool alive = true;
  for (;;) {
    const ssize_t n = ::read(fd_.get(), read_buf_.data(), read_buf_.size());
    if (n > 0) in_.append(read_buf_.data(), static_cast<std::size_t>(n));
    if (n == 0) alive = false;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      alive = false;
    if (n != static_cast<ssize_t>(read_buf_.size())) break;
  }
  const Clock::time_point now = Clock::now();
  const std::string_view in = in_;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = in.find('\n', start);
    if (nl == std::string_view::npos) break;
    if (pending_.empty()) {
      alive = false;  // a response nobody asked for
      break;
    }
    const Pending p = pending_.front();
    pending_.pop_front();
    on_response(p, in.substr(start, nl - start), now);
    start = nl + 1;
  }
  in_.erase(0, start);
  return alive;
}

bool LoadGen::verify(const Mix& mix, const Pending& p,
                     std::string_view line) const {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof(digits), p.seq).ptr;
  const std::string_view seq(digits, static_cast<std::size_t>(end - digits));
  return line.substr(0, kIdPrefix.size()) == kIdPrefix &&
         line.substr(kIdPrefix.size(), seq.size()) == seq &&
         line.substr(kIdPrefix.size() + seq.size()) == mix.expected[p.tmpl];
}

PhaseResult LoadGen::closed_loop(Mix& mix, naas::core::Rng& rng, int window,
                                 double seconds, int windows, bool latencies,
                                 Tracer* tracer) {
  PhaseResult r;
  if (!ok_) return r;
  const double window_s = seconds / windows;
  std::vector<long long> done(static_cast<std::size_t>(windows), 0);
  const double cpu0 = thread_cpu_seconds();
  const double pcpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point t_end = t0 + to_duration(seconds);
  bool sending = true;
  const auto on_response = [&](const Pending& p, std::string_view line,
                               Clock::time_point at) {
    if (!verify(mix, p, line)) {
      ++r.failed;
    } else {
      ++r.succeeded;
      if (latencies)
        r.latency_s.push_back(
            std::chrono::duration<double>(at - p.sent).count());
      if (tracer && p.seq % kTraceEvery == 0)
        tracer->add("request", p.seq, p.sent, at);
      const auto w = static_cast<std::size_t>(
          std::chrono::duration<double>(at - t0).count() / window_s);
      if (w < done.size()) ++done[w];
    }
    if (sending) {
      enqueue(mix, rng, at);
      ++r.sent;
    }
  };

  for (int k = 0; k < window; ++k) {
    enqueue(mix, rng, t0);
    ++r.sent;
  }
  const Clock::time_point drain_end = t_end + to_duration(kDrainSeconds);
  while (ok_) {
    const Clock::time_point now = Clock::now();
    if (now >= t_end) sending = false;
    if (!sending && (pending_.empty() || now >= drain_end)) break;
    if (!flush() || !wait_and_drain(sending ? t_end : drain_end, on_response))
      ok_ = false;
  }
  for (long long n : done) r.window_qps.push_back(n / window_s);
  r.elapsed_s = seconds_since(t0);
  r.generator_cpu_s = thread_cpu_seconds() - cpu0;
  r.system_cpu_s = process_cpu_seconds() - pcpu0 - r.generator_cpu_s;
  if (!pending_.empty()) {
    r.failed += static_cast<long long>(pending_.size());
    ok_ = false;
    error_ = "responses missing after a closed-loop phase";
  }
  return r;
}

}  // namespace naasbench
