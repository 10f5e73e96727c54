#include "serve/front_end.hpp"

#include <atomic>
#include <csignal>
#include <string>

#include "core/fault.hpp"
#include "serve/protocol.hpp"
#include "serve/stdin_reader.hpp"

namespace naas::serve {

namespace {

// The signal handler pokes the async-signal-safe stop request of whichever
// front end runs: the TCP server, or the stdin reader, whose self-pipe
// wakes a blocked read. g_stop covers a signal that lands before either is
// published.
volatile std::sig_atomic_t g_stop = 0;
std::atomic<Server*> g_server{nullptr};
std::atomic<StdinLineReader*> g_stdin{nullptr};

void on_signal(int) {
  g_stop = 1;
  if (Server* s = g_server.load()) s->request_stop();
  if (StdinLineReader* r = g_stdin.load()) r->stop();
}

void serve_stdin(LineHandler& handler, const ServerOptions& options,
                 StdinLineReader& input, std::FILE* out) {
  std::vector<std::string> lines;  // admitted, bound for the handler
  // One per line, in request order: "" for an admitted line, else the
  // precomputed protocol-limit rejection that holds its response slot.
  std::vector<std::string> slots;
  long long submitted = 0;
  std::string line;
  // A blank line submits the batch; so does the end of input or a drain
  // signal: either way, finish what was taken.
  for (bool more = true; more;) {
    more = input.next(line);
    if (more && !is_blank_line(line)) {
      // The batch cap bounds *evaluated* work per submission, so rejected
      // lines do not use up its slots.
      std::string reject;
      if (line.size() > options.max_line_bytes)
        reject = line_too_long_response(options.max_line_bytes).dump();
      else if (lines.size() >= options.max_batch_requests)
        reject = batch_too_large_response(request_id(line),
                                          options.max_batch_requests)
                     .dump();
      if (reject.empty())
        lines.push_back(line);
      else
        handler.note_protocol_reject();
      slots.push_back(std::move(reject));
      continue;
    }
    if (slots.empty()) continue;
    const std::vector<std::string> responses = handler.handle_lines(lines);
    std::size_t next = 0;
    for (const std::string& slot : slots) {
      std::fputs((slot.empty() ? responses[next++] : slot).c_str(), out);
      std::fputc('\n', out);
    }
    std::fflush(out);
    lines.clear();
    slots.clear();
    if (options.refresh_every_batches > 0 &&
        ++submitted % options.refresh_every_batches == 0)
      handler.refresh();
  }
}

}  // namespace

void add_front_end_flags(std::vector<core::Flag>* table, bool* listen,
                         ServerOptions* options) {
  table->insert(table->end(), {
      {"--listen", "[host:]port",
       "serve over TCP, not stdin (port 0: any free port)",
       [listen, options](const std::string& value) {
         const std::size_t colon = value.rfind(':');
         const bool has_host = colon != std::string::npos;
         std::uint64_t port = 0;
         if (!core::parse_uint(value.substr(has_host ? colon + 1 : 0), 0,
                               65535, &port))
           return "bad --listen: need [host:]port, port in [0, 65535], got '" +
                  value + "'";
         if (has_host) options->host = value.substr(0, colon);
         options->port = static_cast<int>(port);
         *listen = true;
         return std::string();
       }},
      core::int_flag("--max-connections", &options->max_connections,
                     "TCP: concurrent connection cap (default 256)"),
      core::int_flag("--max-queue", &options->max_queue_requests,
                     "TCP: admission queue bound, shed beyond (default 4096)"),
      core::int_flag("--deadline-ms", &options->default_deadline_ms,
                     "TCP: default per-request deadline (0 = none)"),
      core::int_flag("--idle-timeout-ms", &options->idle_timeout_ms,
                     "TCP: reap idle connections (0 = never)"),
      core::int_flag("--max-line-bytes", &options->max_line_bytes,
                     "request line length cap (default 1048576)"),
      core::int_flag("--max-batch", &options->max_batch_requests,
                     "requests per batch cap (default 4096)"),
      {"--faults", "<spec>", "arm the fault injector (grammar: core/fault.hpp)",
       [](const std::string& spec) {
         std::string why;
         if (spec.empty() ||
             core::FaultInjector::instance().configure(spec, &why))
           return std::string();
         return "bad --faults spec: " + why;
       }},
  });
}

void install_drain_signals() {
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  // Both front ends wake through a pipe, not through EINTR, so let an
  // interrupted blocking write to stdout resume instead of failing
  // mid-response.
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

int serve_lines(LineHandler& handler, bool listen,
                const ServerOptions& options, const char* tag,
                const std::function<void()>& summary, int in_fd,
                std::FILE* out) {
  Server server(handler, options);
  if (listen) {
    std::string err;
    if (!server.start(&err)) {
      std::fprintf(stderr, "%s: %s\n", tag, err.c_str());
      return 1;
    }
    g_server.store(&server);
    if (g_stop) server.request_stop();  // a signal raced the publish
    std::fprintf(stderr, "%s: listening on %s:%d\n", tag,
                 options.host.c_str(), server.port());
    server.run();  // returns after a graceful drain (final refresh done)
    g_server.store(nullptr);
  } else {
    StdinLineReader input(in_fd);
    g_stdin.store(&input);
    if (g_stop) input.stop();  // a signal raced the publish
    serve_stdin(handler, options, input, out);
    g_stdin.store(nullptr);
  }

  // Exit summary on stderr; stdout carries only responses.
  summary();
  if (listen) {
    const ServerStats& net = server.stats();
    std::fprintf(stderr,
                 "%s: transport: %lld connections (%lld rejected, %lld "
                 "reset, %lld reaped); %lld lines, %lld batches dispatched\n",
                 tag, net.connections_accepted, net.connections_rejected,
                 net.connections_reset, net.connections_reaped,
                 net.lines_received, net.batches_dispatched);
  }
  if (core::FaultInjector::armed()) {
    const std::string faults = core::FaultInjector::instance().summary();
    if (!faults.empty())
      std::fprintf(stderr, "%s: faults consulted: %s\n", tag,
                   faults.c_str());
  }
  return 0;
}

}  // namespace naas::serve
