// naas_router — consistent-hash sharding front end for a fleet of
// naas_serve --listen workers.
//
// Speaks the exact single-service line protocol (stdin batches or
// --listen TCP via the stock serve::Server), shards each request line's
// work-unit key — hash of (arch fingerprint, layer shape) — across the
// worker ring, forwards per-owner groups over pooled connections, and
// reassembles responses in request order. Clients cannot tell the fleet
// from one warm naas_serve, byte for byte.
//
// Robustness: health pings mark unresponsive workers down; down workers
// reconnect with exponential backoff; a failed forward (refused, hung,
// reset, injected fault) fails the whole group over to each line's next
// ring worker — safe because evaluations are pure and idempotent — and
// only after every permitted attempt does a line get a structured
// `degraded` error. Requests are never lost and never answered wrongly.
//
// Flags:
//   --workers <list>      REQUIRED: "host:port,host:port,..." (host
//                         defaults to 127.0.0.1)
//   --listen [host:]port  serve over TCP instead of stdin (port 0 picks an
//                         ephemeral port, reported on stderr)
//   --vnodes <n>          ring points per worker (default 64)
//   --connect-timeout-ms <n>    worker connect budget (default 2000)
//   --forward-timeout-ms <n>    total per-forward deadline (default 15000)
//   --max-attempts <n>    distinct workers tried per line (default 3)
//   --ping-interval-ms <n>      background health-check cadence
//                         (default 0 = no health thread; liveness is
//                         still probed inline on the forward path)
//   --ping-timeout-ms <n>       health-probe response budget (default 1000)
//   --reconnect-backoff-ms <n>  base (default 50); doubles per consecutive
//   --reconnect-backoff-cap-ms <n>  failure up to the cap (default 2000)
//   --max-connections / --max-queue / --deadline-ms / --idle-timeout-ms /
//   --max-line-bytes / --max-batch   TCP front-end knobs (as naas_serve)
//   --faults <spec>       arm the deterministic fault injector (sites
//                         router_forward_fail, router_forward_stall,
//                         router_ping_fail; grammar in core/fault.hpp)

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "fleet/router.hpp"
#include "serve/server.hpp"
#include "serve/stdin_reader.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: naas_router --workers <host:port,...> [--listen [host:]port]\n"
      "                   [--vnodes <n>] [--connect-timeout-ms <n>]\n"
      "                   [--forward-timeout-ms <n>] [--max-attempts <n>]\n"
      "                   [--ping-interval-ms <n>] [--ping-timeout-ms <n>]\n"
      "                   [--reconnect-backoff-ms <n>]\n"
      "                   [--reconnect-backoff-cap-ms <n>]\n"
      "                   [--max-connections <n>] [--max-queue <n>]\n"
      "                   [--deadline-ms <n>] [--idle-timeout-ms <n>]\n"
      "                   [--max-line-bytes <n>] [--max-batch <n>]\n"
      "                   [--faults <spec>]\n"
      "protocol: identical to naas_serve (one JSON request per line; blank\n"
      "line submits a batch; --listen for TCP). See docs/serving.md.\n");
  return 2;
}

bool all_whitespace(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

// SIGINT/SIGTERM drain whichever front end runs: the TCP server, or the
// stdin reader, whose self-pipe wakes a blocked read.
volatile std::sig_atomic_t g_stop = 0;
std::atomic<naas::serve::Server*> g_server{nullptr};
std::atomic<naas::serve::StdinLineReader*> g_stdin{nullptr};

void on_signal(int) {
  g_stop = 1;
  if (naas::serve::Server* s = g_server.load()) s->request_stop();
  if (naas::serve::StdinLineReader* r = g_stdin.load()) r->stop();
}

void install_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  // Both front ends wake through a pipe, not through EINTR, so let an
  // interrupted blocking write to stdout resume instead of failing
  // mid-response.
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

struct BatchItem {
  std::string line;
  std::string precomputed;  ///< nonempty => protocol-limit rejection
};

naas::serve::Json id_of(const std::string& line) {
  std::string error;
  const naas::serve::Json request = naas::serve::Json::parse(line, &error);
  if (!error.empty() || !request.is_object()) return naas::serve::Json::null();
  const naas::serve::Json* id = request.get("id");
  return id ? *id : naas::serve::Json::null();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace naas;

  fleet::RouterOptions router_options;
  serve::ServerOptions server_options;
  bool listen_mode = false;
  std::string workers_spec;
  std::string faults_spec;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workers" && has_value) {
      workers_spec = argv[++i];
    } else if (a == "--listen" && has_value) {
      listen_mode = true;
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos) {
        server_options.port = std::atoi(spec.c_str());
      } else {
        server_options.host = spec.substr(0, colon);
        server_options.port = std::atoi(spec.c_str() + colon + 1);
      }
    } else if (a == "--vnodes" && has_value) {
      router_options.vnodes =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (a == "--connect-timeout-ms" && has_value) {
      router_options.connect_timeout_ms = std::atoi(argv[++i]);
    } else if (a == "--forward-timeout-ms" && has_value) {
      router_options.forward_timeout_ms = std::atoi(argv[++i]);
    } else if (a == "--max-attempts" && has_value) {
      router_options.max_forward_attempts = std::atoi(argv[++i]);
    } else if (a == "--ping-interval-ms" && has_value) {
      router_options.ping_interval_ms = std::atoll(argv[++i]);
    } else if (a == "--ping-timeout-ms" && has_value) {
      router_options.ping_timeout_ms = std::atoi(argv[++i]);
    } else if (a == "--reconnect-backoff-ms" && has_value) {
      router_options.reconnect_backoff_ms = std::atoll(argv[++i]);
    } else if (a == "--reconnect-backoff-cap-ms" && has_value) {
      router_options.reconnect_backoff_cap_ms = std::atoll(argv[++i]);
    } else if (a == "--max-connections" && has_value) {
      server_options.max_connections = std::atoi(argv[++i]);
    } else if (a == "--max-queue" && has_value) {
      server_options.max_queue_requests =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (a == "--deadline-ms" && has_value) {
      server_options.default_deadline_ms = std::atoll(argv[++i]);
    } else if (a == "--idle-timeout-ms" && has_value) {
      server_options.idle_timeout_ms = std::atoll(argv[++i]);
    } else if (a == "--max-line-bytes" && has_value) {
      server_options.max_line_bytes =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (a == "--max-batch" && has_value) {
      server_options.max_batch_requests =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (a == "--faults" && has_value) {
      faults_spec = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", a.c_str());
      return usage();
    }
  }
  // The router holds no store; the transport refresh hook is a no-op.
  server_options.refresh_every_batches = 0;

  if (workers_spec.empty()) {
    std::fprintf(stderr, "--workers is required\n");
    return usage();
  }
  std::string err;
  if (!fleet::parse_worker_list(workers_spec, &router_options.workers,
                                &err)) {
    std::fprintf(stderr, "bad --workers list: %s\n", err.c_str());
    return usage();
  }
  if (!faults_spec.empty()) {
    if (!core::FaultInjector::instance().configure(faults_spec, &err)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", err.c_str());
      return usage();
    }
  }

  install_signal_handlers();

  fleet::Router router(router_options);
  std::fprintf(stderr, "router: %lld workers, %lld ring points each\n",
               static_cast<long long>(router.num_workers()),
               static_cast<long long>(router_options.vnodes));

  const serve::Server* finished_server = nullptr;
  serve::Server server(router, server_options);
  if (listen_mode) {
    if (!server.start(&err)) {
      std::fprintf(stderr, "router: %s\n", err.c_str());
      return 1;
    }
    g_server.store(&server);
    if (g_stop) server.request_stop();
    std::fprintf(stderr, "router: listening on %s:%d\n",
                 server_options.host.c_str(), server.port());
    server.run();
    g_server.store(nullptr);
    finished_server = &server;
  } else {
    std::vector<BatchItem> batch;
    std::size_t admitted_in_batch = 0;
    const auto submit = [&] {
      if (batch.empty()) return;
      std::vector<std::string> lines;
      for (const BatchItem& item : batch)
        if (item.precomputed.empty()) lines.push_back(item.line);
      std::vector<std::string> responses = router.handle_lines(lines);
      std::size_t next = 0;
      for (const BatchItem& item : batch) {
        const std::string& response =
            item.precomputed.empty() ? responses[next++] : item.precomputed;
        std::fputs(response.c_str(), stdout);
        std::fputc('\n', stdout);
      }
      std::fflush(stdout);
      batch.clear();
      admitted_in_batch = 0;
    };

    serve::StdinLineReader input;
    g_stdin.store(&input);
    if (g_stop) input.stop();  // signal raced the publish
    std::string line;
    while (input.next(line)) {
      if (all_whitespace(line)) {
        submit();
      } else if (line.size() > server_options.max_line_bytes) {
        router.note_protocol_reject();
        batch.push_back(
            {std::string(),
             serve::line_too_long_response(server_options.max_line_bytes)
                 .dump()});
      } else if (admitted_in_batch >= server_options.max_batch_requests) {
        router.note_protocol_reject();
        batch.push_back(
            {std::string(),
             serve::batch_too_large_response(
                 id_of(line), server_options.max_batch_requests)
                 .dump()});
      } else {
        batch.push_back({line, std::string()});
        ++admitted_in_batch;
      }
    }
    g_stdin.store(nullptr);
    submit();
  }

  // Exit summary on stderr (stdout carries only responses). The fleet
  // soak greps "degraded:" and "failovers:" to assert fault weather was
  // survived, not avoided.
  const fleet::RouterStats stats = router.stats();
  std::fprintf(stderr,
               "router: %lld lines in %lld batches; %lld groups forwarded "
               "(%lld attempts, %lld failures)\n",
               stats.lines, stats.batches, stats.groups_forwarded,
               stats.forward_attempts, stats.forward_failures);
  std::fprintf(stderr,
               "router: failovers: %lld; degraded: %lld; local: %lld; "
               "unroutable: %lld\n",
               stats.failovers, stats.degraded_lines, stats.local_lines,
               stats.unroutable_lines);
  std::fprintf(stderr,
               "router: health: %lld pings ok, %lld failed; %lld "
               "reconnects; %lld workers marked down\n",
               stats.pings_ok, stats.ping_failures, stats.reconnects,
               stats.workers_marked_down);
  if (finished_server) {
    const serve::ServerStats& net = finished_server->stats();
    std::fprintf(stderr,
                 "router: transport: %lld connections (%lld rejected, %lld "
                 "reset, %lld reaped); %lld lines, %lld batches dispatched\n",
                 net.connections_accepted, net.connections_rejected,
                 net.connections_reset, net.connections_reaped,
                 net.lines_received, net.batches_dispatched);
  }
  if (core::FaultInjector::armed()) {
    const std::string summary = core::FaultInjector::instance().summary();
    if (!summary.empty())
      std::fprintf(stderr, "router: faults consulted: %s\n",
                   summary.c_str());
  }
  return 0;
}
