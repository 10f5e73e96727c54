// naas_serve — long-lived evaluator service over stdin/stdout or TCP.
//
// Stdin mode (default): reads one JSON request per line, answers one JSON
// response per line, in request order. A *blank line* submits everything
// accumulated since the last blank line as one batch (deduplicated,
// evaluated concurrently); EOF submits the remainder and exits. Responses
// are bit-identical whether requests arrive one per batch or all in one
// batch, and whether the answer was computed or served warm from the
// store — which is what makes a scripted session diffable across runs (CI
// does exactly that).
//
//   echo '{"id":1,"method":"search_mapping","arch":{"preset":"nvdla256"},
//          "layer":{"network":"squeezenet","index":0}}' | naas_serve
//
// TCP mode (--listen): the same protocol, newline-framed over any number
// of concurrent connections, with request pipelining, per-request
// deadlines, admission-queue load shedding, and slow-client backpressure
// (serve::Server). Responses are byte-identical to stdin mode — the
// server drives the very same EvalService::handle_lines.
//
// Both modes drain gracefully on SIGINT/SIGTERM: finish the requests
// already taken, flush the store, print the summary, exit 0.
//
// Methods: search_mapping, evaluate_mapping, evaluate_network,
// cache_stats, refresh. Full request/response schema: docs/serving.md.
//
// Flags:
//   --cache-path <file>   persistent result store: warm-boot from it,
//                         append new results incrementally after each
//                         batch, adopt other processes' appends
//   --cache-readonly      load the store but never write it back
//   --threads <n>         evaluation threads (0 = hardware default)
//   --refresh-every <n>   store refresh every n batches (default 1;
//                         0 = only at exit / on explicit "refresh")
//   --map-population <n>  mapping-search budget (default 10, at least 2).
//   --map-iterations <n>  Part of the cache key: share a store only between
//   --seed <s>            services with identical budgets (default 6
//                         iterations, at least 1; seed 1)
//   --listen [host:]port  serve over TCP instead of stdin (port 0 picks an
//                         ephemeral port, reported on stderr)
//   --max-connections <n> TCP: concurrent connection cap (default 256)
//   --max-queue <n>       TCP: admission-queue bound; beyond it requests
//                         are shed with an `overloaded` error (default 4096)
//   --deadline-ms <n>     TCP: default per-request deadline (0 = none; a
//                         request may override with "deadline_ms")
//   --idle-timeout-ms <n> TCP: reap idle connections (0 = never)
//   --max-line-bytes <n>  both modes: request-line length cap (default 1MiB)
//   --max-batch <n>       both modes: requests per batch cap (default 4096)
//   --cost-backend <scalar|avx2|neon|auto>
//                         cost-kernel backend (default auto: CPUID picks
//                         the fastest; responses are identical regardless)
//   --peers <list>        fleet peers ("host:port,host:port,..."): pull
//                         their result-store snapshots at boot (a restarted
//                         worker re-warms without redoing searches) and
//                         again every --peer-pull-every refreshes
//   --peer-pull-every <n> peer pull cadence in store refreshes (default 4;
//                         0 = boot pull only)
//   --faults <spec>       arm the deterministic fault injector (same
//                         grammar as NAAS_FAULTS; see core/fault.hpp)

#include <csignal>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "fleet/replicator.hpp"
#include "serve/server.hpp"
#include "serve/stdin_reader.hpp"
#include "serve/service.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: naas_serve [--cache-path <file>] [--cache-readonly]\n"
      "                  [--threads <n>] [--refresh-every <n>]\n"
      "                  [--map-population <n>] [--map-iterations <n>]\n"
      "                  [--seed <s>] [--listen [host:]port]\n"
      "                  [--max-connections <n>] [--max-queue <n>]\n"
      "                  [--deadline-ms <n>] [--idle-timeout-ms <n>]\n"
      "                  [--max-line-bytes <n>] [--max-batch <n>]\n"
      "                  [--cost-backend <scalar|avx2|neon|auto>]\n"
      "                  [--peers <host:port,...>] [--peer-pull-every <n>]\n"
      "                  [--faults <spec>]\n"
      "protocol: one JSON request per line on stdin; a blank line submits\n"
      "the accumulated requests as one batch; EOF submits the rest.\n"
      "One JSON response per line on stdout, in request order.\n"
      "With --listen, the same line protocol over TCP (pipelined,\n"
      "deadline- and overload-aware). See docs/serving.md.\n");
  return 2;
}

/// Parses all of `text` as a base-10 int no smaller than `min`.
bool parse_int_at_least(const char* text, int min, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min ||
      v > std::numeric_limits<int>::max())
    return false;
  *out = static_cast<int>(v);
  return true;
}

bool all_whitespace(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

// SIGINT/SIGTERM request a graceful drain. The handler pokes the
// (async-signal-safe) stop request of whichever front end runs: the TCP
// server, or the stdin reader, whose self-pipe wakes a blocked read. The
// stdin loop then falls through to "submit what we have, flush, exit 0".
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

/// One accumulated stdin request: a raw line for the service, or a
/// precomputed protocol-limit rejection holding that line's response slot
/// (responses must stay in request order either way).
struct BatchItem {
  std::string line;
  std::string precomputed;  ///< nonempty => skip the service
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

  serve::ServeOptions options;
  options.mapping.population = 10;
  options.mapping.iterations = 6;
  long long refresh_every = 1;
  serve::ServerOptions server_options;
  bool listen_mode = false;
  std::string faults_spec;
  std::string peers_spec;
  long long peer_pull_every = 4;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--cache-path" && has_value) {
      options.store_path = argv[++i];
    } else if (a == "--cache-readonly") {
      options.store_readonly = true;
    } else if (a == "--threads" && has_value) {
      options.num_threads = std::atoi(argv[++i]);
    } else if (a == "--refresh-every" && has_value) {
      refresh_every = std::atoll(argv[++i]);
    } else if (a == "--map-population" && has_value) {
      // CMA-ES needs two candidates per generation to select from.
      if (!parse_int_at_least(argv[++i], 2, &options.mapping.population)) {
        std::fprintf(stderr, "bad --map-population: need an integer >= 2\n");
        return usage();
      }
    } else if (a == "--map-iterations" && has_value) {
      if (!parse_int_at_least(argv[++i], 1, &options.mapping.iterations)) {
        std::fprintf(stderr, "bad --map-iterations: need an integer >= 1\n");
        return usage();
      }
    } else if (a == "--seed" && has_value) {
      options.mapping.seed =
          std::strtoull(argv[++i], nullptr, 10);
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
    } else if (a == "--cost-backend" && has_value) {
      const std::string name = argv[++i];
      const auto kind = cost::parse_backend_kind(name);
      if (!kind) {
        std::fprintf(stderr,
                     "unknown cost backend '%s' (scalar|avx2|neon|auto)\n",
                     name.c_str());
        return usage();
      }
      if (!cost::backend_available(*kind)) {
        std::fprintf(stderr, "cost backend '%s' unavailable on this host\n",
                     name.c_str());
        return 1;
      }
      options.cost_backend = *kind;
    } else if (a == "--peers" && has_value) {
      peers_spec = argv[++i];
    } else if (a == "--peer-pull-every" && has_value) {
      peer_pull_every = std::atoll(argv[++i]);
    } else if (a == "--faults" && has_value) {
      faults_spec = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", a.c_str());
      return usage();
    }
  }
  server_options.refresh_every_batches = refresh_every;

  if (!faults_spec.empty()) {
    std::string err;
    if (!core::FaultInjector::instance().configure(faults_spec, &err)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", err.c_str());
      return usage();
    }
  }

  fleet::ReplicatorOptions repl_options;
  const bool have_peers = !peers_spec.empty();
  if (have_peers) {
    std::string err;
    if (!fleet::parse_worker_list(peers_spec, &repl_options.peers, &err)) {
      std::fprintf(stderr, "bad --peers list: %s\n", err.c_str());
      return usage();
    }
  }

  install_signal_handlers();

  serve::EvalService service(options);
  std::fprintf(stderr, "serve: cost backend: %s\n",
               service.cost_backend_name());
  if (!options.store_path.empty())
    std::fprintf(stderr, "serve: booted with %lld store entries from %s%s\n",
                 static_cast<long long>(
                     service.evaluator().store_entries_loaded()),
                 options.store_path.c_str(),
                 options.store_readonly ? " (readonly)" : "");

  // With peers, serving goes through the replication wrapper: a boot-time
  // pull re-warms a restarted worker from the rest of the fleet, then the
  // refresh cadence keeps pulling. Without peers the wrapper is bypassed
  // entirely (and this block prints nothing — stderr stays byte-stable
  // for the golden-session diffs).
  fleet::ReplicatedService replicated(service, repl_options,
                                      have_peers ? peer_pull_every : 0);
  serve::LineHandler& handler =
      have_peers ? static_cast<serve::LineHandler&>(replicated) : service;
  if (have_peers) {
    const std::size_t adopted = replicated.pull_now();
    std::fprintf(stderr,
                 "serve: peer pull adopted %lld entries from %lld peers\n",
                 static_cast<long long>(adopted),
                 static_cast<long long>(repl_options.peers.size()));
  }

  const serve::Server* finished_server = nullptr;
  serve::Server server(handler, server_options);
  if (listen_mode) {
    std::string err;
    if (!server.start(&err)) {
      std::fprintf(stderr, "serve: %s\n", err.c_str());
      return 1;
    }
    g_server.store(&server);
    if (g_stop) server.request_stop();  // signal raced the publish
    std::fprintf(stderr, "serve: listening on %s:%d\n",
                 server_options.host.c_str(), server.port());
    server.run();  // returns after a graceful drain (final refresh done)
    g_server.store(nullptr);
    finished_server = &server;
  } else {
    std::vector<BatchItem> batch;
    std::size_t admitted_in_batch = 0;  // lines bound for the service
    long long batches_submitted = 0;
    const auto submit = [&] {
      if (batch.empty()) return;
      std::vector<std::string> lines;
      for (const BatchItem& item : batch)
        if (item.precomputed.empty()) lines.push_back(item.line);
      std::vector<std::string> responses = handler.handle_lines(lines);
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
      ++batches_submitted;
      if (refresh_every > 0 && batches_submitted % refresh_every == 0)
        handler.refresh();
    };

    serve::StdinLineReader input;
    g_stdin.store(&input);
    if (g_stop) input.stop();  // signal raced the publish
    std::string line;
    while (input.next(line)) {
      if (all_whitespace(line)) {
        submit();
      } else if (line.size() > server_options.max_line_bytes) {
        service.note_protocol_reject();
        batch.push_back(
            {std::string(),
             serve::line_too_long_response(server_options.max_line_bytes)
                 .dump()});
      } else if (admitted_in_batch >= server_options.max_batch_requests) {
        // The cap bounds *evaluated* work per submission; already-rejected
        // lines do not use up slots.
        service.note_protocol_reject();
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
    // EOF or drain signal: either way, finish what was taken. The final
    // store flush rides the EvalService destructor (plus the per-batch
    // refresh above), so a killed warm server loses no completed results.
    submit();
  }

  // Exit summary on stderr (stdout carries only responses). The CI session
  // greps "mapping searches run:" to prove the warm run did zero work.
  const auto& stats = service.stats();
  std::fprintf(stderr,
               "serve: %lld queries in %lld batches (%lld errors); "
               "mapping searches run: %lld; cache entries: %lld\n",
               stats.queries, stats.batches, stats.errors,
               service.evaluator().mapping_searches(),
               static_cast<long long>(service.evaluator().cache_size()));
  std::fprintf(stderr,
               "serve: batched cost model scored %lld CMA generations "
               "(%lld candidates) on %s backend\n",
               service.evaluator().generations_batched(),
               service.evaluator().candidates_batch_evaluated(),
               service.cost_backend_name());
  std::fprintf(stderr,
               "serve: robustness: %lld shed, %lld timed out, %lld protocol "
               "rejects; store refresh retries: %lld\n",
               service.requests_shed(), service.requests_timed_out(),
               service.protocol_rejects(), stats.store_refresh_retries);
  if (have_peers) {
    const fleet::ReplicatorStats& rs = replicated.replicator().stats();
    std::fprintf(stderr,
                 "serve: replication: %lld pulls, %lld peer fetches "
                 "(%lld failed, %lld torn), %lld entries adopted\n",
                 rs.pulls, rs.peer_fetches, rs.fetch_failures,
                 rs.torn_fetches, rs.entries_adopted);
  }
  if (finished_server) {
    const serve::ServerStats& net = finished_server->stats();
    std::fprintf(stderr,
                 "serve: transport: %lld connections (%lld rejected, %lld "
                 "reset, %lld reaped); %lld lines, %lld batches dispatched\n",
                 net.connections_accepted, net.connections_rejected,
                 net.connections_reset, net.connections_reaped,
                 net.lines_received, net.batches_dispatched);
  }
  if (core::FaultInjector::armed()) {
    const std::string summary = core::FaultInjector::instance().summary();
    if (!summary.empty())
      std::fprintf(stderr, "serve: faults consulted: %s\n", summary.c_str());
  }
  return 0;
}
