// Multi-client TCP serving throughput: the socket front end (serve::Server)
// measured end to end against in-process LineClients — framing, admission,
// batch dispatch, reorder-buffer flush, and the poll loop — at 1, 2, and 4
// concurrent pipelined clients. Emits BENCH_net.json for CI trend tracking.
//
// Correctness is asserted, not assumed: every TCP response is compared
// byte-for-byte against a fresh EvalService::handle_lines run with the
// same options (the stdin driver's exact code path), so the JSON records
// `responses_identical_to_stdin_mode` — the transport must add zero
// semantic surface. The server runs one loop thread, so adding clients
// buys larger batches per loop pass, whose cold units fan out on the
// evaluator's pool; the scaling column is reported for trend, not judged.

#include "bench_common.hpp"

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "net/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace naas;

/// search_mapping request lines over every layer of the benchmark nets on
/// one preset arch (same mix as bench_serve_throughput, so the two benches
/// measure the same query stream over different transports).
std::vector<std::string> make_session(int repeats) {
  std::vector<std::string> lines;
  int id = 0;
  for (int r = 0; r < repeats; ++r) {
    for (const char* net : {"squeezenet", "mobilenetv2"}) {
      const int layers = nn::make_network(net).num_layers();
      for (int i = 0; i < layers; ++i) {
        serve::Json req = serve::Json::object();
        req.set("id", serve::Json::integer(++id));
        req.set("method", serve::Json::string("search_mapping"));
        serve::Json arch = serve::Json::object();
        arch.set("preset", serve::Json::string("nvdla256"));
        req.set("arch", std::move(arch));
        serve::Json layer = serve::Json::object();
        layer.set("network", serve::Json::string(net));
        layer.set("index", serve::Json::integer(i));
        req.set("layer", std::move(layer));
        lines.push_back(req.dump());
      }
    }
  }
  return lines;
}

serve::ServeOptions serve_options(const bench::Budget& budget) {
  serve::ServeOptions opts;
  opts.mapping.population = budget.map_population;
  opts.mapping.iterations = budget.map_iterations;
  opts.mapping.seed = budget.seed;
  return opts;
}

/// In-process server under bench: service + transport + its loop thread.
struct BenchServer {
  serve::EvalService service;
  serve::Server server;
  std::thread loop_thread;
  bool ok = false;

  explicit BenchServer(const serve::ServeOptions& opts)
      : service(opts), server(service, make_server_options()) {
    std::string err;
    ok = server.start(&err);
    if (!ok) {
      std::fprintf(stderr, "bench_net: server start failed: %s\n",
                   err.c_str());
      return;
    }
    loop_thread = std::thread([this] { server.run(); });
  }

  ~BenchServer() {
    if (loop_thread.joinable()) {
      server.request_stop();
      loop_thread.join();
    }
  }

  static serve::ServerOptions make_server_options() {
    serve::ServerOptions o;
    o.port = 0;  // ephemeral
    return o;
  }
};

/// One client session: connect, pipeline every line in one write, then
/// read all responses back. Returns false on any transport failure.
bool run_client(int port, const std::string& pipelined, std::size_t n_lines,
                std::vector<std::string>* responses) {
  net::LineClient client;
  std::string err;
  if (!client.connect("127.0.0.1", port, 5000, &err)) return false;
  if (!client.send_raw(pipelined)) return false;
  client.shutdown_write();
  responses->reserve(n_lines);
  for (std::size_t i = 0; i < n_lines; ++i) {
    std::string line;
    if (!client.read_line(&line, 120000)) return false;
    responses->push_back(std::move(line));
  }
  return true;
}

struct Run {
  double wall_seconds = 0;
  double qps = 0;  ///< aggregate across all clients
  bool transport_ok = false;
  bool identical = false;  ///< every response byte-equal to stdin mode
};

/// `clients` concurrent connections, each sending the full session
/// pipelined. `expected` is the stdin-mode reference for one session.
Run run_clients(int port, int clients, const std::vector<std::string>& lines,
                const std::vector<std::string>& expected) {
  std::string pipelined;
  for (const std::string& line : lines) pipelined += line + "\n";

  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> responses(clients);
  std::atomic<int> failures{0};
  core::Timer timer;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      if (!run_client(port, pipelined, lines.size(), &responses[c]))
        failures.fetch_add(1);
    });
  for (std::thread& t : threads) t.join();

  Run run;
  run.wall_seconds = timer.seconds();
  run.qps = run.wall_seconds > 0
                ? clients * lines.size() / run.wall_seconds
                : 0;
  run.transport_ok = failures.load() == 0;
  run.identical = run.transport_ok;
  for (const std::vector<std::string>& r : responses)
    run.identical = run.identical && r == expected;
  return run;
}

void reproduce_net(const bench::Budget& budget) {
  bench::print_header(
      "TCP serving throughput: multi-client pipelined sessions vs the "
      "stdin-mode reference");

  const serve::ServeOptions opts = serve_options(budget);
  const std::vector<std::string> lines = make_session(1);

  // Stdin-mode reference: the exact same lines through handle_lines on a
  // fresh service with identical options. Responses are pure functions of
  // (request, options), so every TCP response must match these bytes.
  std::vector<std::string> expected;
  {
    serve::EvalService reference(opts);
    expected = reference.handle_lines(lines);
  }

  BenchServer bench_server(opts);
  if (!bench_server.ok) return;
  const int port = bench_server.server.port();

  // Cold: the single client's session pays every mapping search.
  const Run cold = run_clients(port, 1, lines, expected);
  // Warm: pure transport + cache-hit throughput at increasing fan-in.
  const Run warm1 = run_clients(port, 1, lines, expected);
  const Run warm2 = run_clients(port, 2, lines, expected);
  const Run warm4 = run_clients(port, 4, lines, expected);

  const bool identical = cold.identical && warm1.identical &&
                         warm2.identical && warm4.identical;
  const bool transport_ok = cold.transport_ok && warm1.transport_ok &&
                            warm2.transport_ok && warm4.transport_ok;

  core::Table t({"Phase", "Clients", "Queries", "Wall (s)", "Queries/s"});
  const auto add = [&](const char* phase, int clients, const Run& run) {
    t.add_row({phase, core::Table::fmt_int(clients),
               core::Table::fmt_int(
                   static_cast<long long>(clients * lines.size())),
               core::Table::fmt(run.wall_seconds, 3),
               core::Table::fmt_int(static_cast<long long>(run.qps))});
  };
  add("cold", 1, cold);
  add("warm", 1, warm1);
  add("warm", 2, warm2);
  add("warm", 4, warm4);
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "responses identical to stdin mode: %s   transport clean: %s\n"
      "warm scaling 1->4 clients: %.2fx aggregate qps\n",
      identical ? "yes" : "NO (BUG)", transport_ok ? "yes" : "NO (BUG)",
      warm1.qps > 0 ? warm4.qps / warm1.qps : 0.0);

  FILE* f = std::fopen("BENCH_net.json", "w");
  if (!f) {
    std::printf("could not open BENCH_net.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"net_throughput\",\n");
  std::fprintf(f, "  \"envelope\": \"nvdla256\",\n");
  std::fprintf(f, "  \"networks\": [\"squeezenet\", \"mobilenetv2\"],\n");
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               core::ThreadPool::default_num_threads());
  std::fprintf(f, "  \"session_queries\": %zu,\n", lines.size());
  std::fprintf(f, "  \"cold_qps\": %.1f,\n", cold.qps);
  std::fprintf(f, "  \"warm_qps_1_client\": %.1f,\n", warm1.qps);
  std::fprintf(f, "  \"warm_qps_2_clients\": %.1f,\n", warm2.qps);
  std::fprintf(f, "  \"warm_qps_4_clients\": %.1f,\n", warm4.qps);
  std::fprintf(f, "  \"warm_scaling_1_to_4\": %.3f,\n",
               warm1.qps > 0 ? warm4.qps / warm1.qps : 0.0);
  std::fprintf(f, "  \"transport_clean\": %s,\n",
               transport_ok ? "true" : "false");
  std::fprintf(f, "  \"responses_identical_to_stdin_mode\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f,
               "  \"note\": \"every TCP response byte-compared against "
               "EvalService::handle_lines with identical options; the "
               "server runs one loop thread, so multi-client gains come "
               "from larger batches per loop pass, whose cold units fan "
               "out on the evaluator's pool\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_net.json\n");
}

/// Warm single-query round trip over TCP: socket write, poll wake, frame,
/// admit, dispatch (cache hit), reorder flush, socket read.
void BM_NetWarmRoundTrip(benchmark::State& state) {
  const bench::Budget budget = bench::Budget::from_env();
  BenchServer bench_server(serve_options(budget));
  if (!bench_server.ok) {
    state.SkipWithError("server start failed");
    return;
  }
  net::LineClient client;
  std::string err;
  if (!client.connect("127.0.0.1", bench_server.server.port(), 5000, &err)) {
    state.SkipWithError("connect failed");
    return;
  }
  const std::vector<std::string> lines = make_session(1);
  // Prime the cache so iterations measure the transport, not search.
  std::string response;
  client.send_line(lines[0]);
  client.read_line(&response, 120000);
  for (auto _ : state) {
    client.send_line(lines[0]);
    if (!client.read_line(&response, 120000)) {
      state.SkipWithError("round trip failed");
      return;
    }
    benchmark::DoNotOptimize(response.data());
  }
}
BENCHMARK(BM_NetWarmRoundTrip)->Unit(benchmark::kMicrosecond);

/// Warm pipelined burst: 32 requests in one write, 32 responses back —
/// the per-query floor when framing and dispatch are amortized.
void BM_NetWarmPipelinedBurst(benchmark::State& state) {
  const bench::Budget budget = bench::Budget::from_env();
  BenchServer bench_server(serve_options(budget));
  if (!bench_server.ok) {
    state.SkipWithError("server start failed");
    return;
  }
  net::LineClient client;
  std::string err;
  if (!client.connect("127.0.0.1", bench_server.server.port(), 5000, &err)) {
    state.SkipWithError("connect failed");
    return;
  }
  const std::vector<std::string> lines = make_session(1);
  constexpr int kBurst = 32;
  std::string burst;
  for (int i = 0; i < kBurst; ++i)
    burst += lines[static_cast<std::size_t>(i) % lines.size()] + "\n";
  std::string response;
  client.send_raw(burst);  // prime
  for (int i = 0; i < kBurst; ++i) client.read_line(&response, 120000);
  for (auto _ : state) {
    client.send_raw(burst);
    for (int i = 0; i < kBurst; ++i) {
      if (!client.read_line(&response, 120000)) {
        state.SkipWithError("burst read failed");
        return;
      }
    }
    benchmark::DoNotOptimize(response.data());
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_NetWarmPipelinedBurst)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  reproduce_net(naas::bench::Budget::from_env());
  return naas::bench::run_microbenchmarks(argc, argv);
}
