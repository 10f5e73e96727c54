// Sharded evaluator fleet end to end: a consistent-hash Router fronting
// 1/2/4 in-process naas_serve-equivalent workers (EvalService + TCP
// server), measured on the same query stream as bench_net. Emits
// BENCH_fleet.json for CI trend tracking.
//
// Correctness is asserted, not assumed, on three axes:
//   - every fleet response is byte-compared against a fresh single
//     EvalService::handle_lines run with identical options
//     (`responses_identical_to_single_service`);
//   - a mid-session worker kill must fail over with the client-visible
//     bytes unchanged, and the first post-kill pass's wall time is
//     reported as the failover recovery cost (`failover_latency_ms`);
//   - a "restarted" worker that pulls peer segments before serving must
//     replay the whole session with zero mapping searches
//     (`rejoin_zero_searches`).
//
// On a 1-core container adding workers buys pipelining of the router's
// send/read passes against worker evaluation, not parallel search; the
// scaling column is reported for trend, not judged.

#include "bench_common.hpp"

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "fleet/replicator.hpp"
#include "fleet/router.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace naas;

/// Same query mix as bench_net: search_mapping over every layer of the
/// benchmark nets on one preset arch, so the fleet numbers compare
/// directly against the single-server transport numbers.
std::vector<std::string> make_session() {
  std::vector<std::string> lines;
  int id = 0;
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
  return lines;
}

serve::ServeOptions serve_options(const bench::Budget& budget) {
  serve::ServeOptions opts;
  opts.mapping.population = budget.map_population;
  opts.mapping.iterations = budget.map_iterations;
  opts.mapping.seed = budget.seed;
  return opts;
}

/// One in-process worker: EvalService + TCP front end + its loop thread —
/// exactly what `naas_serve --listen` runs, minus the process boundary
/// (the SIGKILL flavor is scripts/fleet_soak.sh's job).
struct FleetWorker {
  serve::EvalService service;
  serve::Server server;
  std::thread loop_thread;
  bool ok = false;

  explicit FleetWorker(const serve::ServeOptions& opts)
      : service(opts), server(service, ephemeral()) {
    std::string err;
    ok = server.start(&err);
    if (!ok) {
      std::fprintf(stderr, "bench_fleet: worker start failed: %s\n",
                   err.c_str());
      return;
    }
    loop_thread = std::thread([this] { server.run(); });
  }

  ~FleetWorker() { stop(); }

  void stop() {
    if (loop_thread.joinable()) {
      server.request_stop();
      loop_thread.join();
    }
  }

  int port() const { return server.port(); }

  static serve::ServerOptions ephemeral() {
    serve::ServerOptions o;
    o.port = 0;
    return o;
  }
};

/// N workers behind one Router.
struct Fleet {
  std::vector<std::unique_ptr<FleetWorker>> workers;
  std::unique_ptr<fleet::Router> router;
  bool ok = true;

  Fleet(int n, const serve::ServeOptions& opts) {
    fleet::RouterOptions ropts;
    for (int i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<FleetWorker>(opts));
      ok = ok && workers.back()->ok;
      ropts.workers.push_back({"127.0.0.1", workers.back()->port()});
    }
    ropts.forward_timeout_ms = 120000;  // evaluation, not I/O, dominates
    ropts.reconnect_backoff_ms = 10;
    ropts.reconnect_backoff_cap_ms = 100;
    if (ok) router = std::make_unique<fleet::Router>(std::move(ropts));
  }
};

struct Run {
  double wall_seconds = 0;
  double qps = 0;
  bool identical = false;
};

Run run_session(fleet::Router& router, const std::vector<std::string>& lines,
                const std::vector<std::string>& expected) {
  core::Timer timer;
  const std::vector<std::string> got = router.handle_lines(lines);
  Run run;
  run.wall_seconds = timer.seconds();
  run.qps = run.wall_seconds > 0 ? lines.size() / run.wall_seconds : 0;
  run.identical = got == expected;
  return run;
}

void reproduce_fleet(const bench::Budget& budget) {
  bench::print_header(
      "Sharded evaluator fleet: consistent-hash router over 1/2/4 workers "
      "vs the single-service reference");

  const serve::ServeOptions opts = serve_options(budget);
  const std::vector<std::string> lines = make_session();

  // Single-service reference: responses are pure functions of
  // (request, options), so every fleet response must match these bytes.
  std::vector<std::string> expected;
  {
    serve::EvalService reference(opts);
    expected = reference.handle_lines(lines);
  }

  bool identical = true;
  core::Table t({"Workers", "Phase", "Queries", "Wall (s)", "Queries/s"});
  double warm_qps[3] = {0, 0, 0};
  const int sizes[3] = {1, 2, 4};
  for (int s = 0; s < 3; ++s) {
    Fleet fleet(sizes[s], opts);
    if (!fleet.ok) return;
    const Run cold = run_session(*fleet.router, lines, expected);
    const Run warm = run_session(*fleet.router, lines, expected);
    identical = identical && cold.identical && warm.identical;
    warm_qps[s] = warm.qps;
    for (const auto* phase : {&cold, &warm})
      t.add_row({core::Table::fmt_int(sizes[s]),
                 phase == &cold ? "cold" : "warm",
                 core::Table::fmt_int(static_cast<long long>(lines.size())),
                 core::Table::fmt(phase->wall_seconds, 3),
                 core::Table::fmt_int(static_cast<long long>(phase->qps))});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Failover: warm 2-worker fleet, kill worker 0, replay. The bytes must
  // not change; the pass's wall time is the client-visible recovery cost
  // (dead-connection detection + group failover + re-evaluation of the
  // dead worker's shard on the survivor's cold cache).
  double failover_ms = 0;
  bool failover_identical = false;
  long long failovers = 0;
  {
    Fleet fleet(2, opts);
    if (!fleet.ok) return;
    run_session(*fleet.router, lines, expected);  // warm both shards
    fleet.workers[0]->stop();
    const Run after = run_session(*fleet.router, lines, expected);
    failover_ms = after.wall_seconds * 1000.0;
    failover_identical = after.identical;
    failovers = fleet.router->stats().failovers;
  }

  // Rejoin: a "restarted" worker with an empty cache pulls every peer's
  // segment before serving, then must replay the whole session warm.
  bool rejoin_zero_searches = false;
  bool rejoin_identical = false;
  std::size_t rejoin_adopted = 0;
  {
    Fleet fleet(4, opts);
    if (!fleet.ok) return;
    run_session(*fleet.router, lines, expected);  // spread entries over shards
    serve::EvalService fresh(opts);
    fleet::ReplicatorOptions ropts;
    for (const auto& w : fleet.workers)
      ropts.peers.push_back({"127.0.0.1", w->port()});
    fleet::Replicator replicator(ropts);
    rejoin_adopted = replicator.pull_once(fresh);
    rejoin_identical = fresh.handle_lines(lines) == expected;
    rejoin_zero_searches = fresh.evaluator().mapping_searches() == 0;
  }

  std::printf(
      "responses identical to single service: %s\n"
      "failover pass: %.0f ms, %lld lines failed over, bytes %s\n"
      "rejoin: %zu entries adopted from 4 peers, replay %s with %s\n"
      "warm scaling 1->4 workers: %.2fx qps\n",
      identical ? "yes" : "NO (BUG)", failover_ms, failovers,
      failover_identical ? "unchanged" : "CHANGED (BUG)", rejoin_adopted,
      rejoin_identical ? "byte-identical" : "DIVERGED (BUG)",
      rejoin_zero_searches ? "zero searches" : "SEARCHES RUN (BUG)",
      warm_qps[0] > 0 ? warm_qps[2] / warm_qps[0] : 0.0);

  FILE* f = std::fopen("BENCH_fleet.json", "w");
  if (!f) {
    std::printf("could not open BENCH_fleet.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fleet_throughput\",\n");
  std::fprintf(f, "  \"envelope\": \"nvdla256\",\n");
  std::fprintf(f, "  \"networks\": [\"squeezenet\", \"mobilenetv2\"],\n");
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               core::ThreadPool::default_num_threads());
  std::fprintf(f, "  \"session_queries\": %zu,\n", lines.size());
  std::fprintf(f, "  \"warm_qps_1_worker\": %.1f,\n", warm_qps[0]);
  std::fprintf(f, "  \"warm_qps_2_workers\": %.1f,\n", warm_qps[1]);
  std::fprintf(f, "  \"warm_qps_4_workers\": %.1f,\n", warm_qps[2]);
  std::fprintf(f, "  \"warm_scaling_1_to_4\": %.3f,\n",
               warm_qps[0] > 0 ? warm_qps[2] / warm_qps[0] : 0.0);
  std::fprintf(f, "  \"failover_latency_ms\": %.1f,\n", failover_ms);
  std::fprintf(f, "  \"failover_lines\": %lld,\n", failovers);
  std::fprintf(f, "  \"failover_bytes_unchanged\": %s,\n",
               failover_identical ? "true" : "false");
  std::fprintf(f, "  \"rejoin_entries_adopted\": %zu,\n", rejoin_adopted);
  std::fprintf(f, "  \"rejoin_byte_identical\": %s,\n",
               rejoin_identical ? "true" : "false");
  std::fprintf(f, "  \"rejoin_zero_searches\": %s,\n",
               rejoin_zero_searches ? "true" : "false");
  std::fprintf(f, "  \"responses_identical_to_single_service\": %s,\n",
               identical && failover_identical && rejoin_identical
                   ? "true"
                   : "false");
  std::fprintf(f,
               "  \"note\": \"every fleet response byte-compared against "
               "EvalService::handle_lines with identical options; failover "
               "latency is the full post-kill session pass including "
               "dead-connection detection and shard re-evaluation; on a "
               "1-core host multi-worker gains come from pipelining router "
               "I/O against evaluation, not parallel search\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_fleet.json\n");
}

/// Warm single-query trip through the full routing pipeline: key, ring
/// lookup, pooled-connection forward, worker cache hit, reassembly.
void BM_FleetWarmRoutedQuery(benchmark::State& state) {
  const bench::Budget budget = bench::Budget::from_env();
  Fleet fleet(2, serve_options(budget));
  if (!fleet.ok) {
    state.SkipWithError("fleet start failed");
    return;
  }
  const std::vector<std::string> lines = make_session();
  fleet.router->handle_lines(lines);  // prime every shard
  const std::vector<std::string> one{lines[0]};
  for (auto _ : state) {
    const std::vector<std::string> got = fleet.router->handle_lines(one);
    if (got.size() != 1) {
      state.SkipWithError("routed query failed");
      return;
    }
    benchmark::DoNotOptimize(got[0].data());
  }
}
BENCHMARK(BM_FleetWarmRoutedQuery)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  reproduce_fleet(naas::bench::Budget::from_env());
  return naas::bench::run_microbenchmarks(argc, argv);
}
