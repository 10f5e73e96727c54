// naas_serve — long-lived evaluator service (serve::EvalService) over
// stdin/stdout or, with --listen, TCP. Both go through serve::serve_lines
// and EvalService::handle_lines, so responses are byte-identical either
// way, batched or not, cold or warm from the store: a scripted session is
// diffable across runs (CI does exactly that). SIGINT/SIGTERM drain:
// finish the requests already taken, flush the store, print the summary,
// exit 0.
//
//   echo '{"id":1,"method":"search_mapping","arch":{"preset":"nvdla256"},
//          "layer":{"network":"squeezenet","index":0}}' | naas_serve
//
// Methods and schema: docs/serving.md. Flags: the table in main(),
// printed as the usage on a bad command line.

#include <cstdio>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "fleet/replicator.hpp"
#include "serve/front_end.hpp"
#include "serve/service.hpp"

int main(int argc, char** argv) {
  using namespace naas;

  serve::ServeOptions options;
  options.mapping.population = 10;
  options.mapping.iterations = 6;
  bool listen = false;
  serve::ServerOptions server;
  std::string peers_spec;
  long long peer_pull_every = 4;
  std::vector<core::Flag> table = {
      search::cache_path_flag(&options.store_path),
      search::cache_readonly_flag(&options.store_readonly),
      cost::cost_backend_flag(&options.cost_backend),
      core::int_flag("--threads", &options.num_threads,
                     "evaluation threads (0 = hardware default)", 0,
                     core::ThreadPool::kMaxThreads),
      core::int_flag("--refresh-every", &server.refresh_every_batches,
                     "store refresh every n batches (default 1; 0: at exit)"),
      // CMA-ES needs two candidates per generation to select from.
      core::int_flag("--map-population", &options.mapping.population,
                     "mapping-search population (default 10)", 2),
      core::int_flag("--map-iterations", &options.mapping.iterations,
                     "mapping-search generations (default 6)", 1),
      core::int_flag("--seed", &options.mapping.seed,
                     "mapping-search seed (default 1)"),
      core::text_flag("--peers", "<host:port,...>", &peers_spec,
                      "pull peer store snapshots at boot and on refresh"),
      core::int_flag("--peer-pull-every", &peer_pull_every,
                     "peer pull every n refreshes (default 4; 0: at boot)")};
  serve::add_front_end_flags(&table, &listen, &server);
  const core::Flags flags(
      "usage: naas_serve [flags]\n", std::move(table),
      "protocol: one JSON request per line, answered in order on stdout; a\n"
      "blank line submits a batch, EOF the rest; --listen serves TCP. The\n"
      "mapping-search budget (population, iterations, seed) is part of the\n"
      "cache key: share a store only between services with equal ones.\n"
      "See docs/serving.md.\n");
  if (const std::string why = flags.parse(argc, argv, nullptr); !why.empty())
    return flags.usage_error(why);
  if (!cost::backend_usable(options.cost_backend)) return 1;

  fleet::ReplicatorOptions repl_options;
  const bool have_peers = !peers_spec.empty();
  std::string err;
  if (have_peers &&
      !fleet::parse_worker_list(peers_spec, &repl_options.peers, &err))
    return flags.usage_error("bad --peers list: " + err);

  serve::install_drain_signals();

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

  // The final store flush rides the EvalService destructor (plus the
  // per-batch refresh), so a killed warm server loses no completed results.
  // CI greps "mapping searches run:" to prove a warm run did zero work.
  return serve::serve_lines(handler, listen, server, "serve", [&] {
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
                 "serve: robustness: %lld shed, %lld timed out, %lld "
                 "protocol rejects; store refresh retries: %lld\n",
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
  });
}
