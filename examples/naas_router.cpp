// naas_router — consistent-hash sharding front end (fleet::Router) for a
// fleet of naas_serve --listen workers. It speaks the exact single-service
// line protocol through serve::serve_lines, on stdin or over TCP with
// --listen, so clients cannot tell the fleet from one warm naas_serve,
// byte for byte. Sharding, failover and health checks: fleet::Router and
// docs/serving.md. Flags: the table in main(), printed as the usage on a
// bad command line; --faults also arms the router's own fault sites
// (router_forward_fail, router_forward_stall, router_ping_fail).

#include <cstdio>
#include <string>
#include <vector>

#include "fleet/router.hpp"
#include "serve/front_end.hpp"

int main(int argc, char** argv) {
  using namespace naas;

  fleet::RouterOptions router_options;
  bool listen = false;
  serve::ServerOptions server;
  std::string workers_spec;
  std::vector<core::Flag> table = {
      core::text_flag("--workers", "<host:port,...>", &workers_spec,
                      "the fleet's naas_serve --listen workers (required)"),
      // The bound keeps a typo from sizing the ring past memory.
      core::int_flag("--vnodes", &router_options.vnodes,
                     "ring points per worker (default 64)", 0, 4096),
      core::int_flag("--connect-timeout-ms", &router_options.connect_timeout_ms,
                     "worker connect budget (default 2000)"),
      core::int_flag("--forward-timeout-ms", &router_options.forward_timeout_ms,
                     "per-forward deadline (default 15000)"),
      core::int_flag("--max-attempts", &router_options.max_forward_attempts,
                     "distinct workers tried per line (default 3)"),
      core::int_flag("--ping-interval-ms", &router_options.ping_interval_ms,
                     "health-check cadence (default 0: no health thread)"),
      core::int_flag("--ping-timeout-ms", &router_options.ping_timeout_ms,
                     "health-probe budget (default 1000)"),
      core::int_flag("--reconnect-backoff-ms",
                     &router_options.reconnect_backoff_ms,
                     "reconnect backoff base, doubling (default 50)"),
      core::int_flag("--reconnect-backoff-cap-ms",
                     &router_options.reconnect_backoff_cap_ms,
                     "reconnect backoff cap (default 2000)")};
  serve::add_front_end_flags(&table, &listen, &server);
  const core::Flags flags(
      "usage: naas_router --workers <host:port,...> [flags]\n",
      std::move(table),
      "protocol: identical to naas_serve (one JSON request per line; blank\n"
      "line submits a batch; --listen for TCP). See docs/serving.md.\n");
  if (const std::string why = flags.parse(argc, argv, nullptr); !why.empty())
    return flags.usage_error(why);
  if (workers_spec.empty()) return flags.usage_error("--workers is required");
  std::string err;
  if (!fleet::parse_worker_list(workers_spec, &router_options.workers, &err))
    return flags.usage_error("bad --workers list: " + err);
  // The router holds no store; the transport refresh hook is a no-op.
  server.refresh_every_batches = 0;

  serve::install_drain_signals();

  fleet::Router router(router_options);
  std::fprintf(stderr, "router: %lld workers, %lld ring points each\n",
               static_cast<long long>(router.num_workers()),
               static_cast<long long>(router_options.vnodes));

  // The fleet soak greps "degraded:" and "failovers:" to assert fault
  // weather was survived, not avoided.
  return serve::serve_lines(router, listen, server, "router", [&] {
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
  });
}
