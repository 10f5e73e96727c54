// Per-layer probe suite of the traced run. Each probe calls one layer's
// public entry point on the workload's own inputs and records a span per
// call; every per-layer metric is a statistic over those spans. A layer's
// self time is its span minus the next-deeper entry point measured on the
// same units (e.g. net.self_us = TCP round trip - warm handle_lines).
//
// Layer -> entry point probed:
//   cost           CostModel::make_context, CostModel::evaluate_batch (64)
//   mapping_search search::search_mapping (cold)
//   evaluator      ArchEvaluator::evaluate_population (+ scheduler_stats)
//   store          ResultStore::load / ResultStore::append
//   json           serve::Json::parse / Json::dump
//   service        EvalService::handle_lines (cold, warm x1, warm x32)
//   net            serve::Server over loopback TCP, one request in flight
//   router         fleet::Router::handle_lines over two in-process workers
//
// Every response a probe receives is byte-compared with the cold service
// reference; a mismatch counts as a failed operation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cost/cost_model.hpp"
#include "fleet/router.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "search/accelerator_search.hpp"
#include "search/encoding.hpp"
#include "search/result_store.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "server_thread.hpp"
#include "workloads.hpp"

namespace naasbench {

namespace {

using namespace naas;

constexpr std::size_t kBatch = 64;       ///< evaluate_batch candidates
constexpr std::size_t kServeBatch = 32;  ///< warm batch size
constexpr int kIoTimeoutMs = 60000;

double median_of(const Tracer& tracer, const char* span) {
  return median(tracer.durations(span));
}

}  // namespace

std::vector<arch::ArchConfig> seeded_population(
    const arch::ResourceConstraint& envelope, std::uint64_t seed,
    std::size_t n) {
  const search::HwEncodingSpec spec = search::make_hw_spec(
      envelope, search::OrderEncoding::kImportance, true);
  core::Rng rng(core::stream_seed(seed, 0x9a7c));
  std::unordered_set<std::uint64_t> seen;
  std::vector<arch::ArchConfig> out;
  std::vector<double> genome(static_cast<std::size_t>(spec.genome_size()));
  for (int tries = 0; out.size() < n && tries < 100000; ++tries) {
    for (double& g : genome) g = rng.uniform();
    if (!spec.valid(genome)) continue;
    arch::ArchConfig cfg = spec.decode(genome);
    if (seen.insert(search::arch_fingerprint(cfg)).second)
      out.push_back(std::move(cfg));
  }
  return out;
}

std::vector<std::pair<arch::ArchConfig, nn::Workload>> seeded_units(
    const std::vector<arch::ArchConfig>& archs,
    const std::vector<nn::Network>& networks, std::uint64_t seed,
    std::size_t n) {
  std::vector<std::pair<arch::ArchConfig, nn::Workload>> all;
  for (const arch::ArchConfig& a : archs)
    for (const nn::Network& net : networks)
      for (const auto& [layer, count] : net.unique_layers())
        all.emplace_back(a, layer);
  core::Rng rng(core::stream_seed(seed, 0x0417));
  rng.shuffle(all);
  if (all.size() > n) all.resize(n);
  return all;
}

std::string search_mapping_body(const arch::ArchConfig& arch,
                                const nn::Workload& layer) {
  serve::Json req = serve::Json::object();
  req.set("id", serve::Json::integer(0));
  req.set("method", serve::Json::string("search_mapping"));
  req.set("arch", serve::arch_to_json(arch));
  req.set("layer", serve::layer_to_json(layer));
  return after_id(req.dump());
}

void run_probes(const ProbeInputs& in, const Args& args, Report& report,
                Tracer& tracer) {
  const cost::CostModel model;
  const int threads = host_threads();
  const int reps = args.smoke ? 2 : 20;
  core::ThreadPool pool(threads);
  long long attempted = 0;
  long long failed = 0;
  const auto expect = [&](bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "naasbench: probe mismatch: %s\n", what);
    }
  };

  // ---- cost kernel ------------------------------------------------------
  {
    ScopedSpan section(tracer, "probe.cost", 0);
    core::Rng rng(core::stream_seed(args.seed, 0xc057));
    const search::MapEncodingSpec encoding;
    std::vector<double> genome(
        static_cast<std::size_t>(encoding.genome_size()));
    for (std::size_t u = 0; u < in.units.size(); ++u) {
      const auto& [a, layer] = in.units[u];
      std::vector<mapping::Mapping> maps;
      for (std::size_t i = 0; i < kBatch; ++i) {
        for (double& g : genome) g = rng.uniform();
        maps.push_back(encoding.decode(genome, a, layer));
      }
      std::vector<cost::CostReport> reports(kBatch);
      for (int r = 0; r < reps; ++r) {
        // One context takes ~100 ns: time a block so clock reads vanish.
        ScopedSpan span(tracer, "make_context_x100", u, section.id());
        for (int i = 0; i < 100; ++i) {
          const cost::LayerContext ctx = model.make_context(a, layer);
          (void)ctx;
        }
      }
      const cost::LayerContext ctx = model.make_context(a, layer);
      for (int r = 0; r < reps; ++r) {
        ScopedSpan span(tracer, "evaluate_batch", u, section.id());
        model.evaluate_batch(ctx, maps, reports);
      }
      expect(std::any_of(reports.begin(), reports.end(),
                         [](const cost::CostReport& c) { return c.legal; }),
             "evaluate_batch scored no legal candidate");
    }
    report.metric("cost.ns_per_candidate",
                  median_of(tracer, "evaluate_batch") / kBatch * 1e9, "ns");
    report.metric("cost.context_us",
                  median_of(tracer, "make_context_x100") / 100 * 1e6, "us");
  }

  // ---- mapping search ---------------------------------------------------
  {
    ScopedSpan section(tracer, "probe.mapping_search", 0);
    for (std::size_t u = 0; u < in.units.size(); ++u) {
      const auto& [a, layer] = in.units[u];
      search::MappingSearchResult r;
      {
        ScopedSpan span(tracer, "search_mapping", u, section.id());
        r = search::search_mapping(model, a, layer, in.mapping, &pool);
      }
      expect(std::isfinite(r.best_edp), "search_mapping EDP is finite");
    }
    const std::vector<double> d = tracer.durations("search_mapping");
    report.metric("mapping_search.p50_ms", quantile(d, 0.5) * 1e3, "ms");
    report.metric("mapping_search.p90_ms", quantile(d, 0.9) * 1e3, "ms");
  }

  // ---- evaluator + task graph, then the store on its entries ------------
  search::StoreEntries entries;
  {
    ScopedSpan section(tracer, "probe.evaluator", 0);
    search::ArchEvaluator evaluator(model, in.mapping, &pool);
    std::vector<double> fitness;
    {
      ScopedSpan span(tracer, "evaluate_population", 0, section.id());
      fitness = evaluator.evaluate_population(in.population, in.networks);
    }
    for (double f : fitness)
      expect(std::isfinite(f), "evaluate_population fitness is finite");
    report.metric("evaluator.ms_per_candidate",
                  median_of(tracer, "evaluate_population") /
                      static_cast<double>(in.population.size()) * 1e3,
                  "ms");
    report.metric("taskgraph.idle_frac",
                  evaluator.scheduler_stats().idle_fraction(), "ratio");
    double lookups = 0;
    for (const nn::Network& net : in.networks)
      lookups += static_cast<double>(net.unique_layers().size());
    lookups *= static_cast<double>(in.population.size());
    report.detail("evaluator.cache_hit_ratio",
                  1.0 - static_cast<double>(evaluator.mapping_searches()) /
                            lookups,
                  "ratio");
    entries = evaluator.snapshot_since(0);
  }
  {
    ScopedSpan section(tracer, "probe.store", 0);
    const std::string path = args.work_dir + "/probe_store.bin";
    const std::string appended = args.work_dir + "/probe_append.bin";
    expect(search::ResultStore::save(path, entries) ==
               search::StoreStatus::kOk,
           "ResultStore::save");
    for (int r = 0; r < reps; ++r) {
      search::StoreLoadResult loaded;
      {
        ScopedSpan span(tracer, "store_load", 0, section.id());
        loaded = search::ResultStore::load(path);
      }
      expect(loaded.status == search::StoreStatus::kOk &&
                 loaded.entries.size() == entries.size(),
             "ResultStore::load round trip");
    }
    for (int r = 0; r < reps; ++r) {
      std::remove(appended.c_str());
      ScopedSpan span(tracer, "store_append", 0, section.id());
      expect(search::ResultStore::append(appended, entries) ==
                 search::StoreStatus::kOk,
             "ResultStore::append");
    }
    std::remove(path.c_str());
    std::remove(appended.c_str());
    report.metric("store.load_ms", median_of(tracer, "store_load") * 1e3,
                  "ms");
    report.metric("store.append_ms", median_of(tracer, "store_append") * 1e3,
                  "ms");
    report.detail("store.entries", static_cast<double>(entries.size()),
                  "count");
  }

  // ---- service + JSON codec --------------------------------------------
  const std::uint32_t service_probe = tracer.begin("probe.service", 0);
  serve::ServeOptions so;
  so.mapping = in.mapping;
  so.num_threads = std::max(1, threads - 1);
  serve::EvalService service(so);
  std::vector<std::string> lines;
  std::vector<std::string> reference;
  for (const std::string& body : in.request_bodies)
    lines.push_back("{\"id\":0" + body);
  for (std::size_t u = 0; u < lines.size(); ++u) {
    ScopedSpan span(tracer, "service_cold", u, service_probe);
    reference.push_back(service.handle_lines({lines[u]})[0]);
  }
  for (const std::string& resp : reference)
    expect(resp.find("\"ok\":true") != std::string::npos,
           "cold service response is ok");
  for (int r = 0; r < reps; ++r)
    for (std::size_t u = 0; u < lines.size(); ++u) {
      std::vector<std::string> got;
      {
        ScopedSpan span(tracer, "handle_lines", u, service_probe);
        got = service.handle_lines({lines[u]});
      }
      expect(got[0] == reference[u], "warm handle_lines matches cold");
    }
  {
    std::vector<std::string> batch;
    std::vector<std::string> want;
    for (std::size_t i = 0; i < kServeBatch; ++i) {
      batch.push_back(lines[i % lines.size()]);
      want.push_back(reference[i % lines.size()]);
    }
    for (int r = 0; r < reps; ++r) {
      std::vector<std::string> got;
      {
        ScopedSpan span(tracer, "handle_lines_x32", 0, service_probe);
        got = service.handle_lines(batch);
      }
      expect(got == want, "warm batch matches cold");
    }
  }
  for (int r = 0; r < reps; ++r)
    for (std::size_t u = 0; u < lines.size(); ++u) {
      std::string err;
      {
        ScopedSpan span(tracer, "json_parse", u, service_probe);
        serve::Json::parse(lines[u], &err);
      }
      const serve::Json resp = serve::Json::parse(reference[u], &err);
      std::string text;
      {
        ScopedSpan span(tracer, "json_dump", u, service_probe);
        text = resp.dump();
      }
      expect(text == reference[u], "Json parse/dump round trip");
    }
  const double warm_s = median_of(tracer, "handle_lines");
  report.metric("json.parse_us", median_of(tracer, "json_parse") * 1e6, "us");
  report.metric("json.dump_us", median_of(tracer, "json_dump") * 1e6, "us");
  report.metric("service.warm_us", warm_s * 1e6, "us");
  report.metric("service.warm_batch_us",
                median_of(tracer, "handle_lines_x32") / kServeBatch * 1e6,
                "us");
  report.metric("service.cold_ms", median_of(tracer, "service_cold") * 1e3,
                "ms");
  tracer.end(service_probe);

  // ---- net: the TCP server, one request in flight -----------------------
  {
    ScopedSpan section(tracer, "probe.net", 0);
    ServerThread server(service);
    net::LineClient client;
    std::string err;
    if (!server.ok() || !client.connect("127.0.0.1", server.port(),
                                        kIoTimeoutMs, &err)) {
      expect(false, "probe server start/connect");
    } else {
      for (int r = 0; r < reps; ++r)
        for (std::size_t u = 0; u < lines.size(); ++u) {
          std::string resp;
          bool ok = false;
          {
            ScopedSpan span(tracer, "tcp_roundtrip", u, section.id());
            ok = client.send_line(lines[u]) &&
                 client.read_line(&resp, kIoTimeoutMs);
          }
          expect(ok && resp == reference[u], "TCP response matches");
        }
    }
    client.close();
    server.stop();
    const double rtt = median_of(tracer, "tcp_roundtrip");
    report.metric("net.rtt_us", rtt * 1e6, "us");
    report.metric("net.self_us", (rtt - warm_s) * 1e6, "us");
  }

  // ---- router: two in-process workers behind fleet::Router --------------
  {
    ScopedSpan section(tracer, "probe.router", 0);
    struct Worker {
      serve::EvalService service;
      ServerThread server;
      explicit Worker(const serve::ServeOptions& o)
          : service(o), server(service) {}
    };
    serve::ServeOptions wo = so;
    wo.num_threads = 1;  // as in fleet_warm: workers evaluate inline
    std::vector<std::unique_ptr<Worker>> workers;
    fleet::RouterOptions ro;
    ro.forward_timeout_ms = kIoTimeoutMs;
    bool ok = true;
    for (int w = 0; w < 2; ++w) {
      workers.push_back(std::make_unique<Worker>(wo));
      ok = ok && workers.back()->server.ok();
      ro.workers.push_back({"127.0.0.1", workers.back()->server.port()});
    }
    if (!ok) {
      expect(false, "probe worker start");
    } else {
      fleet::Router router(ro);
      expect(router.handle_lines(lines) == reference,
             "router cold pass matches");
      for (int r = 0; r < reps; ++r)
        for (std::size_t u = 0; u < lines.size(); ++u) {
          std::vector<std::string> got;
          {
            ScopedSpan span(tracer, "router_handle_lines", u, section.id());
            got = router.handle_lines({lines[u]});
          }
          expect(got[0] == reference[u], "routed response matches");
        }
      // Direct worker round trip on the same lines: warm worker 0 on all
      // of them first (the router sent it only its shard).
      net::LineClient direct;
      std::string err;
      if (direct.connect("127.0.0.1", workers[0]->server.port(),
                         kIoTimeoutMs, &err)) {
        for (std::size_t u = 0; u < lines.size(); ++u) {
          std::string resp;
          expect(direct.send_line(lines[u]) &&
                     direct.read_line(&resp, kIoTimeoutMs) &&
                     resp == reference[u],
                 "worker warm-up response matches");
        }
        for (int r = 0; r < reps; ++r)
          for (std::size_t u = 0; u < lines.size(); ++u) {
            std::string resp;
            bool sent = false;
            {
              ScopedSpan span(tracer, "worker_roundtrip", u, section.id());
              sent = direct.send_line(lines[u]) &&
                     direct.read_line(&resp, kIoTimeoutMs);
            }
            expect(sent && resp == reference[u], "worker response matches");
          }
      } else {
        expect(false, "connect to worker");
      }
      const fleet::RouterStats rs = router.stats();
      report.detail("router.failovers", static_cast<double>(rs.failovers),
                    "count");
      report.detail("router.forward_failures",
                    static_cast<double>(rs.forward_failures), "count");
    }
    const double routed = median_of(tracer, "router_handle_lines");
    report.metric("router.us_per_query", routed * 1e6, "us");
    report.metric("router.self_us",
                  (routed - median_of(tracer, "worker_roundtrip")) * 1e6,
                  "us");
  }

  report.count(attempted, failed);
}

}  // namespace naasbench
