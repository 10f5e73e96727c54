// serve_warm and fleet_warm: the evaluator as a served system, driven over
// loopback TCP by the single-threaded load generator on one connection.
//
// serve_warm  one serve::Server over a warm EvalService. Every query hits
//             the store warmed during preparation, so the JSON codec, the
//             protocol, the Server and the net layer do all the work and
//             mapping search does none (asserted: zero searches).
// fleet_warm  a fleet::Router fronted by a serve::Server over two
//             in-process workers, with serve_warm's mix and phases. It
//             isolates the router: a router-only change should move this
//             workload and leave serve_warm unchanged.
//
// The warm mix covers 5 presets x {resnet50, mobilenetv2, squeezenet,
// mnasnet, bert_base_encoder, llm_decode}: ~80% search_mapping, ~15%
// evaluate_network, ~5% evaluate_mapping. A run alternates two closed-loop
// phases in rounds: one request in flight (a caller waiting for every
// reply) and kWindow requests in flight (a pipelining client). The gated
// metrics come from the first:
//
//   p50_ref  median over rounds of the phase's median round trip
//   cpu_ref  median over rounds of the CPU time the served system (every
//            thread but the generator's) spent per query
//
// both in reference passes (reference_seconds(), taken between phases): on
// a shared host the speed of every core drifts by 10-20% over minutes, and
// dividing by the reference cancels that drift. The pipelined phase gives
// throughput (ops_per_s) and its CPU per query as details, and runs the
// Server's batched path under the same byte-for-byte checks; its CPU per
// query depends on how requests happen to group into batches, which moves
// with the host's timing, so it spread too widely to gate. The raw numbers
// are kept as details (p50_ms, p99_ms, cpu_us).
//
// Why closed loops on one connection: an open loop at a fixed rate turns a
// slowed host into a growing queue, and on a shared 4-core host its median
// moved by several times from one run to the next; more connections, or an
// evaluator pool beside the Server's threads, add hand-offs between
// virtual CPUs, whose wake-up latency on such a host varies from minute to
// minute.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "arch/presets.hpp"
#include "fleet/router.hpp"
#include "loadgen.hpp"
#include "nn/model_zoo.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "server_thread.hpp"
#include "workloads.hpp"

namespace naasbench {

namespace {

using namespace naas;
using serve::Json;

constexpr const char* kPresets[] = {"edgetpu", "nvdla1024", "nvdla256",
                                    "eyeriss", "shidiannao"};
constexpr const char* kNetworks[] = {"resnet50",   "mobilenetv2",
                                     "squeezenet", "mnasnet",
                                     "bert_base_encoder", "llm_decode"};
constexpr std::size_t kGroups = std::size(kPresets) * std::size(kNetworks);

/// Set-ups timed per run (a boot takes about a millisecond).
constexpr int kSetups = 60;
/// Rounds per run: the phases are short (about 0.25 s), so the medians
/// cover many of the host's sub-second swings in speed.
constexpr int kRounds = 60;
constexpr int kWindow = 32;          ///< pipelined phase: requests in flight
constexpr int kWindowsPerRound = 2;  ///< pipelined phase: throughput samples
constexpr int kFleetWorkers = 2;
/// Validity guard: a pipelined phase whose generator thread was busy more
/// than this share of the time may have been limited by the client, not by
/// the system (about 0.06 at the calibration commit).
constexpr double kClientCpuLimit = 0.5;

enum class Kind { kWarm, kFleet };

Json preset_arch(const char* preset) {
  Json a = Json::object();
  a.set("preset", Json::string(preset));
  return a;
}

/// Request body (text after `{"id":<n>`) for `method` with `params`.
std::string body(const char* method,
                 std::vector<std::pair<const char*, Json>> params) {
  Json req = Json::object();
  req.set("id", Json::integer(0));
  req.set("method", Json::string(method));
  for (auto& [k, v] : params) req.set(k, std::move(v));
  return after_id(req.dump());
}

/// The warm mix: templates grouped by (preset, network), with reference
/// responses computed by a cold service that also writes the warm store.
struct WarmMix {
  Mix mix;
  std::vector<std::uint32_t> network_ids;                       // per group
  std::array<std::vector<std::uint32_t>, kGroups> search_ids;   // per group
  std::array<std::vector<std::uint32_t>, kGroups> mapping_ids;  // per group

  std::uint32_t add(std::string b) {
    mix.bodies.push_back(std::move(b));
    return static_cast<std::uint32_t>(mix.bodies.size() - 1);
  }

  std::uint32_t draw_warm(core::Rng& rng) const {
    const auto g = static_cast<std::size_t>(rng.index(kGroups));
    const double u = rng.uniform();
    const auto pick = [&](const std::vector<std::uint32_t>& ids) {
      return ids[static_cast<std::size_t>(
          rng.index(static_cast<int>(ids.size())))];
    };
    if (u < 0.80) return pick(search_ids[g]);
    if (u < 0.95) return network_ids[g];
    return pick(mapping_ids[g]);
  }
};

/// Builds the warm templates, computes every reference response cold, and
/// leaves the warm store at `store_path`. False + report check on failure.
bool prepare(const serve::ServeOptions& base, const std::string& store_path,
             WarmMix& w, Report& report) {
  serve::ServeOptions so = base;
  so.store_path = store_path;
  so.num_threads = host_threads();
  std::filesystem::remove(store_path);
  serve::EvalService service(so);

  for (const char* p : kPresets)
    for (const char* n : kNetworks) {
      const std::size_t g = w.network_ids.size();
      w.network_ids.push_back(w.add(body(
          "evaluate_network",
          {{"arch", preset_arch(p)}, {"network", Json::string(n)}})));
      const int layers = nn::make_network(n).num_layers();
      for (int i = 0; i < layers; ++i) {
        Json layer = Json::object();
        layer.set("network", Json::string(n));
        layer.set("index", Json::integer(i));
        w.search_ids[g].push_back(w.add(body(
            "search_mapping", {{"arch", preset_arch(p)}, {"layer", layer}})));
      }
    }
  const auto run = [&](std::size_t from) {
    std::vector<std::string> lines;
    for (std::size_t t = from; t < w.mix.bodies.size(); ++t)
      lines.push_back("{\"id\":0" + w.mix.bodies[t]);
    for (const std::string& resp : service.handle_lines(lines))
      w.mix.expected.push_back(after_id(resp));
  };
  run(0);  // evaluate_network first: cold searches fan out per network

  // evaluate_mapping on each searched mapping.
  const std::size_t first_mapping = w.mix.bodies.size();
  for (std::size_t g = 0; g < kGroups; ++g)
    for (std::uint32_t t : w.search_ids[g]) {
      std::string err;
      const Json resp = Json::parse("{\"id\":0" + w.mix.expected[t], &err);
      const Json* result = resp.get("result");
      const Json* mapping = result ? result->get("mapping") : nullptr;
      const Json req = Json::parse("{\"id\":0" + w.mix.bodies[t], &err);
      if (!mapping || !req.get("arch") || !req.get("layer")) continue;
      w.mapping_ids[g].push_back(w.add(
          body("evaluate_mapping", {{"arch", *req.get("arch")},
                                    {"layer", *req.get("layer")},
                                    {"mapping", *mapping}})));
    }
  run(first_mapping);

  bool ok = w.mix.expected.size() == w.mix.bodies.size();
  for (const std::string& e : w.mix.expected)
    ok = ok && e.compare(0, 10, ",\"ok\":true") == 0;
  for (std::size_t g = 0; g < kGroups; ++g)
    ok = ok && !w.search_ids[g].empty() && !w.mapping_ids[g].empty();
  ok = ok && service.refresh() == search::StoreStatus::kOk;
  return report.check(ok, "warm mix prepared with every reference ok");
}

/// One EvalService behind its own TCP server (default ServerOptions: the
/// store is refreshed after every dispatched batch).
struct Node {
  serve::EvalService service;
  ServerThread server;
  explicit Node(const serve::ServeOptions& so) : service(so), server(service) {}
};

/// The system under test for one set-up: a single node, or a router
/// (fronted by its own server) over several nodes.
struct Rig {
  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<fleet::Router> router;
  std::unique_ptr<ServerThread> front;

  bool ok() const {
    bool all = !nodes.empty() && (!router || (front && front->ok()));
    for (const auto& n : nodes) all = all && n->server.ok();
    return all;
  }
  int port() const { return front ? front->port() : nodes[0]->server.port(); }
  ServerThread& entry() { return front ? *front : nodes[0]->server; }
  void stop() {
    if (front) front->stop();
    for (auto& n : nodes) n->server.stop();
  }
  long long mapping_searches() const {
    long long s = 0;
    for (const auto& n : nodes) s += n->service.evaluator().mapping_searches();
    return s;
  }
};

std::unique_ptr<Rig> boot(Kind kind, const serve::ServeOptions& so,
                          const std::vector<std::string>& stores) {
  auto rig = std::make_unique<Rig>();
  for (const std::string& store : stores) {
    serve::ServeOptions o = so;
    o.store_path = store;
    rig->nodes.push_back(std::make_unique<Node>(o));
  }
  if (kind == Kind::kFleet) {
    fleet::RouterOptions ro;
    for (const auto& n : rig->nodes)
      ro.workers.push_back({"127.0.0.1", n->server.port()});
    rig->router = std::make_unique<fleet::Router>(std::move(ro));
    rig->front = std::make_unique<ServerThread>(*rig->router);
  }
  return rig;
}

/// Adds `from`'s counts, times and sub-window rates to `into`.
void tally(PhaseResult& into, const PhaseResult& from) {
  into.sent += from.sent;
  into.succeeded += from.succeeded;
  into.failed += from.failed;
  into.elapsed_s += from.elapsed_s;
  into.generator_cpu_s += from.generator_cpu_s;
  into.system_cpu_s += from.system_cpu_s;
  into.window_qps.insert(into.window_qps.end(), from.window_qps.begin(),
                         from.window_qps.end());
}

void phase_details(Report& report, const char* name, const PhaseResult& r) {
  const std::string p = name;
  report.detail(p + ".sent", static_cast<double>(r.sent), "count");
  report.detail(p + ".succeeded", static_cast<double>(r.succeeded), "count");
  report.detail(p + ".failed", static_cast<double>(r.failed), "count");
  // Near 1 means the generator, not the system, limited the phase.
  report.detail(p + ".gen_cpu_frac",
                r.elapsed_s > 0 ? r.generator_cpu_s / r.elapsed_s : 0.0,
                "ratio");
  std::printf("phase %s: sent %lld succeeded %lld failed %lld\n", name,
              r.sent, r.succeeded, r.failed);
}

void run_serve(Kind kind, const Args& args, Report& report, Tracer& tracer) {
  serve::ServeOptions so;
  so.mapping.seed = args.seed;
  int rounds = kRounds;
  if (args.smoke) {
    so.mapping.population = 4;
    so.mapping.iterations = 2;
    rounds = 4;
  }
  // Every evaluator runs inline on its Server's eval thread: warm queries
  // are cache hits, and a pool would only add hand-offs between threads.
  so.num_threads = 1;

  // ---- preparation (untimed): templates, references, warm store --------
  const Clock::time_point prep0 = Clock::now();
  const std::string warm_store = args.work_dir + "/warm.store";
  WarmMix w;
  if (!prepare(so, warm_store, w, report)) return;
  report.detail("prep_s", seconds_since(prep0), "s");
  report.detail("mix.templates", static_cast<double>(w.mix.bodies.size()),
                "count");
  w.mix.draw = [&](core::Rng& rng) { return w.draw_warm(rng); };
  {
    core::Rng sample(core::stream_seed(args.seed, 0x517e));
    double bytes = 0;
    for (int i = 0; i < 10000; ++i)
      bytes += static_cast<double>(w.mix.expected[w.draw_warm(sample)].size());
    report.detail("mix.mean_response_bytes", bytes / 10000, "B");
  }
  // The reference responses are the program's output for this seed; every
  // served response below must equal them byte for byte.
  std::uint64_t digest = fnv1a("");
  for (std::size_t t = 0; t < w.mix.bodies.size(); ++t)
    digest = fnv1a(w.mix.expected[t], fnv1a(w.mix.bodies[t], digest));
  report.identity("responses.digest", hex64(digest));

  // ---- set-up, timed kSetups times: boot from the store, connect --------
  const std::size_t n_nodes = kind == Kind::kFleet ? kFleetWorkers : 1;
  std::vector<std::string> stores;
  for (std::size_t i = 0; i < n_nodes; ++i)
    stores.push_back(args.work_dir + "/node" + std::to_string(i) + ".store");
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  std::unique_ptr<LoadGen> gen;
  for (int k = 0; k < kSetups; ++k) {
    gen.reset();
    rig.reset();
    for (const std::string& s : stores)
      std::filesystem::copy_file(
          warm_store, s, std::filesystem::copy_options::overwrite_existing);
    const Clock::time_point t0 = Clock::now();
    rig = boot(kind, so, stores);
    if (rig->ok()) gen = std::make_unique<LoadGen>(rig->port());
    setups.push_back(seconds_since(t0));
    if (!report.check(rig->ok() && gen && gen->ok(),
                      "server boot and client connect"))
      return;
  }
  long long warm_loaded = 0;
  for (const auto& n : rig->nodes)
    warm_loaded += static_cast<long long>(
        n->service.evaluator().store_entries_loaded());
  report.check(warm_loaded > 0, "servers booted warm from the store");
  // The preparation's cold service and the torn-down boots left peaks (and
  // freed heap) the served system never needs: peak_rss_mb covers the
  // booted system, counted in full at the reset, and its growth under load.
  if (!report.check(reset_peak_rss(), "peak RSS reset after set-up")) return;

  core::Rng rng(core::stream_seed(args.seed, 0x10ad));
  PhaseResult single;     // one request in flight
  PhaseResult pipelined;  // kWindow requests in flight
  std::vector<double> p50s, p99s, p50_ref, cpu_s, cpu_ref, refs,
      pipelined_cpu_s;
  double overhead = 0;
  if (args.trace) {
    ProbeInputs in;
    in.population =
        seeded_population(arch::nvdla_256_resources(), args.seed, 16);
    for (const char* n : kNetworks) in.networks.push_back(nn::make_network(n));
    core::Rng pick(core::stream_seed(args.seed, 0x5e4e));
    for (int i = 0; i < 24; ++i) {
      // search_ids[g][k] asks for layer k of group g's (preset, network).
      const auto g = static_cast<std::size_t>(pick.index(kGroups));
      const auto k = static_cast<std::size_t>(
          pick.index(static_cast<int>(w.search_ids[g].size())));
      arch::ArchConfig a;
      std::string err;
      serve::arch_from_json(preset_arch(kPresets[g / std::size(kNetworks)]),
                            &a, &err);
      in.units.emplace_back(
          a, in.networks[g % std::size(kNetworks)].layers()[k]);
      in.request_bodies.push_back(w.mix.bodies[w.search_ids[g][k]]);
    }
    in.mapping = so.mapping;
    run_probes(in, args, report, tracer);

    // Traced pass: the single-request phase without and with per-request
    // spans, alternating in rounds.
    const double phase = args.seconds / (4 * rounds);
    PhaseResult plain;
    std::vector<double> plain_p50s;
    for (int r = 0; r < rounds; ++r) {
      const PhaseResult a = gen->closed_loop(w.mix, rng, 1, phase, 1, true);
      tally(plain, a);
      plain_p50s.push_back(median(a.latency_s));
      const PhaseResult b =
          gen->closed_loop(w.mix, rng, 1, phase, 1, true, &tracer);
      tally(single, b);
      p50s.push_back(median(b.latency_s));
    }
    overhead = (median(p50s) - median(plain_p50s)) / median(plain_p50s);
    report.count(plain.sent, plain.failed);
    phase_details(report, "untraced", plain);
  } else {
    // Each phase is timed between two reference measurements and divided
    // by their mean (see reference_seconds()). The phases get what the
    // reference measurements leave of the run's time.
    const Clock::time_point r0 = Clock::now();
    double ref = reference_seconds();
    const double phase = std::max(
        0.05, (args.seconds - seconds_since(r0) * (2 * rounds)) /
                  (2 * rounds));
    for (int r = 0; r < rounds; ++r) {
      const PhaseResult one = gen->closed_loop(w.mix, rng, 1, phase, 1, true);
      const double ref_mid = reference_seconds();
      tally(single, one);
      p50s.push_back(median(one.latency_s));
      p99s.push_back(quantile(one.latency_s, 0.99));
      p50_ref.push_back(p50s.back() / ((ref + ref_mid) / 2));
      cpu_s.push_back(one.system_cpu_s /
                      static_cast<double>(std::max(1LL, one.succeeded)));
      cpu_ref.push_back(cpu_s.back() / ((ref + ref_mid) / 2));

      const PhaseResult many =
          gen->closed_loop(w.mix, rng, kWindow, phase, kWindowsPerRound);
      const double ref_end = reference_seconds();
      tally(pipelined, many);
      pipelined_cpu_s.push_back(
          many.system_cpu_s /
          static_cast<double>(std::max(1LL, many.succeeded)));
      refs.push_back(ref_mid);
      ref = ref_end;
    }
  }
  rig->stop();
  const double rss_mb = peak_rss_mb();
  report.check(gen->ok(), "load generator: " + gen->error());

  report.count(single.sent, single.failed);
  report.count(pipelined.sent, pipelined.failed);
  phase_details(report, "single", single);
  if (!args.trace) phase_details(report, "pipelined", pipelined);
  report.check(rig->mapping_searches() == 0,
               "warm phases ran zero mapping searches");
  const serve::ServerStats& st = rig->entry().stats();
  report.detail("server.avg_batch",
                st.batches_dispatched > 0
                    ? static_cast<double>(st.requests_admitted) /
                          static_cast<double>(st.batches_dispatched)
                    : 0.0,
                "requests");
  report.check(st.requests_shed == 0 && st.requests_timed_out == 0,
               "no request was shed or timed out");

  const double client_cpu = pipelined.elapsed_s > 0
                                ? pipelined.generator_cpu_s /
                                      pipelined.elapsed_s
                                : 0.0;
  if (client_cpu > kClientCpuLimit)
    report.invalidate("load generator busy " + std::to_string(client_cpu) +
                      " of the pipelined phases, above " +
                      std::to_string(kClientCpuLimit));

  if (args.trace) {
    report.metric("trace.overhead_frac", overhead, "ratio");
  } else {
    report.metric("setup_s", median(setups), "s");
    report.metric("p50_ref", median(p50_ref), "ref");
    report.metric("cpu_ref", median(cpu_ref), "ref");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.detail("p50_ms", median(p50s) * 1e3, "ms");
    report.detail("p99_ms", median(p99s) * 1e3, "ms");
    report.detail("cpu_us", median(cpu_s) * 1e6, "us");
    report.detail("pipelined.cpu_us", median(pipelined_cpu_s) * 1e6, "us");
    report.detail("ops_per_s", median(pipelined.window_qps), "1/s");
    report.detail("reference_ms", median(refs) * 1e3, "ms");
  }
  for (const std::string& s : stores) std::filesystem::remove(s);
  std::filesystem::remove(warm_store);
}

}  // namespace

void run_serve_warm(const Args& args, Report& report, Tracer& tracer) {
  run_serve(Kind::kWarm, args, report, tracer);
}

void run_fleet_warm(const Args& args, Report& report, Tracer& tracer) {
  run_serve(Kind::kFleet, args, report, tracer);
}

}  // namespace naasbench
