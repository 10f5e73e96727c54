// Serving throughput: the naas_serve query path measured end to end
// (JSON parse -> batch dedup -> evaluator -> JSON response), cold vs warm
// from the persistent store, and batched vs one-at-a-time submission.
// Emits BENCH_serve.json for CI trend tracking.
//
// Determinism is asserted, not assumed: batched responses are compared
// byte-for-byte against one-at-a-time responses, warm responses against
// cold ones, and the warm service must perform zero mapping searches.
//
// One-at-a-time submission models a client that round-trips per query: the
// service pays its per-submission costs (batch setup, store refresh) per
// query. Batched submission pays them once and lets the fan-out and the
// in-flight dedup amortize the rest. On a 1-core container the spread
// comes from amortization alone; with more cores the batch fan-out
// compounds it.
//
// The idle-refresh rows time the store refresh a server runs after every
// batch, when the batch added nothing to the cache, at about 2k and 100k
// cached entries. That cost must not grow with the cache.

#include "bench_common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "core/serialize.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "serve/service.hpp"

namespace {

using namespace naas;

/// search_mapping request lines over every layer of the benchmark nets on
/// one preset arch, repeated `repeats` times (repeats exercise the cache /
/// in-flight dedup exactly as a production query mix with popular layers
/// would).
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

serve::ServeOptions serve_options(const bench::Budget& budget,
                                  const std::string& store_path) {
  serve::ServeOptions opts;
  opts.mapping.population = budget.map_population;
  opts.mapping.iterations = budget.map_iterations;
  opts.mapping.seed = budget.seed;
  opts.store_path = store_path;
  return opts;
}

struct Run {
  double wall_seconds = 0;
  double qps = 0;
  long long mapping_searches = 0;
  std::vector<std::string> responses;
};

/// One query per submission: each line is its own batch, followed by the
/// per-submission store refresh the serve driver performs.
Run run_single(const serve::ServeOptions& opts,
               const std::vector<std::string>& lines) {
  serve::EvalService service(opts);
  Run run;
  run.responses.reserve(lines.size());
  core::Timer timer;
  for (const std::string& line : lines) {
    run.responses.push_back(service.handle_line(line));
    service.refresh();
  }
  run.wall_seconds = timer.seconds();
  run.qps = run.wall_seconds > 0 ? lines.size() / run.wall_seconds : 0;
  run.mapping_searches = service.evaluator().mapping_searches();
  return run;
}

/// Everything in one batch, one refresh.
Run run_batch(const serve::ServeOptions& opts,
              const std::vector<std::string>& lines) {
  serve::EvalService service(opts);
  Run run;
  core::Timer timer;
  run.responses = service.handle_lines(lines);
  service.refresh();
  run.wall_seconds = timer.seconds();
  run.qps = run.wall_seconds > 0 ? lines.size() / run.wall_seconds : 0;
  run.mapping_searches = service.evaluator().mapping_searches();
  return run;
}

struct IdleRefresh {
  std::size_t cache_entries = 0;
  double us = 0;  ///< mean time of one refresh that finds nothing new
};

/// Fills a store-backed service's cache to about `entries` entries, flushes
/// them, then times refreshes that find nothing new. The fill adopts one
/// real search result under distinct synthetic keys (a warm store holds
/// nothing else), so the cache size costs no searches.
IdleRefresh time_idle_refresh(const bench::Budget& budget,
                              std::size_t entries) {
  const char* store_path = "BENCH_serve_refresh_store.bin";
  std::remove(store_path);
  IdleRefresh out;
  {
    serve::EvalService service(serve_options(budget, store_path));
    service.handle_line(make_session(1).front());
    const search::MappingSearchResult result =
        service.evaluator().snapshot_since(0).front().second;
    search::StoreEntries fill;
    fill.reserve(entries);
    for (std::size_t i = 1; i < entries; ++i)
      fill.emplace_back(core::hash_mix(0x5e7e57ULL, i), result);
    service.adopt_entries(std::move(fill));
    service.refresh();  // appends the fill: the store is now current
    out.cache_entries = service.evaluator().cache_size();
    constexpr int kRefreshes = 200;
    core::Timer timer;
    for (int i = 0; i < kRefreshes; ++i) service.refresh();
    out.us = timer.seconds() * 1e6 / kRefreshes;
  }
  std::remove(store_path);
  return out;
}

void reproduce_serving(const bench::Budget& budget) {
  bench::print_header(
      "Serving throughput: cold vs warm store, batch vs single submission");

  const char* store_path = "BENCH_serve_store.bin";
  // Cold phase: searches dominate. Warm phase: pure query-path throughput,
  // so use more repeats for stable timing.
  const std::vector<std::string> cold_lines = make_session(1);
  const std::vector<std::string> warm_lines = make_session(8);

  std::remove(store_path);
  const Run cold_single = run_single(serve_options(budget, store_path),
                                     cold_lines);
  std::remove(store_path);
  const Run cold_batch = run_batch(serve_options(budget, store_path),
                                   cold_lines);
  // cold_batch's store stays on disk: the warm runs boot from it. Batch
  // runs first so any residual warm-up bias favors the single phase — a
  // conservative ordering for the reported batch speedup.
  const Run warm_batch = run_batch(serve_options(budget, store_path),
                                   warm_lines);
  const Run warm_single = run_single(serve_options(budget, store_path),
                                     warm_lines);
  std::remove(store_path);
  const IdleRefresh idle_small = time_idle_refresh(budget, 2000);
  const IdleRefresh idle_large = time_idle_refresh(budget, 100000);

  const bool batch_identical_to_single =
      cold_batch.responses == cold_single.responses &&
      warm_batch.responses == warm_single.responses;
  // Warm responses repeat the cold session 4x: every repeat must match the
  // cold answers byte for byte.
  bool warm_identical_to_cold = true;
  for (std::size_t i = 0; i < warm_batch.responses.size(); ++i) {
    // ids differ across repeats; compare payload after the id prefix.
    const std::string& w = warm_batch.responses[i];
    const std::string& c = cold_batch.responses[i % cold_lines.size()];
    warm_identical_to_cold = warm_identical_to_cold &&
                             w.substr(w.find("\"ok\"")) ==
                                 c.substr(c.find("\"ok\""));
  }
  const bool zero_searches_on_warm = warm_single.mapping_searches == 0 &&
                                     warm_batch.mapping_searches == 0;

  core::Table t({"Phase", "Queries", "Wall (s)", "Queries/s",
                 "Mapping searches"});
  const auto add = [&t](const char* phase, std::size_t n, const Run& run) {
    t.add_row({phase, core::Table::fmt_int(static_cast<long long>(n)),
               core::Table::fmt(run.wall_seconds, 3),
               core::Table::fmt_int(static_cast<long long>(run.qps)),
               core::Table::fmt_int(run.mapping_searches)});
  };
  add("cold single", cold_lines.size(), cold_single);
  add("cold batch", cold_lines.size(), cold_batch);
  add("warm single", warm_lines.size(), warm_single);
  add("warm batch", warm_lines.size(), warm_batch);
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "batch speedup: %.2fx cold, %.2fx warm   warm/cold speedup "
      "(batch): %.1fx\n"
      "zero searches on warm: %s   batch==single: %s   warm==cold: %s\n",
      cold_single.wall_seconds > 0
          ? cold_single.wall_seconds / cold_batch.wall_seconds
          : 0.0,
      warm_single.qps > 0 ? warm_batch.qps / warm_single.qps : 0.0,
      warm_batch.wall_seconds > 0
          ? (cold_batch.wall_seconds / cold_lines.size()) /
                (warm_batch.wall_seconds / warm_lines.size())
          : 0.0,
      zero_searches_on_warm ? "yes" : "NO (BUG)",
      batch_identical_to_single ? "yes" : "NO (BUG)",
      warm_identical_to_cold ? "yes" : "NO (BUG)");
  std::printf("idle refresh: %.2f us at %zu cache entries, %.2f us at %zu\n",
              idle_small.us, idle_small.cache_entries, idle_large.us,
              idle_large.cache_entries);

  FILE* f = std::fopen("BENCH_serve.json", "w");
  if (!f) {
    std::printf("could not open BENCH_serve.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve_throughput\",\n");
  std::fprintf(f, "  \"envelope\": \"nvdla256\",\n");
  std::fprintf(f, "  \"networks\": [\"squeezenet\", \"mobilenetv2\"],\n");
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               core::ThreadPool::default_num_threads());
  std::fprintf(f, "  \"cold_queries\": %zu,\n", cold_lines.size());
  std::fprintf(f, "  \"warm_queries\": %zu,\n", warm_lines.size());
  std::fprintf(f, "  \"cold_single_qps\": %.1f,\n", cold_single.qps);
  std::fprintf(f, "  \"cold_batch_qps\": %.1f,\n", cold_batch.qps);
  std::fprintf(f, "  \"warm_single_qps\": %.1f,\n", warm_single.qps);
  std::fprintf(f, "  \"warm_batch_qps\": %.1f,\n", warm_batch.qps);
  std::fprintf(f, "  \"batch_speedup_cold\": %.3f,\n",
               cold_batch.qps > 0 && cold_single.qps > 0
                   ? cold_batch.qps / cold_single.qps
                   : 0.0);
  std::fprintf(f, "  \"batch_speedup_warm\": %.3f,\n",
               warm_batch.qps > 0 && warm_single.qps > 0
                   ? warm_batch.qps / warm_single.qps
                   : 0.0);
  std::fprintf(f, "  \"warm_mapping_searches\": %lld,\n",
               warm_single.mapping_searches + warm_batch.mapping_searches);
  std::fprintf(f, "  \"zero_searches_on_warm\": %s,\n",
               zero_searches_on_warm ? "true" : "false");
  std::fprintf(f, "  \"batch_identical_to_single\": %s,\n",
               batch_identical_to_single ? "true" : "false");
  std::fprintf(f, "  \"warm_identical_to_cold\": %s,\n",
               warm_identical_to_cold ? "true" : "false");
  std::fprintf(f, "  \"refresh_idle_us\": [\n");
  for (const IdleRefresh* row : {&idle_small, &idle_large})
    std::fprintf(f, "    {\"cache_entries\": %zu, \"us\": %.3f}%s\n",
                 row->cache_entries, row->us,
                 row == &idle_large ? "" : ",");
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"note\": \"batch submission amortizes per-submission "
               "store refresh (visible cold) and fans work units across "
               "the pool; on a 1-core host the fan-out term is ~1.0 and "
               "warm batch==single within noise\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_serve.json\n");
}

/// Warm single-query latency through the full line protocol.
void BM_ServeWarmQuery(benchmark::State& state) {
  const bench::Budget budget = bench::Budget::from_env();
  serve::ServeOptions opts = serve_options(budget, "");
  serve::EvalService service(opts);
  const std::vector<std::string> lines = make_session(1);
  // Prime the cache so iterations measure the serving path, not search.
  service.handle_lines(lines);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string response = service.handle_line(lines[i]);
    benchmark::DoNotOptimize(response.data());
    i = (i + 1) % lines.size();
  }
}
BENCHMARK(BM_ServeWarmQuery)->Unit(benchmark::kMicrosecond);

/// Warm batch submission (whole session per iteration).
void BM_ServeWarmBatch(benchmark::State& state) {
  const bench::Budget budget = bench::Budget::from_env();
  serve::ServeOptions opts = serve_options(budget, "");
  serve::EvalService service(opts);
  const std::vector<std::string> lines = make_session(1);
  service.handle_lines(lines);
  for (auto _ : state) {
    const auto responses = service.handle_lines(lines);
    benchmark::DoNotOptimize(responses.data());
  }
}
BENCHMARK(BM_ServeWarmBatch)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  reproduce_serving(naas::bench::Budget::from_env());
  return naas::bench::run_microbenchmarks(argc, argv);
}
