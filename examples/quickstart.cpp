// Quickstart: search an accelerator + mapping for MobileNetV2 within the
// Eyeriss resource envelope and compare against the Eyeriss baseline.
//
//   ./build/quickstart [iterations] [--cache-path <file>] [--cache-readonly]
//                      [--cost-backend <scalar|avx2|auto>]
//
// With --cache-path, the search warm-starts from the persistent
// mapping-result store at <file> and flushes back to it: a second identical
// run performs zero mapping searches and prints a bit-identical report
// (store diagnostics go to stderr, so stdout stays comparable).
// --cache-readonly loads the store without writing it back — e.g. when
// sharing a store a long-lived naas_serve instance owns (docs/serving.md).
//
// This walks the full public API surface in ~40 lines of user code:
// model zoo -> resource envelope -> run_naas -> inspect the result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "arch/presets.hpp"
#include "cost/backend.hpp"
#include "cost/network_cost.hpp"
#include "nn/model_zoo.hpp"
#include "search/accelerator_search.hpp"

int main(int argc, char** argv) {
  using namespace naas;

  int iterations = 10;
  std::string cache_path;
  bool cache_readonly = false;
  std::optional<cost::BackendKind> cost_backend;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache-path") == 0 && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-readonly") == 0) {
      cache_readonly = true;
    } else if (std::strcmp(argv[i], "--cost-backend") == 0 && i + 1 < argc) {
      const auto kind = cost::parse_backend_kind(argv[++i]);
      if (!kind || !cost::backend_available(*kind)) {
        std::fprintf(stderr,
                     "bad or unavailable cost backend '%s' "
                     "(scalar|avx2|auto)\n",
                     argv[i]);
        return 2;
      }
      cost_backend = *kind;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "unknown flag: %s\n"
                   "usage: quickstart [iterations] [--cache-path <file>] "
                   "[--cache-readonly] [--cost-backend <kind>]\n",
                   argv[i]);
      return 2;
    } else {
      iterations = std::atoi(argv[i]);
      if (iterations <= 0) {
        std::fprintf(stderr, "iterations must be a positive integer, got "
                             "'%s'\n", argv[i]);
        return 2;
      }
    }
  }

  // 1. Pick a workload and a resource envelope (max #PEs, on-chip SRAM,
  //    NoC bandwidth — Section III-A of the paper).
  const nn::Network net = nn::make_mobilenet_v2();
  const arch::ResourceConstraint budget = arch::eyeriss_resources();
  std::printf("workload : %s (%lld MMACs)\n", net.name().c_str(),
              net.total_macs() / 1000000);
  std::printf("envelope : %s\n\n", budget.to_string().c_str());

  // 2. Evaluate the human-designed baseline (Eyeriss, row-stationary).
  const cost::CostModel model;
  const arch::ArchConfig eyeriss = arch::eyeriss_arch();
  const cost::NetworkCost baseline =
      cost::evaluate_network_canonical(model, eyeriss, net);
  std::printf("baseline : %s\n", eyeriss.to_string().c_str());
  std::printf("           latency %.3g cycles, energy %.3g nJ, EDP %.3g\n\n",
              baseline.latency_cycles, baseline.energy_nj, baseline.edp);

  // 3. Run NAAS: outer evolution over the accelerator design space, inner
  //    evolution over per-layer mappings.
  search::NaasOptions opts;
  opts.resources = budget;
  opts.population = 12;
  opts.iterations = iterations;
  opts.mapping.population = 10;
  opts.mapping.iterations = 6;
  opts.seed = 1;
  opts.cache_path = cache_path;
  opts.cache_readonly = cache_readonly;
  opts.cost_backend = cost_backend;
  const search::NaasResult result = search::run_naas(model, opts, {net});
  std::fprintf(stderr, "cost backend: %s\n", result.cost_backend.c_str());
  if (!cache_path.empty())
    std::fprintf(stderr,
                 "store: loaded %lld entries from %s; mapping searches run: "
                 "%lld\n",
                 result.store_entries_loaded, cache_path.c_str(),
                 result.mapping_searches);

  // 4. Inspect the matched design.
  std::printf("searched : %s\n", result.best_arch.to_string().c_str());
  const auto& cost = result.best_networks.front();
  std::printf("           latency %.3g cycles, energy %.3g nJ, EDP %.3g\n",
              cost.latency_cycles, cost.energy_nj, cost.edp);
  std::printf("\nspeedup %.2fx   energy saving %.2fx   EDP reduction %.2fx\n",
              baseline.latency_cycles / cost.latency_cycles,
              baseline.energy_nj / cost.energy_nj, baseline.edp / cost.edp);
  std::printf("search cost: %lld cost-model evals in %.1fs\n",
              result.cost_evaluations, result.wall_seconds);
  return 0;
}
