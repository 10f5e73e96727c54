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
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "core/flags.hpp"
#include "cost/backend.hpp"
#include "cost/network_cost.hpp"
#include "nn/model_zoo.hpp"
#include "search/accelerator_search.hpp"
#include "search/result_store.hpp"

int main(int argc, char** argv) {
  using namespace naas;

  std::string cache_path;
  bool cache_readonly = false;
  std::optional<cost::BackendKind> backend;
  const core::Flags flags("usage: quickstart [iterations] [flags]\n",
                          {search::cache_path_flag(&cache_path),
                           search::cache_readonly_flag(&cache_readonly),
                           cost::cost_backend_flag(&backend)});
  std::vector<std::string> args;
  if (const std::string why = flags.parse(argc, argv, &args); !why.empty())
    return flags.usage_error(why);
  std::uint64_t iterations = 10;
  if (args.size() > 1 ||
      (args.size() == 1 &&
       !core::parse_uint(args[0], 1, std::numeric_limits<int>::max(),
                         &iterations)))
    return flags.usage_error("iterations must be one positive integer");
  if (!cost::backend_usable(backend)) return 1;

  // 1. Pick a workload and a resource envelope (max #PEs, on-chip SRAM,
  //    NoC bandwidth — Section III-A of the paper).
  const nn::Network net = nn::make_mobilenet_v2();
  const arch::ResourceConstraint budget = arch::eyeriss_resources();
  std::printf("workload : %s (%lld MMACs)\n", net.name().c_str(),
              net.total_macs() / 1000000);
  std::printf("envelope : %s\n\n", budget.to_string().c_str());

  // 2. Evaluate the human-designed baseline (Eyeriss, row-stationary).
  const cost::CostModel model(cost::EnergyModel{},
                              backend.value_or(cost::default_backend_kind()));
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
  opts.iterations = static_cast<int>(iterations);
  opts.mapping.population = 10;
  opts.mapping.iterations = 6;
  opts.seed = 1;
  opts.cache_path = cache_path;
  opts.cache_readonly = cache_readonly;
  const search::NaasResult result = search::run_naas(model, opts, {net});
  std::fprintf(stderr, "cost backend: %s\n", model.backend_name());
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
