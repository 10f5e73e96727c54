// naas_cli — command-line driver over the full public API: networks and
// envelopes (info), a baseline cost report (eval), one layer in detail
// (layer), the accelerator + mapping co-search (search) and the full
// three-level co-search (cosearch). Usage and flags: the table in main(),
// printed on a bad command line. --cache-path warm-starts search and
// cosearch from a store and flushes back to it; for a long-lived query
// service over the same store, see naas_serve and docs/serving.md.

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "core/flags.hpp"
#include "cost/backend.hpp"
#include "cost/report.hpp"
#include "mapping/canonical.hpp"
#include "nas/nas_search.hpp"
#include "nn/model_zoo.hpp"
#include "search/accelerator_search.hpp"
#include "search/result_store.hpp"

namespace {

using namespace naas;

arch::ResourceConstraint envelope_by_name(const std::string& name) {
  if (name == "edgetpu") return arch::edge_tpu_resources();
  if (name == "nvdla1024") return arch::nvdla_1024_resources();
  if (name == "nvdla256") return arch::nvdla_256_resources();
  if (name == "eyeriss") return arch::eyeriss_resources();
  if (name == "shidiannao") return arch::shidiannao_resources();
  throw std::invalid_argument("unknown envelope: " + name);
}

int cmd_info() {
  std::printf("networks:\n");
  for (const char* n : {"vgg16", "resnet50", "unet", "mobilenetv2",
                        "squeezenet", "mnasnet", "cifarnet"}) {
    const auto net = nn::make_network(n);
    std::printf("  %-12s %3d layers  %6lld MMACs  %6lld K weights\n", n,
                net.num_layers(), net.total_macs() / 1000000,
                net.total_weights() / 1000);
  }
  std::printf("\nenvelopes:\n");
  for (const auto& rc : arch::all_resource_envelopes())
    std::printf("  %s\n", rc.to_string().c_str());
  return 0;
}

int cmd_eval(const cost::CostModel& model, const std::string& net_name,
             const std::string& env_name) {
  const auto net = nn::make_network(net_name);
  const auto rc = envelope_by_name(env_name);
  const auto baseline = arch::baseline_for(rc);
  const auto nc = cost::evaluate_network_canonical(model, baseline, net);
  std::printf("%s\n\n%s", baseline.to_string().c_str(),
              cost::format_network_cost(nc).c_str());
  return nc.legal ? 0 : 1;
}

int cmd_layer(const cost::CostModel& model, const std::string& net_name,
              const std::string& env_name, int index) {
  const auto net = nn::make_network(net_name);
  if (index < 0 || index >= net.num_layers()) {
    std::fprintf(stderr, "layer index out of range (0..%d)\n",
                 net.num_layers() - 1);
    return 1;
  }
  const auto rc = envelope_by_name(env_name);
  const auto baseline = arch::baseline_for(rc);
  const auto& layer = net.layers()[static_cast<std::size_t>(index)];
  const auto m = mapping::canonical_mapping(baseline, layer);
  std::printf("%s\n%s\n\nmapping:\n%s\n\n%s", baseline.to_string().c_str(),
              layer.to_string().c_str(), m.to_string().c_str(),
              cost::format_report(model.evaluate(baseline, layer, m)).c_str());
  return 0;
}

/// Persistent-store flags shared by the search commands.
struct StoreFlags {
  std::string cache_path;
  bool cache_readonly = false;
};

/// Store and batched-cost-model diagnostics of a search result go to
/// stderr, so stdout stays a deterministic report (CI diffs cold vs warm
/// stdout).
template <typename Result>
void report(const StoreFlags& store, const Result& res,
            const cost::CostModel& model) {
  if (!store.cache_path.empty())
    std::fprintf(stderr,
                 "store: loaded %lld entries from %s; mapping searches run: "
                 "%lld%s\n",
                 res.store_entries_loaded, store.cache_path.c_str(),
                 res.mapping_searches,
                 store.cache_readonly ? " (readonly)" : "");
  std::fprintf(stderr,
               "batch: %lld CMA generations batch-evaluated (%lld "
               "candidates) on %s cost backend\n",
               res.generations_batched, res.candidates_batch_evaluated,
               model.backend_name());
}

int cmd_search(const cost::CostModel& model, const std::string& net_name,
               const std::string& env_name, int iterations,
               std::uint64_t seed, const StoreFlags& store) {
  const auto net = nn::make_network(net_name);
  const auto rc = envelope_by_name(env_name);

  search::NaasOptions opts;
  opts.resources = rc;
  opts.population = 12;
  opts.iterations = iterations;
  opts.seed = seed;
  opts.mapping.population = 10;
  opts.mapping.iterations = 6;
  opts.cache_path = store.cache_path;
  opts.cache_readonly = store.cache_readonly;
  const auto res = search::run_naas(model, opts, {net});
  report(store, res, model);
  if (!std::isfinite(res.best_geomean_edp)) {
    std::fprintf(stderr, "search failed to find a valid design\n");
    return 1;
  }
  const auto baseline = cost::evaluate_network_canonical(
      model, arch::baseline_for(rc), net);
  std::printf("searched: %s\n\n%s\n", res.best_arch.to_string().c_str(),
              cost::format_network_cost(res.best_networks[0]).c_str());
  std::printf("vs stock %s: %.2fx speedup, %.2fx energy, %.2fx EDP\n",
              rc.name.c_str(),
              baseline.latency_cycles / res.best_networks[0].latency_cycles,
              baseline.energy_nj / res.best_networks[0].energy_nj,
              baseline.edp / res.best_networks[0].edp);
  std::printf("search: %lld evals, %.1fs\n", res.cost_evaluations,
              res.wall_seconds);
  return 0;
}

int cmd_cosearch(const cost::CostModel& model, const std::string& env_name,
                 double min_accuracy, int iterations, std::uint64_t seed,
                 const StoreFlags& store) {
  nas::CoSearchOptions opts;
  opts.resources = envelope_by_name(env_name);
  opts.hw_population = 8;
  opts.hw_iterations = iterations;
  opts.seed = seed;
  opts.mapping.population = 8;
  opts.mapping.iterations = 5;
  opts.subnet.min_accuracy = min_accuracy;
  opts.subnet.population = 8;
  opts.subnet.iterations = 4;
  opts.cache_path = store.cache_path;
  opts.cache_readonly = store.cache_readonly;
  const auto res = nas::run_cosearch(model, opts);
  report(store, res, model);
  if (!std::isfinite(res.best_edp)) {
    std::fprintf(stderr,
                 "no accuracy-feasible subnet found; lower the floor\n");
    return 1;
  }
  std::printf("accelerator: %s\n", res.best_arch.to_string().c_str());
  std::printf("network    : %s\n", res.best_net.to_string().c_str());
  std::printf("top-1      : %.1f%%   EDP %.3g\n", res.best_accuracy,
              res.best_edp);
  std::printf("search     : %lld evals, %.1fs\n", res.cost_evaluations,
              res.wall_seconds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  StoreFlags store;
  std::optional<cost::BackendKind> backend;
  const core::Flags flags(
      "usage: naas_cli info\n"
      "       naas_cli eval <net> <envelope>\n"
      "       naas_cli layer <net> <envelope> <index>\n"
      "       naas_cli search <net> <envelope> [iters [seed]]\n"
      "       naas_cli cosearch <envelope> <acc%> [iters [seed]]\n",
      {search::cache_path_flag(&store.cache_path),
       search::cache_readonly_flag(&store.cache_readonly),
       cost::cost_backend_flag(&backend)},
      "for a long-lived batched query service over the same store,\n"
      "run naas_serve (see docs/serving.md)\n");
  std::vector<std::string> args;
  if (const std::string why = flags.parse(argc, argv, &args); !why.empty())
    return flags.usage_error(why);
  if (!cost::backend_usable(backend)) return 1;

  const std::size_t n = args.size();
  const std::string cmd = n > 0 ? args[0] : "";
  if (cmd == "info" && n == 1) return cmd_info();
  constexpr auto kMaxInt = std::numeric_limits<int>::max();
  constexpr auto kMaxSeed = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t index = 0, iterations = cmd == "search" ? 10 : 5, seed = 1;
  double min_accuracy = 0;
  const bool ok =
      (cmd == "eval" && n == 3) ||
      (cmd == "layer" && n == 4 &&
       core::parse_uint(args[3], 0, kMaxInt, &index)) ||
      ((cmd == "search" || cmd == "cosearch") && n >= 3 && n <= 5 &&
       (cmd == "search" ||
        core::parse_double(args[2], 0, 100, &min_accuracy)) &&
       (n < 4 || core::parse_uint(args[3], 0, kMaxInt, &iterations)) &&
       (n < 5 || core::parse_uint(args[4], 0, kMaxSeed, &seed)));
  if (!ok)
    return flags.usage_error(n == 0 ? "no command"
                                    : "bad arguments to '" + cmd + "'");

  const cost::CostModel model(cost::EnergyModel{},
                              backend.value_or(cost::default_backend_kind()));
  try {
    if (cmd == "eval") return cmd_eval(model, args[1], args[2]);
    if (cmd == "layer")
      return cmd_layer(model, args[1], args[2], static_cast<int>(index));
    if (cmd == "search")
      return cmd_search(model, args[1], args[2], static_cast<int>(iterations),
                        seed, store);
    return cmd_cosearch(model, args[1], min_accuracy,
                        static_cast<int>(iterations), seed, store);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
